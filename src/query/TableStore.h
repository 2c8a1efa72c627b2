//===- query/TableStore.h - mmap-able exact distance tables ----*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialized exact distance tables for the query layer. A table holds two
/// rows indexed by Lehmer rank R, one byte per rank each:
///
///  * the distance row: d(id, unrank(R)). By vertex transitivity
///    d(U, V) = d(id, U^-1 o V), so this one row answers every exact
///    distance query for the whole k!-node network;
///  * the first-hop row: the lowest generator index g with
///    d(id, g^-1 o R) = d(id, R) - 1 (g starts a shortest route to R), or
///    TableNoHop when there is none. A shortest route is then a chase --
///    read R's byte, step to g^-1 o R, re-rank -- one rank per hop.
///
/// At k = 10 that is a 7.3 MB file standing in for a graph of 3.6M nodes.
///
/// The on-disk format (version 2) is a fixed little-endian header (magic,
/// version, an endianness probe, the network descriptor and degree, node
/// count, FNV-1a checksum over both rows) followed by the distance row and
/// then the first-hop row. Files are loaded read-only via mmap, so any
/// number of serving processes share one physical copy of the table; a
/// build-side writer process and a serving reader never need to be the
/// same binary. The loader validates everything before the first query:
/// wrong magic, foreign endianness, version skew (a version-1 file has no
/// first-hop row and is rejected), size mismatch (truncation), checksum
/// failure (bit rot), and a first-hop byte that names no generator all
/// raise TableStoreError with a message naming the failed check -- never
/// undefined behavior.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_QUERY_TABLESTORE_H
#define SCG_QUERY_TABLESTORE_H

#include "core/SuperCayleyGraph.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace scg {

/// Raised by TableStore::load / save on any I/O or validation failure.
class TableStoreError : public std::runtime_error {
public:
  explicit TableStoreError(const std::string &What)
      : std::runtime_error(What) {}
};

/// Distance value byte marking "no path" in a table row.
constexpr uint8_t TableUnreachable = 0xFF;

/// First-hop byte marking "no shortest first hop": the identity, an
/// unreachable rank, or a rank of an external row (fromRows) whose
/// neighbours never sit one step closer.
constexpr uint8_t TableNoHop = 0xFF;

/// An exact distance table for one network descriptor, either built
/// in-process or mmap-ed read-only from a serialized file. Movable, not
/// copyable (a loaded instance owns an mmap region).
class TableStore {
public:
  /// Builds the table for \p Net in memory: one BFS from the identity
  /// over the ExplicitScg neighbour table fills both rows (a node's first
  /// hop is the minimum over its predecessors one level up, which FIFO
  /// order hands to its first discoverer). Enumerates k! nodes: same
  /// k <= 10 limit as ExplicitScg; throws std::length_error when a
  /// distance would not fit a byte.
  static TableStore build(const SuperCayleyGraph &Net);

  /// Wraps externally computed rows (e.g. ones derived over a faulted
  /// graph) for \p Net. A route chase that meets TableNoHop, or does not
  /// end at the identity after d hops, is dropped and the engine falls
  /// back. Throws std::invalid_argument unless both rows have
  /// Net.numNodes() entries, \p Dist is 0 at the identity (rank 0), and
  /// every \p Hop byte is TableNoHop or below Net.degree().
  static TableStore fromRows(const SuperCayleyGraph &Net,
                             std::vector<uint8_t> Dist,
                             std::vector<uint8_t> Hop);

  /// Loads \p Path read-only via mmap, validating the header and payload
  /// checksum. Throws TableStoreError naming the failed check.
  static TableStore load(const std::string &Path);

  /// Serializes this table to \p Path (header + both rows).
  /// Throws TableStoreError on I/O failure.
  void save(const std::string &Path) const;

  TableStore(TableStore &&Rhs) noexcept { moveFrom(Rhs); }
  TableStore &operator=(TableStore &&Rhs) noexcept;
  TableStore(const TableStore &) = delete;
  TableStore &operator=(const TableStore &) = delete;
  ~TableStore();

  /// The network kind / parameters the table was built for.
  NetworkKind kind() const { return Kind; }
  unsigned numBoxes() const { return L; }
  unsigned ballsPerBox() const { return N; }
  unsigned numSymbols() const { return K; }
  uint64_t numNodes() const { return Count; }
  /// Generator count of the network; every first-hop byte is below it.
  unsigned degree() const { return Degree; }

  /// True when this table answers for \p Net (same kind, parameters and
  /// degree).
  bool covers(const SuperCayleyGraph &Net) const {
    return Net.kind() == Kind && Net.numBoxes() == L &&
           Net.ballsPerBox() == N && Net.numSymbols() == K &&
           Net.degree() == Degree;
  }

  /// d(id, unrank(Rank)) as a byte; TableUnreachable when no path.
  uint8_t distanceByRank(uint64_t Rank) const {
    assert(Rank < Count && "rank out of table range");
    return Row[Rank];
  }

  /// The lowest generator index starting a shortest route from the
  /// identity to unrank(Rank); TableNoHop when none does.
  uint8_t firstHopByRank(uint64_t Rank) const {
    assert(Rank < Count && "rank out of table range");
    return Row[Count + Rank];
  }

  /// Whether this instance serves from an mmap-ed file (vs in-memory).
  bool isMapped() const { return Mapped != nullptr; }

private:
  TableStore() = default;
  static TableStore wrap(const SuperCayleyGraph &Net,
                         std::vector<uint8_t> Rows);
  void moveFrom(TableStore &Rhs) noexcept;
  void unmap() noexcept;

  NetworkKind Kind = NetworkKind::Star;
  unsigned L = 0, N = 0, K = 0, Degree = 0;
  uint64_t Count = 0;
  /// The distance row (Count bytes) followed by the first-hop row.
  const uint8_t *Row = nullptr;
  std::vector<uint8_t> Owned; ///< backing store when built in memory.
  void *Mapped = nullptr;     ///< mmap base when loaded from a file.
  size_t MappedSize = 0;
};

} // namespace scg

#endif // SCG_QUERY_TABLESTORE_H
