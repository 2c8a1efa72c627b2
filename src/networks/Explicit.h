//===- networks/Explicit.h - Materialized super Cayley graphs --*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Materializes a SuperCayleyGraph descriptor as an explicit Graph whose
/// node ids are Lehmer ranks of the labels (identity = node 0). Also keeps
/// the per-link generator labels, which routing, embedding congestion, and
/// the simulator all need.
///
/// Construction is embarrassingly parallel: every Next-table slot is a pure
/// function of its rank (unrank, compose, re-rank), so the builder sweeps
/// rank chunks on the global ThreadPool. Each slot is written exactly once
/// regardless of chunking, so the table is byte-identical at every thread
/// count (pinned by tests/KernelDifferentialTest.cpp); SCG_THREADS=1 forces
/// the serial build.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_NETWORKS_EXPLICIT_H
#define SCG_NETWORKS_EXPLICIT_H

#include "core/SuperCayleyGraph.h"
#include "graph/Bfs.h"
#include "graph/Csr.h"
#include "graph/Graph.h"

namespace scg {

/// An explicit, Lehmer-ranked copy of a super Cayley graph. For each node
/// id u and generator index g, the neighbor id is Next[u * degree + g].
class ExplicitScg {
public:
  /// Materializes \p Network (stored by value, so temporaries are fine);
  /// throws std::invalid_argument when k > 10 (k! nodes are enumerated).
  explicit ExplicitScg(SuperCayleyGraph Network);

  const SuperCayleyGraph &network() const { return Net; }

  NodeId numNodes() const { return Count; }
  unsigned degree() const { return Net.degree(); }

  /// Neighbor of node \p U along generator \p G.
  NodeId next(NodeId U, GenIndex G) const {
    assert(U < Count && G < degree() && "index out of range");
    return Next[uint64_t(U) * degree() + G];
  }

  /// The whole Count x degree neighbor table, row-major by node id. For
  /// whole-table consumers (differential tests, serialization).
  const std::vector<NodeId> &nextTable() const { return Next; }

  /// Label of node \p U (unranked on demand).
  Permutation label(NodeId U) const;

  /// Node id of label \p P.
  NodeId rankOf(const Permutation &P) const;

  /// Builds the plain Graph view (adjacency without generator labels).
  Graph toGraph() const;

  /// CSR view for the bit-parallel distance engine (graph/MsBfs.h): the
  /// row-major Next table already *is* CSR with uniform row length, so
  /// this is one table copy and an implicit offsets ramp -- no Graph
  /// intermediary, no per-node vectors.
  Csr toCsr() const;

private:
  SuperCayleyGraph Net;
  NodeId Count;
  std::vector<NodeId> Next; ///< Count x degree neighbor table.
};

/// BFS from \p Source straight over the Next table: the neighbor walk is a
/// contiguous row read, fully inlined through bfsCore (no Graph
/// materialization, no callback indirection).
BfsResult bfsExplicit(const ExplicitScg &Net, NodeId Source);

} // namespace scg

#endif // SCG_NETWORKS_EXPLICIT_H
