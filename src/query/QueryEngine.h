//===- query/QueryEngine.h - Table-free batched route serving --*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Routing-as-a-service: answers distance and route queries for star
/// graphs and super Cayley graphs WITHOUT constructing the k! graph.
/// Every analysis engine in this repository materializes adjacency; the
/// paper's point is that routing is computable locally from the
/// permutation label in O(k) -- which is the only thing that scales to
/// k where the graph cannot exist in memory.
///
/// Cayley symmetry does the heavy lifting: route and distance from U to V
/// depend only on the relative label R = U^-1 o V (left translation is an
/// automorphism), so the engine normalizes every pair to R and serves
/// from rank space:
///
///  * Table-free (any k <= 16): O(k) greedy rank-space routing on the
///    inline-label Permutation kernels -- exact optimal star routing
///    (send-the-front-symbol-home), exact bubble-sort routing (adjacent-
///    swap sort, length = inversions), rotator insertion-sort routes, and
///    Theorem 1-3 star-route lifting for the SDC-emulating SCG classes
///    (MS/RS/complete-RS/IS/MIS/RIS/complete-RIS, TN).
///
///  * Table-backed (k <= 10): an attached TableStore -- the identity-row
///    distance and first-hop rows, typically mmap-ed and shared between
///    processes -- serves exact distances as one rank + one byte load, and
///    exact shortest routes by chasing the first-hop row (one rank + one
///    byte load per hop), for every family including the ones with no
///    closed-form router.
///
/// Replies carry (Exact, FromTable) so callers can tell a certified
/// shortest answer from a lifted upper bound. Serving is uncached by
/// default: a route is a pure function of the relative label, and
/// computing it costs less than a shared-cache probe. A sharded LRU
/// SegmentCache can still be switched on (QueryEngineOptions) to memoize
/// hot relative labels. Batch entry points spread chunks over the global
/// ThreadPool with results in submission order, so batched parallel
/// answers are byte-identical to serial ones (the cache can only change
/// latency, never an answer). Telemetry flows through MetricsRegistry as
/// `query.*` counters, tallied per chunk and added to the shared counters
/// once per chunk. Inputs the engine cannot serve -- k > 16, a label of
/// the wrong size, a table for another network, a table-only family with
/// no usable table -- raise std::invalid_argument.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_QUERY_QUERYENGINE_H
#define SCG_QUERY_QUERYENGINE_H

#include "query/SegmentCache.h"
#include "query/TableStore.h"

#include <atomic>
#include <cassert>
#include <memory>
#include <span>

namespace scg {

class MetricsRegistry;

/// One source/destination query; labels must be on the engine's k symbols.
struct PairQuery {
  Permutation Src, Dst;
};

/// Reply to a distance query. Distance is UnreachableDistance when a
/// (faulted) table certifies no path.
struct DistanceReply {
  uint32_t Distance = 0;
  bool Exact = false;     ///< certified shortest (closed form or table).
  bool FromTable = false; ///< served from the attached TableStore.
  bool operator==(const DistanceReply &) const = default;
};

/// Reply to a route query: generator indices of a valid route (hop h goes
/// along generators()[Hops[h]]).
struct RouteReply {
  std::vector<GenIndex> Hops;
  bool Exact = false;     ///< certified shortest route.
  bool FromTable = false; ///< chased along the table's first-hop row.
  bool operator==(const RouteReply &) const = default;

  unsigned length() const { return unsigned(Hops.size()); }
};

/// Flat reply to a batched route query: route I occupies
/// Hops[Offsets[I], Offsets[I+1]). One contiguous buffer for the whole
/// batch instead of one std::vector per route, so consumers that retain
/// many routes (the traffic driver keeps one per distinct relative label
/// and lets every injection index into it) hold a single allocation.
struct RouteArena {
  std::vector<GenIndex> Hops;
  std::vector<uint32_t> Offsets; ///< size() + 1 offsets into Hops.

  size_t size() const { return Offsets.empty() ? 0 : Offsets.size() - 1; }

  /// The hops of route \p I as a view into the arena.
  std::span<const GenIndex> route(size_t I) const {
    assert(I + 1 < Offsets.size() && "route index out of range");
    return std::span<const GenIndex>(Hops).subspan(Offsets[I],
                                                   Offsets[I + 1] -
                                                       Offsets[I]);
  }

  unsigned length(size_t I) const {
    assert(I + 1 < Offsets.size() && "route index out of range");
    return Offsets[I + 1] - Offsets[I];
  }
};

/// Engine construction knobs.
struct QueryEngineOptions {
  /// Total SegmentCache entries (0, the default, disables caching).
  size_t CacheCapacity = 0;
  /// Cache shard count (rounded up to a power of two).
  unsigned CacheShards = 8;
};

/// The serving engine for one network descriptor. Thread-safe for
/// concurrent queries (the cache is internally sharded and the rest of
/// the state is immutable after construction / attachTable).
class QueryEngine {
public:
  /// Builds a table-free engine for \p Net; throws std::invalid_argument
  /// when k > 16 (labels are inline). Serving needs a supported family
  /// (supportsTableFree) -- attachTable lifts the family restriction.
  explicit QueryEngine(SuperCayleyGraph Net, QueryEngineOptions Opts = {});

  /// True when the engine can answer without a table: star, bubble-sort,
  /// rotator, and the SDC star-emulating classes.
  static bool supportsTableFree(const SuperCayleyGraph &Net);

  /// Attaches an exact distance table; throws std::invalid_argument when
  /// \p Table is null or does not cover network().
  /// Shared ownership so many engines (or processes via mmap) serve from
  /// one table. Not thread-safe against in-flight queries.
  void attachTable(std::shared_ptr<const TableStore> Table);

  bool tableBacked() const { return Table != nullptr; }
  const SuperCayleyGraph &network() const { return Net; }

  /// d(Src, Dst), Cayley-normalized to the relative label. This and every
  /// other query entry point throw std::invalid_argument on a label not
  /// on the engine's k symbols, and on a table-only family (no
  /// table-free router) that has no table answering the query.
  DistanceReply distance(const Permutation &Src,
                         const Permutation &Dst) const;

  /// A route Src -> Dst as generator indices; exact shortest when the
  /// reply says so, a valid bounded-slowdown route otherwise.
  RouteReply route(const Permutation &Src, const Permutation &Dst) const;

  /// Routes for relative labels \p Rel = Src^-1 o Dst directly -- the
  /// normalization route() performs internally -- into one flat arena.
  /// Vertex-transitive callers that already dedupe pairs by relative label
  /// (the comm drivers, via comm/LiftedRoutes.h) enter here and skip the
  /// per-pair inverse + compose. Chunked over the global ThreadPool (chunk
  /// boundaries depend only on the batch length), routes indexed like
  /// \p Rels and byte-identical at every thread count.
  RouteArena routeBatchRelative(std::span<const Permutation> Rels) const;

  /// Batched forms: chunked over the global ThreadPool (SCG_THREADS=1
  /// forces serial), replies indexed like \p Queries and byte-identical
  /// at every thread count.
  std::vector<DistanceReply>
  distanceBatch(std::span<const PairQuery> Queries) const;
  std::vector<RouteReply> routeBatch(std::span<const PairQuery> Queries) const;

  const SegmentCache &cache() const { return Cache; }
  void clearCache() const { Cache.clear(); }

  /// Publishes `query.{distance,route}.count`, `query.answers.{table,
  /// table_free}` counters plus the cache's `query.cache.*` telemetry.
  void publishMetrics(MetricsRegistry &M) const;

private:
  /// How table-free routes are computed for this family.
  enum class FreeRouter {
    None,       ///< no closed-form router; a table is required.
    StarGreedy, ///< optimal star routing (exact).
    BubbleSort, ///< adjacent-swap sort (exact, length = inversions).
    Rotator,    ///< insertion-sort routing (valid, not optimal).
    Lifted,     ///< Theorem 1-3 star-route lifting (valid, not optimal).
  };

  /// Queries answered by one batch chunk (or one scalar call), added to
  /// the shared atomics once per chunk so threads do not contend on them
  /// per query.
  struct Tally {
    uint64_t Distance = 0, Route = 0, Table = 0, TableFree = 0;
  };
  void flush(const Tally &T) const;
  void checkLabel(const Permutation &P) const;
  /// Src^-1 o Dst after checking both labels.
  Permutation relative(const Permutation &Src, const Permutation &Dst) const;

  DistanceReply distanceRel(const Permutation &Rel, Tally &T) const;
  RouteReply routeRel(const Permutation &Rel, Tally &T) const;
  std::vector<GenIndex> computeRouteRel(const Permutation &Rel,
                                        uint64_t Rank) const;
  std::vector<GenIndex> tableRouteRel(const Permutation &Rel,
                                      uint64_t Rank) const;
  std::vector<GenIndex> freeRouteRel(const Permutation &Rel) const;

  SuperCayleyGraph Net;
  std::shared_ptr<const TableStore> Table;
  mutable SegmentCache Cache;
  FreeRouter Router = FreeRouter::None;
  std::vector<Permutation> InvGens; ///< generator inverse actions.
  /// Star/rotator dimension -> generator index (index 0..k, dims 2-based;
  /// bubble-sort uses positions 1..k-1).
  std::vector<GenIndex> DimToGen;
  /// Lifted engines: per star dimension, the Theorem 1-3 template word.
  std::vector<std::vector<GenIndex>> DimTemplates;

  mutable std::atomic<uint64_t> DistanceQueries{0};
  mutable std::atomic<uint64_t> RouteQueries{0};
  mutable std::atomic<uint64_t> TableAnswers{0};
  mutable std::atomic<uint64_t> TableFreeAnswers{0};
};

} // namespace scg

#endif // SCG_QUERY_QUERYENGINE_H
