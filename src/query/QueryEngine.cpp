//===- query/QueryEngine.cpp - Table-free batched route serving ----------===//

#include "query/QueryEngine.h"

#include "emulation/SdcEmulation.h"
#include "graph/Bfs.h"
#include "perm/Lehmer.h"
#include "routing/RotatorRouter.h"
#include "routing/StarRouter.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <stdexcept>

using namespace scg;

namespace {

/// Finds the link of \p Net matching generator \p G, asserting presence
/// (the factories below only produce generators the family defines).
GenIndex requireLink(const SuperCayleyGraph &Net, const Generator &G) {
  std::optional<GenIndex> Index = Net.generators().findLink(G);
  assert(Index && "family generator is not a link of this network");
  return *Index;
}

/// Number of inversions of \p P: the exact bubble-sort-graph distance
/// (Coxeter length in the adjacent-transposition generators).
unsigned inversionCount(const Permutation &P) {
  unsigned Inv = 0;
  for (unsigned I = 0; I + 1 < P.size(); ++I)
    for (unsigned J = I + 1; J != P.size(); ++J)
      Inv += P[I] > P[J];
  return Inv;
}

[[noreturn]] void needTable(const SuperCayleyGraph &Net) {
  throw std::invalid_argument(
      Net.name() + " has no table-free router and no attached table "
                   "answers this query; attachTable() first");
}

} // namespace

bool QueryEngine::supportsTableFree(const SuperCayleyGraph &Net) {
  switch (Net.kind()) {
  case NetworkKind::BubbleSort:
  case NetworkKind::Rotator:
    return true;
  default:
    return supportsStarEmulation(Net);
  }
}

QueryEngine::QueryEngine(SuperCayleyGraph Network, QueryEngineOptions Opts)
    : Net(std::move(Network)), Cache(Opts.CacheCapacity, Opts.CacheShards) {
  unsigned K = Net.numSymbols();
  if (K > Permutation::InlineCapacity)
    throw std::invalid_argument(
        "the query engine serves the inline-label regime (k <= 16), not " +
        Net.name());
  InvGens.reserve(Net.generators().size());
  for (const Generator &G : Net.generators())
    InvGens.push_back(G.Sigma.inverse());

  switch (Net.kind()) {
  case NetworkKind::Star:
    Router = FreeRouter::StarGreedy;
    DimToGen.assign(K + 1, 0);
    for (unsigned J = 2; J <= K; ++J)
      DimToGen[J] = requireLink(Net, makeTransposition(K, J));
    break;
  case NetworkKind::BubbleSort:
    Router = FreeRouter::BubbleSort;
    DimToGen.assign(K, 0); // indexed by position 1..k-1.
    for (unsigned I = 1; I != K; ++I)
      DimToGen[I] = requireLink(Net, makeAdjacentTransposition(K, I));
    break;
  case NetworkKind::Rotator:
    Router = FreeRouter::Rotator;
    DimToGen.assign(K + 1, 0);
    for (unsigned J = 2; J <= K; ++J)
      DimToGen[J] = requireLink(Net, makeInsertion(K, J));
    break;
  default:
    if (supportsStarEmulation(Net)) {
      // Theorems 1-3: a fixed generator word per star dimension whose net
      // effect is T_j; lifting a star route concatenates the templates.
      Router = FreeRouter::Lifted;
      DimTemplates.resize(K + 1);
      for (unsigned J = 2; J <= K; ++J)
        DimTemplates[J] = starDimensionPath(Net, J).hops();
    } else {
      Router = FreeRouter::None; // table-only family (MR/RR/...).
    }
    break;
  }
}

void QueryEngine::attachTable(std::shared_ptr<const TableStore> NewTable) {
  if (!NewTable || !NewTable->covers(Net))
    throw std::invalid_argument("the table does not describe " + Net.name());
  Table = std::move(NewTable);
  // Cached routes were computed under the previous configuration; drop them
  // so every key's (Hops, Exact, FromTable) stays a pure function of the
  // current one.
  Cache.clear();
}

//===----------------------------------------------------------------------===//
// Serving: everything funnels through the relative label Rel = Src^-1 o Dst.
//===----------------------------------------------------------------------===//

void QueryEngine::checkLabel(const Permutation &P) const {
  if (P.size() != Net.numSymbols())
    throw std::invalid_argument("query label " + P.str() + " is not on the " +
                                std::to_string(Net.numSymbols()) +
                                " symbols of " + Net.name());
}

Permutation QueryEngine::relative(const Permutation &Src,
                                  const Permutation &Dst) const {
  checkLabel(Src);
  checkLabel(Dst);
  return Src.inverse().compose(Dst);
}

void QueryEngine::flush(const Tally &T) const {
  // Zero fields are skipped: a scalar call touches two counters, as before.
  auto Add = [](std::atomic<uint64_t> &C, uint64_t N) {
    if (N)
      C.fetch_add(N, std::memory_order_relaxed);
  };
  Add(DistanceQueries, T.Distance);
  Add(RouteQueries, T.Route);
  Add(TableAnswers, T.Table);
  Add(TableFreeAnswers, T.TableFree);
}

DistanceReply QueryEngine::distance(const Permutation &Src,
                                    const Permutation &Dst) const {
  Tally T{.Distance = 1};
  DistanceReply Reply = distanceRel(relative(Src, Dst), T);
  flush(T);
  return Reply;
}

RouteReply QueryEngine::route(const Permutation &Src,
                              const Permutation &Dst) const {
  Tally T{.Route = 1};
  RouteReply Reply = routeRel(relative(Src, Dst), T);
  flush(T);
  return Reply;
}

DistanceReply QueryEngine::distanceRel(const Permutation &Rel,
                                       Tally &T) const {
  if (Rel.isIdentity()) {
    ++T.TableFree;
    return {0, /*Exact=*/true, /*FromTable=*/false};
  }
  if (Table) {
    ++T.Table;
    uint8_t B = Table->distanceByRank(rankPermutation(Rel));
    uint32_t D = B == TableUnreachable ? UnreachableDistance : uint32_t(B);
    return {D, /*Exact=*/true, /*FromTable=*/true};
  }
  switch (Router) {
  case FreeRouter::StarGreedy:
    ++T.TableFree;
    return {starDistance(Rel), /*Exact=*/true, /*FromTable=*/false};
  case FreeRouter::BubbleSort:
    ++T.TableFree;
    return {inversionCount(Rel), /*Exact=*/true, /*FromTable=*/false};
  case FreeRouter::Rotator:
  case FreeRouter::Lifted: {
    // No closed-form distance: the route length is a certified upper bound.
    RouteReply R = routeRel(Rel, T);
    return {R.length(), /*Exact=*/false, /*FromTable=*/false};
  }
  case FreeRouter::None:
    break;
  }
  needTable(Net);
}

RouteReply QueryEngine::routeRel(const Permutation &Rel, Tally &T) const {
  RouteReply Reply;
  if (Rel.isIdentity()) {
    ++T.TableFree;
    Reply.Exact = true;
    return Reply;
  }
  // One rank of Rel serves the chase's first byte and the FromTable flag.
  const uint64_t Rank = Table ? rankPermutation(Rel) : 0;
  if (!Cache.lookup(Rel, Reply.Hops)) {
    Reply.Hops = computeRouteRel(Rel, Rank);
    Cache.insert(Rel, Reply.Hops);
  }
  // Flags are recomputed (never cached): each is a pure function of the key
  // and the engine configuration, so hit and miss replies stay identical.
  Reply.FromTable =
      Table && Reply.Hops.size() == size_t(Table->distanceByRank(Rank));
  Reply.Exact = Reply.FromTable || Router == FreeRouter::StarGreedy ||
                Router == FreeRouter::BubbleSort;
  ++(Reply.FromTable ? T.Table : T.TableFree);
  return Reply;
}

std::vector<GenIndex> QueryEngine::computeRouteRel(const Permutation &Rel,
                                                   uint64_t Rank) const {
  if (Table) {
    std::vector<GenIndex> Hops = tableRouteRel(Rel, Rank);
    if (!Hops.empty())
      return Hops;
    // The chase failed (a faulted-graph table can leave the target
    // unreachable or strand the walk): serve a closed-form route over the
    // unfaulted network when the family has one.
  }
  return freeRouteRel(Rel);
}

/// Exact shortest route by chasing the table's first-hop row: at remaining
/// relative R (rank \p Rank) at distance D the row names the lowest
/// generator g with d(id, g^-1 o R) == D - 1 -- the one greedy distance
/// descent picks -- so D hops reach the identity, at one rank per hop.
/// Empty when the row strands the chase.
std::vector<GenIndex> QueryEngine::tableRouteRel(const Permutation &Rel,
                                                 uint64_t Rank) const {
  std::vector<GenIndex> Hops;
  const uint8_t D = Table->distanceByRank(Rank);
  if (D == TableUnreachable || D == 0) // 0: a hand-edited row; Rel != id.
    return Hops;
  Hops.reserve(D);
  Permutation R = Rel, Next;
  for (;;) {
    const uint8_t G = Table->firstHopByRank(Rank);
    if (G == TableNoHop)
      return {};
    Hops.push_back(G);
    InvGens[G].composeInto(R, Next); // R after hopping along G.
    std::swap(R, Next);
    if (Hops.size() == D)
      break;
    Rank = rankPermutation(R);
  }
  // Only a row inconsistent with Net (hand-edited, not a BFS row) ends D
  // hops away from the identity.
  if (!R.isIdentity())
    Hops.clear();
  return Hops;
}

std::vector<GenIndex>
QueryEngine::freeRouteRel(const Permutation &Rel) const {
  std::vector<GenIndex> Hops;
  switch (Router) {
  case FreeRouter::StarGreedy: {
    // T_{j1} o ... o T_{jm} = Rel, m minimal (Akers-Krishnamurthy).
    for (unsigned J : starWordForPermutation(Rel))
      Hops.push_back(DimToGen[J]);
    return Hops;
  }
  case FreeRouter::BubbleSort: {
    // Bubble-sort the one-line word; each adjacent swap of an inversion is
    // a right-composition with A_i, so Rel o A_{i1} o ... o A_{im} = id and
    // Rel = A_{im} o ... o A_{i1}: emit the swaps in reverse. m is the
    // inversion count, the exact distance.
    std::vector<uint8_t> W = Rel.oneLineVector();
    std::vector<unsigned> Swaps;
    for (bool Swapped = true; Swapped;) {
      Swapped = false;
      for (unsigned I = 0; I + 1 < W.size(); ++I)
        if (W[I] > W[I + 1]) {
          std::swap(W[I], W[I + 1]);
          Swaps.push_back(I + 1);
          Swapped = true;
        }
    }
    for (auto It = Swaps.rbegin(); It != Swaps.rend(); ++It)
      Hops.push_back(DimToGen[*It]);
    return Hops;
  }
  case FreeRouter::Rotator: {
    // I_{i1} o I_{i2} o ... = Rel (insertion sort; valid, not optimal).
    for (unsigned J : rotatorWordForPermutation(Rel))
      Hops.push_back(DimToGen[J]);
    return Hops;
  }
  case FreeRouter::Lifted: {
    // Lift the shortest star route through the Theorems 1-3 templates.
    for (unsigned J : starWordForPermutation(Rel))
      Hops.insert(Hops.end(), DimTemplates[J].begin(), DimTemplates[J].end());
    return Hops;
  }
  case FreeRouter::None:
    break;
  }
  needTable(Net);
}

//===----------------------------------------------------------------------===//
// Batch serving.
//===----------------------------------------------------------------------===//

std::vector<DistanceReply>
QueryEngine::distanceBatch(std::span<const PairQuery> Queries) const {
  std::vector<DistanceReply> Replies(Queries.size());
  ThreadPool::global().parallelForChunks(
      0, Queries.size(), /*ChunkSize=*/0, [&](uint64_t B, uint64_t E) {
        Tally T{.Distance = E - B};
        for (uint64_t I = B; I != E; ++I) {
          const PairQuery &Q = Queries[I];
          Replies[I] = distanceRel(relative(Q.Src, Q.Dst), T);
        }
        flush(T);
      });
  return Replies;
}

std::vector<RouteReply>
QueryEngine::routeBatch(std::span<const PairQuery> Queries) const {
  std::vector<RouteReply> Replies(Queries.size());
  ThreadPool::global().parallelForChunks(
      0, Queries.size(), /*ChunkSize=*/0, [&](uint64_t B, uint64_t E) {
        Tally T{.Route = E - B};
        for (uint64_t I = B; I != E; ++I) {
          const PairQuery &Q = Queries[I];
          Replies[I] = routeRel(relative(Q.Src, Q.Dst), T);
        }
        flush(T);
      });
  return Replies;
}

RouteArena
QueryEngine::routeBatchRelative(std::span<const Permutation> Rels) const {
  const uint64_t N = Rels.size();
  RouteArena Out;
  Out.Offsets.push_back(0);
  if (N == 0)
    return Out;

  // Per-chunk arenas stitched in chunk-index order: chunk boundaries are a
  // function of N only (never the thread count), so the arena is
  // byte-identical at every SCG_THREADS setting, and the batch makes
  // O(chunks) transient allocations instead of O(N) route vectors.
  const uint64_t Chunk = ThreadPool::defaultChunkSize(N);
  const uint64_t NumChunks = (N + Chunk - 1) / Chunk;
  std::vector<RouteArena> Parts(NumChunks);
  ThreadPool::global().parallelForChunks(
      0, N, Chunk, [&](uint64_t B, uint64_t E) {
        RouteArena &P = Parts[B / Chunk];
        P.Offsets.reserve(E - B + 1);
        P.Offsets.push_back(0);
        Tally T{.Route = E - B};
        for (uint64_t I = B; I != E; ++I) {
          checkLabel(Rels[I]);
          RouteReply R = routeRel(Rels[I], T);
          P.Hops.insert(P.Hops.end(), R.Hops.begin(), R.Hops.end());
          P.Offsets.push_back(uint32_t(P.Hops.size()));
        }
        flush(T);
      });

  size_t TotalHops = 0;
  for (const RouteArena &P : Parts)
    TotalHops += P.Hops.size();
  Out.Hops.reserve(TotalHops);
  Out.Offsets.reserve(N + 1);
  for (const RouteArena &P : Parts) {
    uint32_t Base = uint32_t(Out.Hops.size());
    Out.Hops.insert(Out.Hops.end(), P.Hops.begin(), P.Hops.end());
    for (size_t I = 1; I < P.Offsets.size(); ++I)
      Out.Offsets.push_back(Base + P.Offsets[I]);
  }
  return Out;
}

void QueryEngine::publishMetrics(MetricsRegistry &M) const {
  M.counter("query.distance.count")
      .set(double(DistanceQueries.load(std::memory_order_relaxed)));
  M.counter("query.route.count")
      .set(double(RouteQueries.load(std::memory_order_relaxed)));
  M.counter("query.answers.table")
      .set(double(TableAnswers.load(std::memory_order_relaxed)));
  M.counter("query.answers.table_free")
      .set(double(TableFreeAnswers.load(std::memory_order_relaxed)));
  Cache.publish(M);
}
