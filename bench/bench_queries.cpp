//===- bench/bench_queries.cpp - Query-serving throughput ----------------===//
//
// Experiment E25: routing-as-a-service throughput. The QueryEngine answers
// route and distance queries from the permutation labels alone -- no
// materialized graph -- so the measurements sweep the serving grid the
// subsystem exists for: {1, 2, 4, 8} threads x {cold, warm} segment cache
// x {table-backed, table-free} engines on star(8), plus the table-free
// scaling story at k = 10 and k = 12, where the graph (3.6M and 479M
// nodes) never exists in memory. BENCH_queries.json in the repo root
// records the committed snapshot.
//
// Modes:
//   (default)  human-readable table of all measurements
//   --json     machine-readable one-object JSON on stdout (for
//              BENCH_queries.json)
//   --smoke    bounded sizes + invariant gates, non-zero exit on failure;
//              wired into ctest under the perf-smoke and query labels:
//                * replies differentially pinned against ExplicitScg BFS
//                  distances at k = 7 (table-backed and table-free),
//                * warm-cache throughput >= cold-cache throughput,
//                * table-backed distance throughput >= table-free,
//                * batched parallel replies identical to serial ones.
//
// Thread counts are set explicitly per grid cell (the pool is rebuilt), so
// the same binary measures serial and parallel serving; every other bench
// convention (deterministic workloads, checksum columns) applies. On a
// single-core host the thread rows measure determinism and contention, not
// speedup.
//
//===----------------------------------------------------------------------===//

#include "query/QueryEngine.h"

#include "networks/Explicit.h"
#include "perm/Lehmer.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace scg;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// A deterministic uniform pair workload over S_k.
std::vector<PairQuery> makePairs(unsigned K, size_t Count, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  uint64_t N = factorial(K);
  std::vector<PairQuery> Queries;
  Queries.reserve(Count);
  for (size_t I = 0; I != Count; ++I)
    Queries.push_back({unrankPermutation(Rng.nextBelow(N), K),
                       unrankPermutation(Rng.nextBelow(N), K)});
  return Queries;
}

struct RunResult {
  double Ms = 0.0;
  uint64_t Check = 0; ///< sum of route lengths / distances (deterministic).
};

RunResult timeRoutes(const QueryEngine &Engine,
                     const std::vector<PairQuery> &Queries) {
  auto Start = Clock::now();
  std::vector<RouteReply> Replies = Engine.routeBatch(Queries);
  RunResult R;
  R.Ms = msSince(Start);
  for (const RouteReply &Reply : Replies)
    R.Check += Reply.length();
  return R;
}

RunResult timeDistances(const QueryEngine &Engine,
                        const std::vector<PairQuery> &Queries) {
  auto Start = Clock::now();
  std::vector<DistanceReply> Replies = Engine.distanceBatch(Queries);
  RunResult R;
  R.Ms = msSince(Start);
  for (const DistanceReply &Reply : Replies)
    R.Check += Reply.Distance;
  return R;
}

/// The grid and the warm-vs-cold gate measure the SegmentCache, which is
/// off by default; they opt in at its former default size.
QueryEngineOptions cached() {
  QueryEngineOptions Opts;
  Opts.CacheCapacity = 1 << 15;
  return Opts;
}

double qps(size_t Queries, double Ms) {
  return Ms > 0.0 ? double(Queries) * 1000.0 / Ms : 0.0;
}

/// One cell of the serving grid.
struct GridCell {
  unsigned Threads;
  bool Tabled;
  bool Warm;
  double Ms;
  double Qps;
  uint64_t Check;
};

/// Sweeps {threads} x {cold, warm} for one engine configuration. Cold runs
/// start from a cleared cache; the warm run reuses the cache the cold run
/// just filled.
void sweepGrid(const QueryEngine &Engine, bool Tabled,
               const std::vector<PairQuery> &Queries,
               const std::vector<unsigned> &ThreadCounts,
               std::vector<GridCell> &Out) {
  for (unsigned Threads : ThreadCounts) {
    setGlobalThreadCount(Threads);
    Engine.clearCache();
    RunResult Cold = timeRoutes(Engine, Queries);
    RunResult Warm = timeRoutes(Engine, Queries);
    Out.push_back({Threads, Tabled, false, Cold.Ms,
                   qps(Queries.size(), Cold.Ms), Cold.Check});
    Out.push_back({Threads, Tabled, true, Warm.Ms,
                   qps(Queries.size(), Warm.Ms), Warm.Check});
  }
  setGlobalThreadCount(0);
}

//===----------------------------------------------------------------------===//
// Smoke gates.
//===----------------------------------------------------------------------===//

int fail(const char *What) {
  std::fprintf(stderr, "SMOKE FAIL: %s\n", What);
  return 1;
}

/// Differential pin: both engines reproduce ExplicitScg BFS distances at
/// k = 7 (Cayley-normalized to an arbitrary source).
int smokeDifferential() {
  SuperCayleyGraph Net = SuperCayleyGraph::star(7);
  QueryEngine Free(Net);
  QueryEngine Tabled(Net);
  Tabled.attachTable(std::make_shared<TableStore>(TableStore::build(Net)));
  ExplicitScg Ex(Net);
  NodeId Src = NodeId(Ex.numNodes() / 3);
  BfsResult Truth = bfsExplicit(Ex, Src);
  Permutation SrcLabel = Ex.label(Src);
  for (uint64_t R = 0; R < Ex.numNodes(); R += 11) {
    Permutation Dst = unrankPermutation(R, 7);
    uint32_t Want = Truth.Distance[R];
    if (Free.distance(SrcLabel, Dst).Distance != Want)
      return fail("table-free star distance diverges from BFS at k=7");
    if (Tabled.distance(SrcLabel, Dst).Distance != Want)
      return fail("table-backed distance diverges from BFS at k=7");
    if (Tabled.route(SrcLabel, Dst).length() != Want)
      return fail("table-backed route length is not the exact distance");
  }
  return 0;
}

/// Throughput gates, best-of-N to shed scheduler noise: a warm cache must
/// not be slower than a cold one, and the table must not be slower than
/// the closed form it replaces.
int smokeThroughput() {
  SuperCayleyGraph Net = SuperCayleyGraph::star(7);
  std::vector<PairQuery> Queries = makePairs(7, 6000, /*Seed=*/11);
  QueryEngine Tabled(Net, cached());
  Tabled.attachTable(std::make_shared<TableStore>(TableStore::build(Net)));
  setGlobalThreadCount(1);

  double ColdMs = 1e300, WarmMs = 1e300;
  for (int Rep = 0; Rep != 5; ++Rep) {
    Tabled.clearCache();
    ColdMs = std::min(ColdMs, timeRoutes(Tabled, Queries).Ms);
    WarmMs = std::min(WarmMs, timeRoutes(Tabled, Queries).Ms);
  }
  if (WarmMs > ColdMs)
    return fail("warm-cache route serving slower than cold-cache");

  QueryEngine Free(Net);
  double TableMs = 1e300, FreeMs = 1e300;
  for (int Rep = 0; Rep != 5; ++Rep) {
    TableMs = std::min(TableMs, timeDistances(Tabled, Queries).Ms);
    FreeMs = std::min(FreeMs, timeDistances(Free, Queries).Ms);
  }
  setGlobalThreadCount(0);
  if (TableMs > FreeMs)
    return fail("table-backed distance serving slower than table-free");
  return 0;
}

/// Parallel batches must answer byte-identically to serial ones.
int smokeParallelIdentity() {
  for (bool UseTable : {false, true}) {
    SuperCayleyGraph Net = SuperCayleyGraph::star(6);
    QueryEngine Engine(Net);
    if (UseTable)
      Engine.attachTable(
          std::make_shared<TableStore>(TableStore::build(Net)));
    std::vector<PairQuery> Queries = makePairs(6, 2000, /*Seed=*/23);

    setGlobalThreadCount(1);
    std::vector<RouteReply> Serial = Engine.routeBatch(Queries);
    std::vector<DistanceReply> SerialDist = Engine.distanceBatch(Queries);
    for (unsigned Threads : {2u, 4u, 8u}) {
      setGlobalThreadCount(Threads);
      if (Engine.routeBatch(Queries) != Serial)
        return fail("parallel route batch diverges from serial");
      if (Engine.distanceBatch(Queries) != SerialDist)
        return fail("parallel distance batch diverges from serial");
    }
    setGlobalThreadCount(0);
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Reporting.
//===----------------------------------------------------------------------===//

const char *engineName(bool Tabled) {
  return Tabled ? "table" : "table_free";
}

void printHuman(const std::string &Network, size_t NumQueries,
                const std::vector<GridCell> &Grid,
                const std::vector<GridCell> &Scale) {
  std::printf("query serving on %s, %zu route queries per cell\n\n",
              Network.c_str(), NumQueries);
  TextTable T;
  T.setHeader({"engine", "cache", "threads", "ms", "qps", "check"});
  for (const GridCell &C : Grid)
    T.addRow({engineName(C.Tabled), C.Warm ? "warm" : "cold",
              std::to_string(C.Threads), formatDouble(C.Ms, 2),
              formatDouble(C.Qps, 0), std::to_string(C.Check)});
  std::printf("%s\n", T.render().c_str());

  if (!Scale.empty()) {
    std::printf("table-free scaling (graph never materialized)\n\n");
    TextTable S;
    S.setHeader({"k", "threads", "ms", "qps", "check"});
    for (const GridCell &C : Scale)
      S.addRow({std::to_string(C.Threads >> 8),
                std::to_string(C.Threads & 0xFF), formatDouble(C.Ms, 2),
                formatDouble(C.Qps, 0), std::to_string(C.Check)});
    std::printf("%s\n", S.render().c_str());
  }
}

} // namespace

int main(int argc, char **argv) {
  bool Json = false, Smoke = false;
  for (int I = 1; I != argc; ++I) {
    Json |= std::strcmp(argv[I], "--json") == 0;
    Smoke |= std::strcmp(argv[I], "--smoke") == 0;
  }

  if (Smoke) {
    if (int Rc = smokeDifferential())
      return Rc;
    if (int Rc = smokeParallelIdentity())
      return Rc;
    if (int Rc = smokeThroughput())
      return Rc;
  }

  // The serving grid: star(8) so the table build stays fast while routes
  // are long enough to time. Smoke mode bounds the workload.
  unsigned K = Smoke ? 7 : 8;
  size_t NumQueries = Smoke ? 6000 : 30000;
  SuperCayleyGraph Net = SuperCayleyGraph::star(K);
  std::vector<PairQuery> Queries = makePairs(K, NumQueries, /*Seed=*/7);
  std::vector<unsigned> ThreadCounts = {1, 2, 4, 8};

  std::vector<GridCell> Grid;
  QueryEngine Free(Net, cached());
  sweepGrid(Free, /*Tabled=*/false, Queries, ThreadCounts, Grid);
  auto Table = std::make_shared<TableStore>(TableStore::build(Net));
  QueryEngine Tabled(Net, cached());
  Tabled.attachTable(Table);
  sweepGrid(Tabled, /*Tabled=*/true, Queries, ThreadCounts, Grid);

  // Every cell answers the same workload; star serving is exact in both
  // engines, so all checksums must agree.
  for (const GridCell &C : Grid)
    if (C.Check != Grid.front().Check) {
      std::fprintf(stderr, "CHECK FAIL: grid cell disagrees on answers\n");
      return 1;
    }

  // Table-free scaling: route serving where the graph cannot exist. The
  // Threads field packs (k << 8 | threads) for the human printer.
  std::vector<GridCell> Scale;
  if (!Smoke) {
    for (unsigned BigK : {10u, 12u}) {
      std::vector<PairQuery> Big = makePairs(BigK, 20000, /*Seed=*/13);
      QueryEngine Engine(SuperCayleyGraph::star(BigK));
      for (unsigned Threads : {1u, 8u}) {
        setGlobalThreadCount(Threads);
        RunResult R = timeRoutes(Engine, Big);
        Scale.push_back({(BigK << 8) | Threads, false, false, R.Ms,
                         qps(Big.size(), R.Ms), R.Check});
      }
      setGlobalThreadCount(0);
    }
  }

  MetricsRegistry Metrics;
  Tabled.publishMetrics(Metrics);
  // The grid's cache counts depend on thread interleaving (two workers
  // missing one key both count a miss), so the query.cache.* block is
  // republished from one serial cold + warm pass on a fresh tabled
  // engine, which makes it a pure function of the workload.
  {
    QueryEngine Serial(Net, cached());
    Serial.attachTable(Table);
    setGlobalThreadCount(1);
    timeRoutes(Serial, Queries);
    timeRoutes(Serial, Queries);
    setGlobalThreadCount(0);
    Serial.cache().publish(Metrics);
  }

  if (Json) {
    JsonWriter W;
    W.beginObject()
        .field("bench", "queries")
        .field("network", Net.name())
        .field("route_queries", uint64_t(NumQueries))
        .field("smoke", Smoke);
    W.key("grid").beginArray();
    for (const GridCell &C : Grid) {
      W.beginObject()
          .field("engine", engineName(C.Tabled))
          .field("cache", C.Warm ? "warm" : "cold")
          .field("threads", C.Threads)
          .field("ms", C.Ms, 2)
          .field("qps", C.Qps, 0)
          .field("check", C.Check)
          .endObject();
    }
    W.endArray();
    W.key("table_free_scale").beginArray();
    for (const GridCell &C : Scale) {
      W.beginObject()
          .field("k", C.Threads >> 8)
          .field("threads", C.Threads & 0xFF)
          .field("ms", C.Ms, 2)
          .field("qps", C.Qps, 0)
          .field("check", C.Check)
          .endObject();
    }
    W.endArray();
    W.key("metrics").rawValue(Metrics.toJson());
    W.endObject();
    std::fputs(W.str().c_str(), stdout);
  } else {
    printHuman(Net.name(), NumQueries, Grid, Scale);
  }
  return 0;
}
