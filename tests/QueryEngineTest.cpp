//===- tests/QueryEngineTest.cpp - Query subsystem differential tests ----===//
//
// Pins the query subsystem against the ground-truth engines: table-free
// rank-space serving must reproduce ExplicitScg BFS distances and
// StarRouter/ScgRouter path lengths on every supported family, the
// TableStore's rows must match a scalar BFS row and the per-hop greedy
// descent scan, the TableStore must round-trip through its binary format
// (including a cross-process writer/reader split over mmap) and reject
// corrupt files, batched parallel serving must be byte-identical to
// serial, and inputs the engine cannot serve must throw.
//
//===----------------------------------------------------------------------===//

#include "query/QueryEngine.h"

#include "ReferenceMetrics.h"

#include "emulation/ScgRouter.h"
#include "emulation/SdcEmulation.h"
#include "networks/Explicit.h"
#include "perm/Lehmer.h"
#include "routing/StarRouter.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <sys/wait.h>
#include <unistd.h>

using namespace scg;

namespace {

struct QueryParams {
  NetworkKind Kind;
  unsigned L, N;
};

/// The family sweep (L * N + 1 symbols).
const QueryParams FamilyParams[] = {
    {NetworkKind::Star, 5, 1},
    {NetworkKind::Star, 6, 1},
    {NetworkKind::BubbleSort, 5, 1},
    {NetworkKind::BubbleSort, 6, 1},
    {NetworkKind::Transposition, 5, 1},
    {NetworkKind::Rotator, 5, 1},
    {NetworkKind::Rotator, 6, 1},
    {NetworkKind::InsertionSelection, 5, 1},
    {NetworkKind::MacroStar, 2, 2},
    {NetworkKind::RotationStar, 2, 2},
    {NetworkKind::CompleteRotationStar, 2, 2},
    {NetworkKind::MacroIS, 2, 2},
    {NetworkKind::RotationIS, 2, 2},
    {NetworkKind::CompleteRotationIS, 2, 2},
    {NetworkKind::MacroRotator, 2, 2},
    {NetworkKind::RotationRotator, 2, 2},
    {NetworkKind::CompleteRotationRotator, 2, 2},
};

SuperCayleyGraph makeNetwork(const QueryParams &P) {
  switch (P.Kind) {
  case NetworkKind::Star:
    return SuperCayleyGraph::star(P.L * P.N + 1);
  case NetworkKind::BubbleSort:
    return SuperCayleyGraph::bubbleSort(P.L * P.N + 1);
  case NetworkKind::Transposition:
    return SuperCayleyGraph::transpositionNetwork(P.L * P.N + 1);
  case NetworkKind::Rotator:
    return SuperCayleyGraph::rotator(P.L * P.N + 1);
  case NetworkKind::InsertionSelection:
    return SuperCayleyGraph::insertionSelection(P.L * P.N + 1);
  default:
    return SuperCayleyGraph::create(P.Kind, P.L, P.N);
  }
}

std::string queryName(const testing::TestParamInfo<QueryParams> &Info) {
  std::string Name = networkKindName(Info.param.Kind) + "_" +
                     std::to_string(Info.param.L) + "_" +
                     std::to_string(Info.param.N);
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

/// Walks \p Hops from \p Src and checks the endpoint is \p Dst: every reply
/// must be a real route regardless of which engine produced it.
void expectValidRoute(const SuperCayleyGraph &Net, const Permutation &Src,
                      const Permutation &Dst,
                      const std::vector<GenIndex> &Hops) {
  Permutation Cur = Src;
  for (GenIndex G : Hops) {
    ASSERT_LT(G, Net.generators().size());
    Net.neighborInto(Cur, G, Cur);
  }
  EXPECT_EQ(Cur, Dst);
}

/// Sampled destination ranks: identity, last, and a deterministic stride.
std::vector<uint64_t> sampleRanks(uint64_t Count, uint64_t Samples) {
  std::vector<uint64_t> Ranks = {0, Count - 1};
  uint64_t Stride = std::max<uint64_t>(1, Count / Samples);
  for (uint64_t R = 1; R + 1 < Count; R += Stride)
    Ranks.push_back(R);
  return Ranks;
}

std::string tempPath(const std::string &Leaf) {
  return testing::TempDir() + "/" + Leaf;
}

class QueryEngineFamilyTest : public testing::TestWithParam<QueryParams> {};

} // namespace

//===----------------------------------------------------------------------===//
// Differential: table-free serving vs BFS / StarRouter ground truth.
//===----------------------------------------------------------------------===//

TEST_P(QueryEngineFamilyTest, TableFreeMatchesBfs) {
  SuperCayleyGraph Net = makeNetwork(GetParam());
  if (!QueryEngine::supportsTableFree(Net))
    GTEST_SKIP() << Net.name() << " is table-only";
  QueryEngine Engine(Net);
  ExplicitScg Ex(Net);
  BfsResult FromId = bfsExplicit(Ex, 0);
  Permutation Id = Permutation::identity(Net.numSymbols());

  for (uint64_t R : sampleRanks(Ex.numNodes(), 120)) {
    Permutation Dst = unrankPermutation(R, Net.numSymbols());
    DistanceReply D = Engine.distance(Id, Dst);
    RouteReply Route = Engine.route(Id, Dst);
    EXPECT_FALSE(D.FromTable);
    // Every reply is a valid route whose length matches the distance
    // answer; Exact replies must equal the BFS distance, inexact ones
    // bound it from above.
    expectValidRoute(Net, Id, Dst, Route.Hops);
    EXPECT_EQ(D.Distance, Route.length());
    EXPECT_GE(D.Distance, FromId.Distance[R]);
    if (D.Exact) {
      EXPECT_EQ(D.Distance, FromId.Distance[R]);
    }
    EXPECT_EQ(D.Exact, Route.Exact);
  }
}

TEST_P(QueryEngineFamilyTest, TableFreeArbitrarySources) {
  SuperCayleyGraph Net = makeNetwork(GetParam());
  if (!QueryEngine::supportsTableFree(Net))
    GTEST_SKIP() << Net.name() << " is table-only";
  QueryEngine Engine(Net);
  ExplicitScg Ex(Net);
  // Cayley normalization: d(Src, Dst) must match a BFS rooted at Src, not
  // just at the identity.
  NodeId SrcRank = NodeId(Ex.numNodes() / 3);
  BfsResult FromSrc = bfsExplicit(Ex, SrcRank);
  Permutation Src = Ex.label(SrcRank);

  for (uint64_t R : sampleRanks(Ex.numNodes(), 60)) {
    Permutation Dst = unrankPermutation(R, Net.numSymbols());
    DistanceReply D = Engine.distance(Src, Dst);
    RouteReply Route = Engine.route(Src, Dst);
    expectValidRoute(Net, Src, Dst, Route.Hops);
    EXPECT_GE(D.Distance, FromSrc.Distance[R]);
    if (D.Exact) {
      EXPECT_EQ(D.Distance, FromSrc.Distance[R]);
    }
  }
}

//===----------------------------------------------------------------------===//
// Differential: table-backed serving is exact on EVERY family.
//===----------------------------------------------------------------------===//

TEST_P(QueryEngineFamilyTest, TableBackedIsExact) {
  SuperCayleyGraph Net = makeNetwork(GetParam());
  QueryEngine Engine(Net);
  Engine.attachTable(std::make_shared<TableStore>(TableStore::build(Net)));
  ASSERT_TRUE(Engine.tableBacked());
  ExplicitScg Ex(Net);
  NodeId SrcRank = NodeId(Ex.numNodes() / 5);
  BfsResult FromSrc = bfsExplicit(Ex, SrcRank);
  Permutation Src = Ex.label(SrcRank);

  for (uint64_t R : sampleRanks(Ex.numNodes(), 120)) {
    if (R == SrcRank)
      continue; // the identity reply is trivially exact, not table-sourced.
    Permutation Dst = unrankPermutation(R, Net.numSymbols());
    DistanceReply D = Engine.distance(Src, Dst);
    RouteReply Route = Engine.route(Src, Dst);
    EXPECT_TRUE(D.Exact);
    EXPECT_TRUE(D.FromTable);
    EXPECT_EQ(D.Distance, FromSrc.Distance[R]);
    EXPECT_TRUE(Route.Exact);
    EXPECT_TRUE(Route.FromTable);
    EXPECT_EQ(Route.length(), FromSrc.Distance[R]);
    expectValidRoute(Net, Src, Dst, Route.Hops);
  }
}

TEST(QueryEngineTest, StarSevenMatchesStarRouter) {
  // The acceptance pin: star(7) distances byte-identical to the closed form
  // and to the table, routes matching StarRouter hop counts.
  SuperCayleyGraph Net = SuperCayleyGraph::star(7);
  QueryEngine Free(Net);
  QueryEngine Tabled(Net);
  Tabled.attachTable(std::make_shared<TableStore>(TableStore::build(Net)));
  Permutation Id = Permutation::identity(7);
  for (uint64_t R : sampleRanks(factorial(7), 400)) {
    Permutation Dst = unrankPermutation(R, 7);
    unsigned Want = starDistance(Id, Dst);
    EXPECT_EQ(Free.distance(Id, Dst).Distance, Want);
    EXPECT_EQ(Tabled.distance(Id, Dst).Distance, Want);
    EXPECT_EQ(Free.route(Id, Dst).length(),
              starRouteDimensions(Id, Dst).size());
    EXPECT_EQ(Tabled.route(Id, Dst).length(), Want);
  }
}

TEST(QueryEngineTest, BatchedRoutesMatchScalarRouterOnEveryLabel) {
  // The comm drivers take every route from a routeBatchRelative batch
  // (comm/LiftedRoutes.h); the scalar star-emulation router is the oracle.
  // Every relative label of every star-emulating family with k <= 6 must
  // get the same route hop for hop.
  unsigned Families = 0;
  for (const QueryParams &P : FamilyParams) {
    SuperCayleyGraph Net = makeNetwork(P);
    unsigned K = Net.numSymbols();
    if (!supportsStarEmulation(Net) || K > 6)
      continue;
    ++Families;
    std::vector<Permutation> Rels;
    for (uint64_t R = 0; R != factorial(K); ++R)
      Rels.push_back(unrankPermutation(R, K));
    RouteArena Arena = QueryEngine(Net).routeBatchRelative(Rels);
    ASSERT_EQ(Arena.size(), Rels.size()) << Net.name();
    Permutation Id = Permutation::identity(K);
    for (size_t I = 0; I != Rels.size(); ++I) {
      std::vector<GenIndex> Want =
          routeViaStarEmulation(Net, Id, Rels[I]).hops();
      std::span<const GenIndex> Got = Arena.route(I);
      ASSERT_TRUE(std::equal(Got.begin(), Got.end(), Want.begin(), Want.end()))
          << Net.name() << " label rank " << I;
    }
  }
  EXPECT_EQ(Families, 9u); // star(6), TN(6), IS(6) and the six SCG classes.
}

TEST(QueryEngineTest, LiftedRouteWithinSlowdownBound) {
  // Theorems 1-3: lifted routes are at most slowdown * starDistance.
  for (QueryParams P : {QueryParams{NetworkKind::MacroStar, 2, 2},
                        QueryParams{NetworkKind::MacroIS, 2, 2},
                        QueryParams{NetworkKind::CompleteRotationStar, 2, 2}}) {
    SuperCayleyGraph Net = makeNetwork(P);
    QueryEngine Engine(Net);
    unsigned Bound = paperSdcSlowdownBound(Net);
    Permutation Id = Permutation::identity(Net.numSymbols());
    for (uint64_t R : sampleRanks(Net.numNodes(), 60)) {
      Permutation Dst = unrankPermutation(R, Net.numSymbols());
      EXPECT_LE(Engine.route(Id, Dst).length(),
                Bound * starDistance(Id, Dst));
    }
  }
}

//===----------------------------------------------------------------------===//
// Batched serving: parallel == serial, cache state never changes answers.
//===----------------------------------------------------------------------===//

namespace {

/// Serving is uncached by default; tests of the cache opt in.
QueryEngineOptions cached() {
  QueryEngineOptions Opts;
  Opts.CacheCapacity = 1 << 15;
  return Opts;
}

std::vector<PairQuery> makeWorkload(const SuperCayleyGraph &Net,
                                    size_t Count) {
  std::vector<PairQuery> Queries;
  uint64_t Nodes = Net.numNodes();
  for (size_t I = 0; I != Count; ++I) {
    // Deterministic spread with repeats, so the cache sees hits.
    uint64_t S = (I * 2654435761u) % Nodes;
    uint64_t D = (I * 40503u + 17) % Nodes;
    Queries.push_back({unrankPermutation(S, Net.numSymbols()),
                       unrankPermutation(D, Net.numSymbols())});
  }
  return Queries;
}

} // namespace

TEST(QueryEngineParallelTest, BatchedAnswersAreThreadCountInvariant) {
  for (QueryParams P : {QueryParams{NetworkKind::Star, 6, 1},
                        QueryParams{NetworkKind::MacroStar, 2, 2},
                        QueryParams{NetworkKind::Rotator, 5, 1}}) {
    SuperCayleyGraph Net = makeNetwork(P);
    std::vector<PairQuery> Queries = makeWorkload(Net, 600);

    setGlobalThreadCount(1);
    QueryEngine Serial(Net);
    std::vector<DistanceReply> SerialDist = Serial.distanceBatch(Queries);
    std::vector<RouteReply> SerialRoutes = Serial.routeBatch(Queries);

    for (unsigned Threads : {2u, 4u, 8u}) {
      setGlobalThreadCount(Threads);
      QueryEngine Par(Net, cached());
      EXPECT_EQ(Par.distanceBatch(Queries), SerialDist) << Net.name();
      EXPECT_EQ(Par.routeBatch(Queries), SerialRoutes) << Net.name();
      // A warm cache must not change a single reply either.
      EXPECT_EQ(Par.routeBatch(Queries), SerialRoutes) << Net.name();
    }
    setGlobalThreadCount(0);
  }
}

TEST(QueryEngineParallelTest, TableBackedBatchThreadCountInvariant) {
  SuperCayleyGraph Net = SuperCayleyGraph::create(NetworkKind::MacroRotator,
                                                  2, 2);
  auto Table = std::make_shared<TableStore>(TableStore::build(Net));
  std::vector<PairQuery> Queries = makeWorkload(Net, 400);

  setGlobalThreadCount(1);
  QueryEngine Serial(Net);
  Serial.attachTable(Table);
  std::vector<RouteReply> Want = Serial.routeBatch(Queries);

  setGlobalThreadCount(4);
  QueryEngine Par(Net, cached());
  Par.attachTable(Table);
  EXPECT_EQ(Par.routeBatch(Queries), Want);
  // Warm: cache hits recompute FromTable from the table and must not change
  // a single reply either.
  const uint64_t ColdHits = Par.cache().totals().Hits;
  EXPECT_EQ(Par.routeBatch(Queries), Want);
  EXPECT_GE(Par.cache().totals().Hits, ColdHits + Queries.size() / 2);
  setGlobalThreadCount(0);
}

//===----------------------------------------------------------------------===//
// Cache behavior and metrics plumbing.
//===----------------------------------------------------------------------===//

TEST(QueryEngineTest, CacheHitsOnRepeatsAndNeverChangesAnswers) {
  SuperCayleyGraph Net = SuperCayleyGraph::star(6);
  QueryEngine Engine(Net, cached());
  Permutation Id = Permutation::identity(6);
  Permutation Dst = unrankPermutation(123, 6);

  RouteReply Cold = Engine.route(Id, Dst);
  SegmentCacheStats After = Engine.cache().totals();
  EXPECT_EQ(After.Hits, 0u);
  EXPECT_EQ(After.Misses, 1u);
  EXPECT_EQ(After.Insertions, 1u);

  RouteReply Warm = Engine.route(Id, Dst);
  EXPECT_EQ(Warm, Cold);
  EXPECT_EQ(Engine.cache().totals().Hits, 1u);

  // Same relative label from a different source pair: still one cache key.
  Permutation Src2 = unrankPermutation(77, 6);
  RouteReply Shifted = Engine.route(Src2, Src2.compose(Id.inverse().compose(Dst)));
  EXPECT_EQ(Shifted.Hops, Cold.Hops);
  EXPECT_EQ(Engine.cache().totals().Hits, 2u);

  Engine.clearCache();
  EXPECT_EQ(Engine.cache().size(), 0u);
  EXPECT_EQ(Engine.route(Id, Dst), Cold);
}

TEST(QueryEngineTest, CacheEvictsAtCapacityAndDisabledCacheStillServes) {
  SuperCayleyGraph Net = SuperCayleyGraph::star(6);
  QueryEngineOptions Tiny;
  Tiny.CacheCapacity = 8;
  Tiny.CacheShards = 2;
  QueryEngine Small(Net, Tiny);
  QueryEngineOptions Off;
  Off.CacheCapacity = 0;
  QueryEngine Uncached(Net, Off);
  EXPECT_FALSE(Uncached.cache().enabled());

  Permutation Id = Permutation::identity(6);
  for (uint64_t R = 1; R <= 200; ++R) {
    Permutation Dst = unrankPermutation(R, 6);
    EXPECT_EQ(Small.route(Id, Dst).Hops, Uncached.route(Id, Dst).Hops);
  }
  EXPECT_LE(Small.cache().size(), Tiny.CacheCapacity);
  EXPECT_GT(Small.cache().totals().Evictions, 0u);
  EXPECT_EQ(Uncached.cache().size(), 0u);
}

TEST(QueryEngineTest, PublishesQueryMetrics) {
  SuperCayleyGraph Net = SuperCayleyGraph::star(5);
  QueryEngine Engine(Net, cached());
  Permutation Id = Permutation::identity(5);
  Permutation Dst = unrankPermutation(42, 5);
  Engine.distance(Id, Dst);
  Engine.route(Id, Dst);
  Engine.route(Id, Dst);

  MetricsRegistry M;
  Engine.publishMetrics(M);
  EXPECT_EQ(M.find("query.distance.count")->value(), 1.0);
  EXPECT_EQ(M.find("query.route.count")->value(), 2.0);
  EXPECT_EQ(M.find("query.cache.hits")->value(), 1.0);
  EXPECT_EQ(M.find("query.cache.misses")->value(), 1.0);
  EXPECT_EQ(M.find("query.cache.hit_rate")->value(), 0.5);
  ASSERT_NE(M.find("query.cache.shard0.hit_rate"), nullptr);
  EXPECT_EQ(M.find("query.answers.table")->value(), 0.0);
  EXPECT_GT(M.find("query.answers.table_free")->value(), 0.0);
}

TEST(QueryEngineParallelTest, ChunkTalliesCountEveryQuery) {
  // Counters are tallied per batch chunk and added once per chunk; every
  // chunk must land, at any thread count.
  SuperCayleyGraph Net = SuperCayleyGraph::star(6);
  std::vector<PairQuery> Queries = makeWorkload(Net, 5000);
  std::vector<Permutation> Rels;
  for (const PairQuery &Q : Queries)
    Rels.push_back(Q.Src.inverse().compose(Q.Dst));
  for (unsigned Threads : {1u, 4u}) {
    setGlobalThreadCount(Threads);
    QueryEngine Engine(Net);
    Engine.distanceBatch(Queries);
    Engine.routeBatch(Queries);
    Engine.routeBatchRelative(Rels);
    Engine.route(Queries[0].Src, Queries[0].Dst);
    MetricsRegistry M;
    Engine.publishMetrics(M);
    EXPECT_EQ(M.find("query.distance.count")->value(), 5000.0);
    EXPECT_EQ(M.find("query.route.count")->value(), 10001.0);
    EXPECT_EQ(M.find("query.answers.table")->value() +
                  M.find("query.answers.table_free")->value(),
              15001.0);
  }
  setGlobalThreadCount(0);
}

//===----------------------------------------------------------------------===//
// TableStore: format round trip, mmap sharing, corruption rejection.
//===----------------------------------------------------------------------===//

TEST(TableStoreTest, SaveLoadRoundTrip) {
  SuperCayleyGraph Net = SuperCayleyGraph::star(6);
  TableStore Built = TableStore::build(Net);
  std::string Path = tempPath("star6.scgtbl");
  Built.save(Path);

  TableStore Loaded = TableStore::load(Path);
  EXPECT_TRUE(Loaded.isMapped());
  EXPECT_FALSE(Built.isMapped());
  EXPECT_TRUE(Loaded.covers(Net));
  EXPECT_EQ(Loaded.numNodes(), factorial(6));
  EXPECT_EQ(Loaded.degree(), Net.degree());
  for (uint64_t R = 0; R != Loaded.numNodes(); ++R) {
    EXPECT_EQ(Loaded.distanceByRank(R), Built.distanceByRank(R));
    EXPECT_EQ(Loaded.firstHopByRank(R), Built.firstHopByRank(R));
  }
  std::remove(Path.c_str());
}

TEST(TableStoreTest, CrossProcessWriterReaderSplit) {
  // The multi-process contract: one process serializes, another mmaps the
  // file read-only and serves exact answers from it.
  SuperCayleyGraph Net = SuperCayleyGraph::bubbleSort(5);
  TableStore Built = TableStore::build(Net);
  std::string Path = tempPath("bubble5.scgtbl");
  Built.save(Path);

  pid_t Child = fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // Reader process: load, spot-check against nothing but the format.
    try {
      TableStore Loaded = TableStore::load(Path);
      bool Ok = Loaded.isMapped() && Loaded.covers(Net) &&
                Loaded.numNodes() == factorial(5) &&
                Loaded.distanceByRank(0) == 0;
      for (uint64_t R = 0; Ok && R != Loaded.numNodes(); ++R)
        Ok = Loaded.distanceByRank(R) == Built.distanceByRank(R);
      _exit(Ok ? 0 : 1);
    } catch (const TableStoreError &) {
      _exit(2);
    }
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Child, &Status, 0), Child);
  EXPECT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  std::remove(Path.c_str());
}

namespace {

std::vector<char> readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return {std::istreambuf_iterator<char>(In), {}};
}

void writeAll(const std::string &Path, const std::vector<char> &Bytes,
              size_t Count) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), std::streamsize(Count));
}

/// Rewrites the header's payload checksum (FNV-1a 64 over both rows) so a
/// deliberately edited payload gets past the bit-rot check.
void resealChecksum(std::vector<char> &Bytes) {
  uint64_t H = 1469598103934665603ULL;
  for (size_t I = 56; I != Bytes.size(); ++I) {
    H ^= uint8_t(Bytes[I]);
    H *= 1099511628211ULL;
  }
  std::memcpy(Bytes.data() + 40, &H, sizeof(H));
}

void expectLoadFails(const std::string &Path, const std::string &Needle) {
  try {
    TableStore T = TableStore::load(Path);
    FAIL() << "load of " << Path << " should have thrown";
  } catch (const TableStoreError &E) {
    EXPECT_NE(std::string(E.what()).find(Needle), std::string::npos)
        << "message was: " << E.what();
  }
}

} // namespace

TEST(TableStoreTest, RejectsCorruptFiles) {
  SuperCayleyGraph Net = SuperCayleyGraph::star(5);
  std::string Good = tempPath("good.scgtbl");
  TableStore::build(Net).save(Good);
  std::vector<char> Bytes = readAll(Good);
  ASSERT_EQ(Bytes.size(), 56u + 2 * factorial(5));
  std::string Bad = tempPath("bad.scgtbl");

  // Shorter than the header.
  writeAll(Bad, Bytes, 20);
  expectLoadFails(Bad, "smaller than the header");

  // Payload cut off mid-row.
  writeAll(Bad, Bytes, Bytes.size() - 10);
  expectLoadFails(Bad, "truncated payload");

  // Junk appended after the payload.
  {
    std::vector<char> Long = Bytes;
    Long.push_back('x');
    writeAll(Bad, Long, Long.size());
    expectLoadFails(Bad, "trailing garbage");
  }

  // A single flipped payload bit must fail the checksum.
  {
    std::vector<char> Flipped = Bytes;
    Flipped[56 + 40] ^= 0x10;
    writeAll(Bad, Flipped, Flipped.size());
    expectLoadFails(Bad, "checksum mismatch");
  }

  // Wrong magic: not one of our files at all.
  {
    std::vector<char> Foreign = Bytes;
    Foreign[0] = 'X';
    writeAll(Bad, Foreign, Foreign.size());
    expectLoadFails(Bad, "bad magic");
  }

  // Byte-swapped endianness probe, as a big-endian writer would produce.
  {
    std::vector<char> Swapped = Bytes;
    std::swap(Swapped[8], Swapped[11]);
    std::swap(Swapped[9], Swapped[10]);
    writeAll(Bad, Swapped, Swapped.size());
    expectLoadFails(Bad, "foreign-endian");
  }

  // Future format version.
  {
    std::vector<char> Versioned = Bytes;
    Versioned[12] = 9;
    writeAll(Bad, Versioned, Versioned.size());
    expectLoadFails(Bad, "version");
  }

  // A version-1 file (distance row only) predates the first-hop row.
  {
    std::vector<char> V1(Bytes.begin(), Bytes.end() - factorial(5));
    V1[12] = 1;
    writeAll(Bad, V1, V1.size());
    expectLoadFails(Bad, "unsupported format version 1");
  }

  // A first-hop byte naming no generator, behind a valid checksum: star(5)
  // has degree 4, so 4 is out of range (0xFF is "no hop" and loads).
  {
    std::vector<char> BadHop = Bytes;
    BadHop[56 + factorial(5) + 7] = 4;
    resealChecksum(BadHop);
    writeAll(Bad, BadHop, BadHop.size());
    expectLoadFails(Bad, "names no generator");
    BadHop[56 + factorial(5) + 7] = char(TableNoHop);
    resealChecksum(BadHop);
    writeAll(Bad, BadHop, BadHop.size());
    EXPECT_NO_THROW(TableStore::load(Bad));
  }

  // Header k / node-count disagreement.
  {
    std::vector<char> Mismatched = Bytes;
    Mismatched[28] = 7; // claims k = 7 but count stays 5!.
    writeAll(Bad, Mismatched, Mismatched.size());
    expectLoadFails(Bad, "does not match k!");
  }

  // The untouched original still loads after all that.
  EXPECT_NO_THROW(TableStore::load(Good));
  std::remove(Good.c_str());
  std::remove(Bad.c_str());

  // A missing file is an error, not UB.
  expectLoadFails(Good, "cannot open");
}

TEST(TableStoreTest, CoversChecksKindAndParameters) {
  TableStore T = TableStore::build(SuperCayleyGraph::star(5));
  EXPECT_TRUE(T.covers(SuperCayleyGraph::star(5)));
  EXPECT_FALSE(T.covers(SuperCayleyGraph::star(6)));
  EXPECT_FALSE(T.covers(SuperCayleyGraph::bubbleSort(5)));
  EXPECT_FALSE(
      T.covers(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2)));
}

//===----------------------------------------------------------------------===//
// The first-hop row: the generator greedy distance descent picks, per rank.
//===----------------------------------------------------------------------===//

namespace {

/// The per-hop scan table routing ran before the first-hop row existed,
/// kept as the oracle: the lowest g with Row[g^-1 o R] == Row[R] - 1, or
/// TableNoHop at the identity, at a 0 or unreachable entry, or where no
/// neighbour is one step closer.
uint8_t scanFirstHop(const SuperCayleyGraph &Net,
                     const std::vector<uint8_t> &Row, uint64_t Rank) {
  const uint8_t D = Row[Rank];
  if (Rank == 0 || D == 0 || D == TableUnreachable)
    return TableNoHop;
  Permutation R = unrankPermutation(Rank, Net.numSymbols());
  for (GenIndex G = 0; G != Net.degree(); ++G)
    if (Row[rankPermutation(Net.generators()[G].Sigma.inverse().compose(R))] ==
        D - 1)
      return uint8_t(G);
  return TableNoHop;
}

/// Greedy distance descent from \p Rank down \p Row, one scan per hop:
/// the old table router. Empty when the walk strands.
std::vector<GenIndex> descend(const SuperCayleyGraph &Net,
                              const std::vector<uint8_t> &Row, uint64_t Rank) {
  std::vector<GenIndex> Hops;
  if (Row[Rank] == TableUnreachable)
    return Hops;
  Permutation R = unrankPermutation(Rank, Net.numSymbols());
  while (!R.isIdentity()) {
    uint8_t G = scanFirstHop(Net, Row, rankPermutation(R));
    if (G == TableNoHop)
      return {};
    Hops.push_back(G);
    R = Net.generators()[G].Sigma.inverse().compose(R);
  }
  return Hops;
}

std::vector<uint8_t> distanceRow(const TableStore &T) {
  std::vector<uint8_t> Row(T.numNodes());
  for (uint64_t R = 0; R != T.numNodes(); ++R)
    Row[R] = T.distanceByRank(R);
  return Row;
}

/// A table over an external distance row (a faulted graph's, say) with the
/// first-hop row the scan oracle derives from it.
std::shared_ptr<const TableStore> tableFromRow(const SuperCayleyGraph &Net,
                                               std::vector<uint8_t> Row) {
  std::vector<uint8_t> Hop(Row.size());
  for (uint64_t R = 0; R != Row.size(); ++R)
    Hop[R] = scanFirstHop(Net, Row, R);
  return std::make_shared<const TableStore>(
      TableStore::fromRows(Net, std::move(Row), std::move(Hop)));
}

/// Holds \p T's first-hop row to the scan oracle over its distance row, and
/// every table route to the descent oracle: the chase must pick the same
/// hops, and where descent strands the reply is the closed-form route.
void expectHopRowMatchesDescent(const SuperCayleyGraph &Net,
                                std::shared_ptr<const TableStore> T) {
  const std::vector<uint8_t> Row = distanceRow(*T);
  QueryEngine Engine(Net);
  Engine.attachTable(T);
  const Permutation Id = Permutation::identity(Net.numSymbols());
  for (uint64_t R = 0; R != T->numNodes(); ++R) {
    ASSERT_EQ(T->firstHopByRank(R), scanFirstHop(Net, Row, R))
        << Net.name() << " rank " << R;
    if (R == 0)
      continue;
    const Permutation Dst = unrankPermutation(R, Net.numSymbols());
    std::vector<GenIndex> Want = descend(Net, Row, R);
    if (Want.empty() && !QueryEngine::supportsTableFree(Net)) {
      EXPECT_THROW(Engine.route(Id, Dst), std::invalid_argument);
      continue;
    }
    RouteReply Got = Engine.route(Id, Dst);
    if (Want.empty()) {
      // The closed-form route, flagged FromTable only if its length
      // happens to equal the table distance.
      ASSERT_EQ(Got.Hops, QueryEngine(Net).route(Id, Dst).Hops)
          << Net.name() << " rank " << R;
      EXPECT_EQ(Got.FromTable, Got.length() == Row[R]);
    } else {
      ASSERT_EQ(Got.Hops, Want) << Net.name() << " rank " << R;
      EXPECT_TRUE(Got.FromTable && Got.Exact);
    }
  }
}

std::vector<SuperCayleyGraph> hopRowFamilies() {
  std::vector<SuperCayleyGraph> Nets;
  Nets.push_back(SuperCayleyGraph::star(5));
  Nets.push_back(SuperCayleyGraph::bubbleSort(5));
  Nets.push_back(SuperCayleyGraph::transpositionNetwork(5));
  Nets.push_back(SuperCayleyGraph::rotator(5));
  Nets.push_back(SuperCayleyGraph::insertionSelection(5));
  Nets.push_back(
      SuperCayleyGraph::transpositionTree(5, {{1, 2}, {2, 3}, {2, 4}, {4, 5}}));
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::RotationStar,
        NetworkKind::CompleteRotationStar, NetworkKind::MacroRotator,
        NetworkKind::RotationRotator, NetworkKind::CompleteRotationRotator,
        NetworkKind::MacroIS, NetworkKind::RotationIS,
        NetworkKind::CompleteRotationIS})
    Nets.push_back(SuperCayleyGraph::create(Kind, 2, 2));
  // k = 7, directed families included.
  Nets.push_back(SuperCayleyGraph::star(7));
  Nets.push_back(SuperCayleyGraph::rotator(7));
  Nets.push_back(SuperCayleyGraph::create(NetworkKind::MacroRotator, 2, 3));
  Nets.push_back(SuperCayleyGraph::create(NetworkKind::RotationRotator, 3, 2));
  return Nets;
}

} // namespace

TEST(TableStoreTest, FirstHopRowMatchesGreedyDescentOnEveryFamily) {
  unsigned Stranded = 0;
  for (const SuperCayleyGraph &Net : hopRowFamilies()) {
    SCOPED_TRACE(Net.name());
    auto Built = std::make_shared<const TableStore>(TableStore::build(Net));
    ASSERT_EQ(Built->degree(), Net.degree());
    // The distance row equals a plain BFS row over the Csr.
    EXPECT_EQ(distanceRow(*Built),
              msBfsDistanceRow(ExplicitScg(Net).toCsr(), /*Source=*/0));
    expectHopRowMatchesDescent(Net, Built);

    // A faulted row: a knocked-out band, as a fault sweep's row would
    // have, strands some descents midway; those ranks get TableNoHop and
    // their routes fall back to the closed form.
    if (Net.numSymbols() != 5)
      continue;
    std::vector<uint8_t> Row = distanceRow(*Built);
    for (uint64_t R = 40; R != 60; ++R)
      Row[R] = TableUnreachable;
    auto Faulted = tableFromRow(Net, Row);
    expectHopRowMatchesDescent(Net, Faulted);
    for (uint64_t R = 1; R != Row.size(); ++R)
      Stranded += Row[R] != TableUnreachable &&
                  Faulted->firstHopByRank(R) == TableNoHop;
  }
  EXPECT_GT(Stranded, 0u);
}

TEST(TableStoreTest, FromRowsRejectsMalformedRows) {
  SuperCayleyGraph Net = SuperCayleyGraph::star(4); // 24 nodes, degree 3.
  auto Make = [&](std::vector<uint8_t> Dist, std::vector<uint8_t> Hop) {
    return TableStore::fromRows(Net, std::move(Dist), std::move(Hop));
  };
  const std::vector<uint8_t> NoHops(24, TableNoHop);
  EXPECT_THROW(Make(std::vector<uint8_t>(23, 0), NoHops),
               std::invalid_argument);
  EXPECT_THROW(Make(std::vector<uint8_t>(24, 0), std::vector<uint8_t>(25, 0)),
               std::invalid_argument);
  EXPECT_NO_THROW(Make(std::vector<uint8_t>(24, 0), NoHops));
  // The identity sits at distance 0 from itself.
  std::vector<uint8_t> Dist(24, 1);
  EXPECT_THROW(Make(Dist, NoHops), std::invalid_argument);
  Dist[0] = 0;
  EXPECT_NO_THROW(Make(Dist, NoHops));
  // A hop byte names one of the three generators, or none.
  std::vector<uint8_t> Hop = NoHops;
  Hop[5] = 2;
  EXPECT_EQ(Make(Dist, Hop).firstHopByRank(5), 2u);
  Hop[5] = 3;
  EXPECT_THROW(Make(Dist, Hop), std::invalid_argument);
}

//===----------------------------------------------------------------------===//
// Inputs the engine cannot serve throw instead of asserting.
//===----------------------------------------------------------------------===//

TEST(QueryEngineInputTest, RejectsMoreThanSixteenSymbols) {
  EXPECT_THROW(QueryEngine(SuperCayleyGraph::star(17)), std::invalid_argument);
  EXPECT_NO_THROW(QueryEngine(SuperCayleyGraph::star(16)));
}

TEST(QueryEngineInputTest, RejectsLabelsOfTheWrongSize) {
  QueryEngine Engine(SuperCayleyGraph::star(5));
  const Permutation Five = Permutation::identity(5);
  const Permutation Six = Permutation::identity(6);
  EXPECT_THROW(Engine.distance(Five, Six), std::invalid_argument);
  EXPECT_THROW(Engine.route(Six, Five), std::invalid_argument);
  std::vector<PairQuery> Batch(100, PairQuery{Five, Five});
  Batch[57].Dst = Six;
  EXPECT_THROW(Engine.distanceBatch(Batch), std::invalid_argument);
  EXPECT_THROW(Engine.routeBatch(Batch), std::invalid_argument);
  std::vector<Permutation> Rels(100, Five);
  Rels[3] = Six;
  EXPECT_THROW(Engine.routeBatchRelative(Rels), std::invalid_argument);
}

TEST(QueryEngineInputTest, RejectsATableForAnotherNetwork) {
  QueryEngine Engine(SuperCayleyGraph::star(5));
  EXPECT_THROW(Engine.attachTable(std::make_shared<TableStore>(
                   TableStore::build(SuperCayleyGraph::star(4)))),
               std::invalid_argument);
  EXPECT_THROW(Engine.attachTable(std::make_shared<TableStore>(
                   TableStore::build(SuperCayleyGraph::bubbleSort(5)))),
               std::invalid_argument);
  EXPECT_THROW(Engine.attachTable(nullptr), std::invalid_argument);
  EXPECT_FALSE(Engine.tableBacked());
}

TEST(QueryEngineInputTest, TableOnlyFamilyNeedsATable) {
  SuperCayleyGraph Net = SuperCayleyGraph::create(NetworkKind::MacroRotator,
                                                  2, 2);
  QueryEngine Engine(Net);
  const Permutation Id = Permutation::identity(5);
  const Permutation Far = unrankPermutation(77, 5);
  EXPECT_THROW(Engine.distance(Id, Far), std::invalid_argument);
  EXPECT_THROW(Engine.route(Id, Far), std::invalid_argument);
  std::vector<PairQuery> Batch(10, PairQuery{Id, Far});
  EXPECT_THROW(Engine.distanceBatch(Batch), std::invalid_argument);
  EXPECT_THROW(Engine.routeBatch(Batch), std::invalid_argument);
  // The identity needs no router at all.
  EXPECT_EQ(Engine.distance(Far, Far).Distance, 0u);

  // A faulted table that leaves the destination unreachable cannot route
  // a table-only family either.
  std::vector<uint8_t> Row = distanceRow(TableStore::build(Net));
  Row[77] = TableUnreachable;
  Engine.attachTable(tableFromRow(Net, std::move(Row)));
  EXPECT_EQ(Engine.distance(Id, Far).Distance, UnreachableDistance);
  EXPECT_THROW(Engine.route(Id, Far), std::invalid_argument);
}

//===----------------------------------------------------------------------===//
// Faulted tables: unreachable lanes serve UnreachableDistance, routes fall
// back to the closed-form router.
//===----------------------------------------------------------------------===//

TEST(QueryEngineTest, FaultedTableFallsBackToTableFreeRoutes) {
  SuperCayleyGraph Net = SuperCayleyGraph::star(5);
  TableStore Clean = TableStore::build(Net);
  std::vector<uint8_t> Row(Clean.numNodes());
  for (uint64_t R = 0; R != Clean.numNodes(); ++R)
    Row[R] = Clean.distanceByRank(R);
  // Knock out a band of nodes, as a fault sweep's distance row would.
  for (uint64_t R = 40; R != 60; ++R)
    Row[R] = TableUnreachable;

  QueryEngine Engine(Net);
  Engine.attachTable(tableFromRow(Net, std::move(Row)));
  Permutation Id = Permutation::identity(5);

  Permutation Dead = unrankPermutation(45, 5);
  DistanceReply D = Engine.distance(Id, Dead);
  EXPECT_EQ(D.Distance, UnreachableDistance);
  EXPECT_TRUE(D.FromTable);
  // The route cannot descend through the hole, but the star closed form
  // still produces a valid (unfaulted-network) route.
  RouteReply Route = Engine.route(Id, Dead);
  expectValidRoute(Net, Id, Dead, Route.Hops);
  EXPECT_FALSE(Route.FromTable);

  // Lanes outside the hole still serve exact distances from the table, and
  // routes stay valid whichever engine ends up producing them.
  Permutation Alive = unrankPermutation(100, 5);
  DistanceReply DA = Engine.distance(Id, Alive);
  EXPECT_TRUE(DA.FromTable);
  EXPECT_NE(DA.Distance, UnreachableDistance);
  expectValidRoute(Net, Id, Alive, Engine.route(Id, Alive).Hops);
}

//===----------------------------------------------------------------------===//
// Family sweep instantiation.
//===----------------------------------------------------------------------===//

INSTANTIATE_TEST_SUITE_P(
    Families, QueryEngineFamilyTest,
    testing::ValuesIn(FamilyParams),
    queryName);
