//===- tests/MsBfsHybridTest.cpp - Direction-optimizing engine pins ------===//
//
// The direction-optimizing MS-BFS engine is pinned against the scalar
// oracles -- one bfs() per source and scalarAllPairsStats, which share no
// code with it:
//
//  * msBfs / msBfsDistances byte-identical to one bfs() per source on
//    every network family at k = 5, star / rotator at k = 6 (rotator is
//    directed: the transpose really differs), faulted and disconnected
//    graphs, odd lane counts and duplicated sources.
//  * msAllPairsStats == scalarAllPairsStats byte for byte at SCG_THREADS
//    1/2/8 (the `parallel` label's determinism contract).
//  * distance.* counters: pinned values on star(6), byte-identical at
//    every thread count, and the pull pass must actually run.
//  * Engine-level allocation reuse: with a warm per-thread scratch, a
//    whole sweep's worth of batches performs zero heap allocations (the
//    operator-new interposer below counts every allocation in this
//    binary, same pattern as PermutationKernelTest).
//
//===----------------------------------------------------------------------===//

#include "graph/Faults.h"
#include "graph/Metrics.h"
#include "graph/MsBfs.h"
#include "networks/Classic.h"
#include "networks/Explicit.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numeric>

using namespace scg;

//===----------------------------------------------------------------------===//
// Global allocation counter (see PermutationKernelTest.cpp): replacing
// operator new in this TU intercepts every heap allocation in the test
// binary, so snapshotting the counter around a batch loop proves the
// engines reuse warm scratch instead of reallocating per batch.
//===----------------------------------------------------------------------===//

static std::atomic<uint64_t> GHeapAllocations{0};

void *operator new(std::size_t Size) {
  ++GHeapAllocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

/// Every network family the library implements, materialized at k = 5
/// (mirrors MsBfsTest::allFamiliesK5).
std::vector<SuperCayleyGraph> allFamiliesK5() {
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
  return Nets;
}

/// One batch against one scalar bfs() per source over \p G: per-lane
/// stats and full distance rows must be byte-identical (not merely equal
/// as graphs -- the acceptance bar). \p C is a Csr of the same graph.
void expectBatchMatchesBfs(const Graph &G, const Csr &C, const Csr &CT,
                           std::span<const NodeId> Sources,
                           const std::string &What) {
  MsBfsBatch Batch = msBfs(C, CT, Sources);
  std::vector<std::vector<uint32_t>> Rows = msBfsDistances(C, CT, Sources);
  ASSERT_EQ(Rows.size(), Sources.size()) << What;
  for (size_t Lane = 0; Lane != Sources.size(); ++Lane) {
    BfsResult Ref = bfs(G, Sources[Lane]);
    EXPECT_EQ(Rows[Lane], Ref.Distance) << What << " lane " << Lane;
    EXPECT_EQ(Batch.Eccentricity[Lane], Ref.Eccentricity) << What;
    EXPECT_EQ(Batch.NumReached[Lane], Ref.NumReached) << What;
    EXPECT_EQ(Batch.DistanceSum[Lane], Ref.DistanceSum) << What;
  }
}

/// All nodes of \p G as sources, chunked into 64-lane batches.
void expectAllSourcesMatch(const Graph &G, const Csr &C,
                           const std::string &What) {
  Csr CT = C.transpose();
  std::vector<NodeId> All(C.numNodes());
  std::iota(All.begin(), All.end(), 0);
  for (size_t Begin = 0; Begin < All.size(); Begin += MsBfsLanes) {
    size_t Count = std::min<size_t>(MsBfsLanes, All.size() - Begin);
    expectBatchMatchesBfs(G, C, CT, std::span(All).subspan(Begin, Count),
                          What + " @" + std::to_string(Begin));
  }
}

/// Explicit network: the oracle walks toGraph(), the engine toCsr() --
/// two independent materializations of the same Next table.
void expectAllSourcesMatch(const SuperCayleyGraph &Scg,
                           const std::string &What) {
  ExplicitScg Net(Scg);
  expectAllSourcesMatch(Net.toGraph(), Net.toCsr(), What);
}

bool bitEqual(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

void expectSameStats(const DistanceStats &A, const DistanceStats &B,
                     const std::string &What) {
  EXPECT_EQ(A.Connected, B.Connected) << What;
  EXPECT_EQ(A.Diameter, B.Diameter) << What;
  EXPECT_TRUE(bitEqual(A.AverageDistance, B.AverageDistance)) << What;
}

template <typename Fn> auto withThreads(unsigned Threads, Fn &&F) {
  setGlobalThreadCount(Threads);
  auto Result = F();
  setGlobalThreadCount(0);
  return Result;
}

uint64_t counterValue(const MetricsRegistry &M, const std::string &Name) {
  const Metric *C = M.find(Name);
  return C ? uint64_t(C->value()) : 0;
}

// The next two names keep "Push" so test ids stay stable; the oracle is
// scalar bfs().
TEST(MsBfsHybrid, MatchesPushOnEveryFamilyFullSourceSet) {
  for (const SuperCayleyGraph &Scg : allFamiliesK5())
    expectAllSourcesMatch(Scg, Scg.name());
}

TEST(MsBfsHybrid, MatchesPushAtK6) {
  // Larger undirected instance (720 nodes, 12 batches) and the directed
  // rotator, where the transpose genuinely differs from the forward CSR.
  expectAllSourcesMatch(SuperCayleyGraph::star(6), "star6");
  expectAllSourcesMatch(SuperCayleyGraph::rotator(6), "rotator6 (directed)");
}

TEST(MsBfsHybrid, OddSourceCountsAndDuplicates) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  Graph G = Net.toGraph();
  Csr C = Net.toCsr();
  Csr CT = C.transpose();
  std::vector<NodeId> Scattered;
  for (NodeId I = 0; I != 63; ++I)
    Scattered.push_back((I * 37 + 11) % C.numNodes());
  Scattered[20] = Scattered[3]; // duplicated source on two lanes.
  for (size_t Count : {size_t(1), size_t(2), size_t(37), size_t(63),
                       size_t(Scattered.size())})
    expectBatchMatchesBfs(G, C, CT, std::span(Scattered).first(Count),
                          "star5 scattered " + std::to_string(Count));
}

TEST(MsBfsHybrid, FaultedAndDisconnectedGraphs) {
  // Faulted star(5): node + link failures leave an irregular survivor.
  ExplicitScg Net(SuperCayleyGraph::star(5));
  Graph G = Net.toGraph();
  FaultSet Faults;
  Faults.failNode(7);
  Faults.failNode(63);
  Faults.failLink(0, G.neighbors(0)[0]);
  Graph Surviving = applyFaults(G, Faults);
  expectAllSourcesMatch(Surviving, Csr(Surviving), "faulted star5");
  expectSameStats(msAllPairsStats(Csr(Surviving)),
                  scalarAllPairsStats(Surviving), "faulted star5 sweep");

  // Two components plus an isolated node: unreached lanes stay
  // unreachable and both sweeps report Connected = false.
  Graph Two(8);
  for (NodeId I = 0; I + 1 != 4; ++I)
    Two.addUndirectedEdge(I, I + 1);
  Two.addUndirectedEdge(4, 5);
  Two.addUndirectedEdge(5, 6);
  Two.addUndirectedEdge(6, 4);
  Csr TwoCsr(Two);
  expectAllSourcesMatch(Two, TwoCsr, "two components");
  EXPECT_FALSE(msAllPairsStats(TwoCsr).Connected);
  EXPECT_FALSE(scalarAllPairsStats(Two).Connected);
}

TEST(MsBfsHybrid, SweepEnginesByteIdenticalAcrossThreadCounts) {
  for (const SuperCayleyGraph &Scg :
       {SuperCayleyGraph::star(6), SuperCayleyGraph::rotator(6),
        SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2)}) {
    ExplicitScg Net(Scg);
    Graph G = Net.toGraph();
    Csr C = Net.toCsr();
    DistanceStats Ref =
        withThreads(1, [&] { return scalarAllPairsStats(G); });
    for (unsigned Threads : {1u, 2u, 8u})
      expectSameStats(Ref, withThreads(Threads, [&] {
                        return msAllPairsStats(C);
                      }),
                      Scg.name() + " @" + std::to_string(Threads));
  }
}

TEST(MsBfsHybrid, SweepCountersPinnedAndThreadInvariant) {
  // star(6): 720 nodes = one full 512-lane fused group + a 208-lane tail,
  // i.e. 8 + 4 64-lane batch equivalents. The mid-sweep frontier covers
  // most of the graph, so the heuristic must actually pull and switch.
  Csr C = ExplicitScg(SuperCayleyGraph::star(6)).toCsr();
  auto Run = [&](unsigned Threads) {
    MetricsRegistry Registry;
    MsSweepOptions Opts{&Registry};
    withThreads(Threads, [&] { return msAllPairsStats(C, Opts); });
    MsBfsCounters Counters;
    Counters.Batches = counterValue(Registry, "distance.batches");
    Counters.PushLevels = counterValue(Registry, "distance.push_levels");
    Counters.PullLevels = counterValue(Registry, "distance.pull_levels");
    Counters.PushWords = counterValue(Registry, "distance.push_words");
    Counters.PullWords = counterValue(Registry, "distance.pull_words");
    Counters.DirectionSwitches =
        counterValue(Registry, "distance.direction_switches");
    return Counters;
  };
  // The values committed in BENCH_distance.json (all_pairs_hybrid_star6).
  MsBfsCounters Serial = Run(1);
  EXPECT_EQ(Serial.Batches, 12u);
  EXPECT_EQ(Serial.PushLevels, 3u);
  EXPECT_EQ(Serial.PullLevels, 13u);
  EXPECT_EQ(Serial.DirectionSwitches, 2u);
  EXPECT_EQ(Serial.PushWords, 102144u);
  EXPECT_EQ(Serial.PullWords, 334080u);
  for (unsigned Threads : {2u, 8u}) {
    MsBfsCounters Parallel = Run(Threads);
    EXPECT_EQ(Serial.Batches, Parallel.Batches) << Threads;
    EXPECT_EQ(Serial.PushLevels, Parallel.PushLevels) << Threads;
    EXPECT_EQ(Serial.PullLevels, Parallel.PullLevels) << Threads;
    EXPECT_EQ(Serial.PushWords, Parallel.PushWords) << Threads;
    EXPECT_EQ(Serial.PullWords, Parallel.PullWords) << Threads;
    EXPECT_EQ(Serial.DirectionSwitches, Parallel.DirectionSwitches)
        << Threads;
  }
}

TEST(MsBfsHybrid, WarmBatchesAreAllocationFree) {
  // A sweep runs tens of thousands of batches through one warm scratch
  // per worker; per-batch heap growth would reintroduce the malloc storm
  // support/Scratch.h exists to prevent. One cold pass warms the buffers
  // (and proves warm results match cold ones), then a full all-sources
  // pass must not allocate at all. Sinks accumulate into
  // locals, so any allocation counted here is engine-internal.
  Csr C = ExplicitScg(SuperCayleyGraph::star(5)).toCsr();
  Csr CT = C.transpose();
  const NodeId N = C.numNodes();
  std::vector<NodeId> All(N);
  std::iota(All.begin(), All.end(), 0);
  MsBfsScratch Scratch;
  uint64_t ColdSum = 0, ColdVisits = 0;
  auto RunAll = [&](uint64_t &Sum, uint64_t &VisitCount) {
    for (size_t Begin = 0; Begin < All.size(); Begin += MsBfsLanes) {
      size_t Count = std::min<size_t>(MsBfsLanes, All.size() - Begin);
      auto Chunk = std::span(All).subspan(Begin, Count);
      auto Tally = [&](NodeId, uint64_t Mask, uint32_t Level) {
        Sum += uint64_t(Level) * uint64_t(std::popcount(Mask));
        VisitCount += uint64_t(std::popcount(Mask));
      };
      msBfsCore(C, CT, Chunk, Tally, nullptr, &Scratch);
    }
  };
  RunAll(ColdSum, ColdVisits); // cold: buffers grow once.
  uint64_t WarmSum = 0, WarmVisits = 0;
  uint64_t Before = GHeapAllocations.load();
  RunAll(WarmSum, WarmVisits);
  uint64_t After = GHeapAllocations.load();
  EXPECT_EQ(After, Before) << "warm MS-BFS batches touched the heap";
  EXPECT_EQ(ColdSum, WarmSum);
  EXPECT_EQ(ColdVisits, WarmVisits);
  EXPECT_EQ(WarmVisits, uint64_t(N) * N); // connected: every pair once.
}

} // namespace
