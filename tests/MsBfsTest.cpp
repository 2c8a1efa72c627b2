//===- tests/MsBfsTest.cpp - Bit-parallel multi-source BFS pins ----------===//
//
// The direction-optimizing MS-BFS engine (graph/MsBfs.h) is pinned against
// independent oracles -- one bfs() per source and scalarAllPairsStats
// (tests/ReferenceMetrics.h), which share no traversal code with it:
//
//  * Per-node rows: detail::msBfsFusedImpl, the production 512-lane
//    engine, driven with a per-node visitor (counted and uncounted
//    instantiations) rebuilds full distance rows byte-identical to
//    bfs().Distance, and reaches every (lane, node) pair at most once, on
//    every network family at k = 5 (from both Csr builds: Graph flatten
//    and ExplicitScg::toCsr), star(6) and rotator(6) (directed: the
//    transpose really differs), faulted and disconnected graphs, and
//    source counts across word boundaries (1, 63, 64, 65, 511, 512) with
//    duplicated sources inside one word and across words. The same
//    checks run again in one-word (64-lane) groups, where every node holds
//    a single lane word.
//  * msBfsDistanceRow (the TableStore row) == bfs() distances byte for
//    byte on every family, 0xFF where unreachable, and a throw where a
//    distance would collide with that sentinel or the source is not a
//    node.
//  * allPairsStats / msAllPairsStats == scalarAllPairsStats everywhere,
//    and byte-identical at SCG_THREADS 1/2/8 (the determinism contract,
//    under the `parallel` ctest label).
//  * distance.* counters: pinned values on star(6), byte-identical at
//    every thread count, and the pull pass must actually run.
//  * Allocation reuse: with a warm scratch, a whole sweep's worth of
//    groups performs zero heap allocations (the operator-new interposer
//    below counts every allocation in this binary, same pattern as
//    PermutationKernelTest).
//
// The one-word and whole-sweep pins keep their `MsBfsHybrid` suite name
// (the direction-optimizing engine was once the "hybrid" next to a
// push-only one).
//
//===----------------------------------------------------------------------===//

#include "ReferenceMetrics.h"

#include "graph/Faults.h"
#include "graph/Metrics.h"
#include "graph/MsBfs.h"
#include "networks/Classic.h"
#include "networks/Explicit.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numeric>
#include <stdexcept>

using namespace scg;

//===----------------------------------------------------------------------===//
// Global allocation counter (see PermutationKernelTest.cpp): replacing
// operator new in this TU intercepts every heap allocation in the test
// binary, so snapshotting the counter around a group loop proves the
// engine reuses warm scratch instead of reallocating per group.
//===----------------------------------------------------------------------===//

static std::atomic<uint64_t> GHeapAllocations{0};

void *operator new(std::size_t Size) {
  ++GHeapAllocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
// std::stable_sort's scratch buffer comes from the nothrow form; it must
// pair with the free() below too.
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  ++GHeapAllocations;
  return std::malloc(Size ? Size : 1);
}
// Kept out of line: inlined into a new-expression's cleanup, a free()
// trips GCC's -Wmismatched-new-delete although every allocation above
// comes from malloc().
[[gnu::noinline]] void operator delete(void *P,
                                       const std::nothrow_t &) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete[](void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete[](void *P, std::size_t) noexcept {
  std::free(P);
}

namespace {

/// Every network family the library implements, materialized at k = 5
/// (mirrors KernelDifferentialTest::allFamiliesK5).
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

using Rows = std::vector<std::vector<uint32_t>>;

/// Runs one group through the engine with a per-node visitor and rebuilds
/// the distance row of every lane (UnreachableDistance where the lane
/// never arrives). A lane arriving twice at one node is a failure.
template <bool WithCounters>
Rows engineRows(const Csr &C, const Csr &CT, std::span<const NodeId> Sources) {
  Rows Out(Sources.size(),
           std::vector<uint32_t>(C.numNodes(), UnreachableDistance));
  auto Visit = [&](NodeId Node, unsigned Word, uint64_t Mask, uint32_t Level) {
    for (; Mask; Mask &= Mask - 1) {
      uint32_t &D = Out[size_t(Word) * 64 + std::countr_zero(Mask)][Node];
      EXPECT_EQ(D, UnreachableDistance) << "lane reached node " << Node
                                        << " twice";
      D = Level;
    }
  };
  MsBfsCounters Counters;
  detail::msBfsFusedImpl<WithCounters>(C, CT, Sources, Visit, &Counters,
                                       threadScratch<MsBfsScratch>());
  return Out;
}

/// One group against one scalar bfs() per source over \p G: full distance
/// rows byte-identical from both engine instantiations, and the per-lane
/// eccentricity, reach and distance sum they imply equal to bfs()'s. \p C
/// is a Csr of the same graph, \p CT its transpose.
void expectGroupMatchesBfs(const Graph &G, const Csr &C, const Csr &CT,
                           std::span<const NodeId> Sources,
                           const std::string &What) {
  Rows Plain = engineRows<false>(C, CT, Sources);
  ASSERT_EQ(engineRows<true>(C, CT, Sources), Plain) << What;
  for (size_t Lane = 0; Lane != Sources.size(); ++Lane) {
    BfsResult Ref = bfs(G, Sources[Lane]);
    EXPECT_EQ(Plain[Lane], Ref.Distance)
        << What << " lane " << Lane << " source " << Sources[Lane];
    uint32_t Eccentricity = 0;
    uint64_t NumReached = 0, DistanceSum = 0;
    for (uint32_t D : Plain[Lane]) {
      if (D == UnreachableDistance)
        continue;
      Eccentricity = std::max(Eccentricity, D);
      ++NumReached;
      DistanceSum += D;
    }
    EXPECT_EQ(Eccentricity, Ref.Eccentricity) << What << " lane " << Lane;
    EXPECT_EQ(NumReached, Ref.NumReached) << What << " lane " << Lane;
    EXPECT_EQ(DistanceSum, Ref.DistanceSum) << What << " lane " << Lane;
  }
}

/// All nodes of \p G as sources, in groups of \p GroupLanes (at most
/// MsBfsGroupLanes).
void expectAllSourcesMatch(const Graph &G, const Csr &C,
                           const std::string &What,
                           size_t GroupLanes = MsBfsGroupLanes) {
  Csr CT = C.transpose();
  std::vector<NodeId> All(C.numNodes());
  std::iota(All.begin(), All.end(), 0);
  for (size_t Begin = 0; Begin < All.size(); Begin += GroupLanes)
    expectGroupMatchesBfs(
        G, C, CT,
        std::span(All).subspan(
            Begin, std::min<size_t>(GroupLanes, All.size() - Begin)),
        What + " @" + std::to_string(Begin));
}

/// Explicit network: the oracle walks toGraph(), the engine toCsr() --
/// two independent materializations of the same Next table.
void expectAllSourcesMatch(const SuperCayleyGraph &Scg,
                           const std::string &What,
                           size_t GroupLanes = MsBfsGroupLanes) {
  ExplicitScg Net(Scg);
  expectAllSourcesMatch(Net.toGraph(), Net.toCsr(), What, GroupLanes);
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

TEST(MsBfs, MatchesScalarOnEveryFamilyFullSourceSet) {
  for (const SuperCayleyGraph &Scg : allFamiliesK5()) {
    ExplicitScg Net(Scg);
    Graph G = Net.toGraph();
    // All 120 nodes as sources (one group: a full word and a 56-lane
    // tail), from both CSR builds.
    expectAllSourcesMatch(G, Csr(G), Scg.name() + " csr(graph)");
    expectAllSourcesMatch(G, Net.toCsr(), Scg.name() + " csr(table)");
  }
}

TEST(MsBfs, OddSourceCountsAndDuplicates) {
  // star(6) has 720 nodes, enough for a full 512-lane group of distinct
  // sources; scattered and unordered, then with duplicated sources.
  ExplicitScg Net(SuperCayleyGraph::star(6));
  Graph G = Net.toGraph();
  Csr C = Net.toCsr();
  Csr CT = C.transpose();
  std::vector<NodeId> Scattered;
  for (NodeId I = 0; I != MsBfsGroupLanes; ++I)
    Scattered.push_back((I * 37 + 11) % C.numNodes());
  const size_t Counts[] = {1, 2, 37, 63, 64, 65, 511, 512};
  for (size_t Count : Counts)
    expectGroupMatchesBfs(G, C, CT, std::span(Scattered).first(Count),
                          "star6 distinct " + std::to_string(Count));
  Scattered[20] = Scattered[3];  // duplicated inside word 0.
  Scattered[100] = Scattered[3]; // and again in word 1.
  Scattered[511] = Scattered[64];
  for (size_t Count : Counts)
    expectGroupMatchesBfs(G, C, CT, std::span(Scattered).first(Count),
                          "star6 duplicated " + std::to_string(Count));
}

/// Two components (a 4-path and a 3-cycle) plus an isolated node.
Graph twoComponents() {
  Graph G(8);
  for (NodeId I = 0; I + 1 != 4; ++I)
    G.addUndirectedEdge(I, I + 1);
  G.addUndirectedEdge(4, 5);
  G.addUndirectedEdge(5, 6);
  G.addUndirectedEdge(6, 4);
  return G;
}

TEST(MsBfs, DisconnectedGraphPerLaneReach) {
  Graph G = twoComponents();
  Csr C(G);
  expectAllSourcesMatch(G, C, "two components");
  std::vector<NodeId> Sources(8);
  std::iota(Sources.begin(), Sources.end(), 0);
  Rows R = engineRows<false>(C, C.transpose(), Sources);
  auto Reached = [](const std::vector<uint32_t> &Row) {
    return std::count_if(Row.begin(), Row.end(), [](uint32_t D) {
      return D != UnreachableDistance;
    });
  };
  EXPECT_EQ(Reached(R[0]), 4);
  EXPECT_EQ(Reached(R[4]), 3);
  EXPECT_EQ(Reached(R[7]), 1); // the isolated node reaches itself.
  EXPECT_EQ(R[7][7], 0u);
  expectSameStats(allPairsStats(G), scalarAllPairsStats(G), "disconnected");
  expectSameStats(msAllPairsStats(C), scalarAllPairsStats(G),
                  "disconnected csr");
  EXPECT_FALSE(allPairsStats(G).Connected);
}

TEST(MsBfs, FaultedGraphMatchesScalar) {
  // Node + link failures leave an irregular survivor with dead nodes.
  ExplicitScg Net(SuperCayleyGraph::star(5));
  Graph G = Net.toGraph();
  FaultSet Faults;
  Faults.failNode(7);
  Faults.failNode(63);
  Faults.failLink(0, G.neighbors(0)[0]);
  Graph Surviving = applyFaults(G, Faults);
  expectAllSourcesMatch(Surviving, Csr(Surviving), "faulted star5");
  expectSameStats(allPairsStats(Surviving), scalarAllPairsStats(Surviving),
                  "faulted star5 sweep");
  expectSameStats(msAllPairsStats(Csr(Surviving)),
                  scalarAllPairsStats(Surviving), "faulted star5 csr sweep");
}

TEST(MsBfs, AllPairsMatchesScalarEngineOnEveryFamily) {
  for (const SuperCayleyGraph &Scg : allFamiliesK5()) {
    Graph G = ExplicitScg(Scg).toGraph();
    expectSameStats(allPairsStats(G), scalarAllPairsStats(G), Scg.name());
  }
  // Non-vertex-transitive guests take the same engine.
  for (const Graph &G : {mesh2D(4, 5), completeBinaryTree(4), hypercube(5)})
    expectSameStats(allPairsStats(G), scalarAllPairsStats(G), "guest");
}

TEST(MsBfs, AllPairsMatchesScalarAtK6) {
  // 720 nodes: one full 512-lane group and a 208-lane tail. The rotator
  // is directed, so the pull pass reads a transpose that really differs
  // from the forward CSR.
  expectAllSourcesMatch(SuperCayleyGraph::star(6), "star6");
  expectAllSourcesMatch(SuperCayleyGraph::rotator(6), "rotator6 (directed)");
  Graph G = ExplicitScg(SuperCayleyGraph::star(6)).toGraph();
  expectSameStats(allPairsStats(G), scalarAllPairsStats(G), "star6");
  Graph R = ExplicitScg(SuperCayleyGraph::rotator(6)).toGraph();
  expectSameStats(allPairsStats(R), scalarAllPairsStats(R),
                  "rotator6 (directed)");
}

TEST(MsBfs, ParallelSerialByteIdentity) {
  for (const SuperCayleyGraph &Scg :
       {SuperCayleyGraph::star(6),
        SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2)}) {
    Graph G = ExplicitScg(Scg).toGraph();
    DistanceStats Ref = withThreads(1, [&] { return allPairsStats(G); });
    for (unsigned Threads : {2u, 8u})
      expectSameStats(Ref, withThreads(Threads, [&] {
                        return allPairsStats(G);
                      }),
                      Scg.name() + " @" + std::to_string(Threads));
  }
}

/// The byte row's contract: bfs() distances, 0xFF where bfs() finds none.
void expectRowMatchesBfs(const Graph &G, NodeId Src, const std::string &What) {
  std::vector<uint8_t> Row = msBfsDistanceRow(Csr(G), Src);
  std::vector<uint32_t> Ref = bfs(G, Src).Distance;
  ASSERT_EQ(Row.size(), Ref.size()) << What;
  for (NodeId V = 0; V != G.numNodes(); ++V)
    EXPECT_EQ(Row[V], Ref[V] == UnreachableDistance ? MsBfsUnreachableByte
                                                    : uint8_t(Ref[V]))
        << What << " node " << V;
}

TEST(MsBfs, DistanceRowMatchesBfsOnEveryFamily) {
  for (const SuperCayleyGraph &Scg : allFamiliesK5()) {
    Graph G = ExplicitScg(Scg).toGraph();
    for (NodeId Src : {NodeId(0), NodeId(57), NodeId(119)})
      expectRowMatchesBfs(G, Src, Scg.name() + " from " + std::to_string(Src));
  }
}

TEST(MsBfs, DistanceRowMarksUnreachableNodes) {
  // 0 - 1 - 2 and an isolated 3; 4 -> 0 is one-way, so 4 is unreachable
  // from 0 but reaches everything but 3.
  Graph G(5);
  G.addUndirectedEdge(0, 1);
  G.addUndirectedEdge(1, 2);
  G.addEdge(4, 0);
  expectRowMatchesBfs(G, 0, "from 0");
  expectRowMatchesBfs(G, 4, "from 4");
  expectRowMatchesBfs(G, 3, "from isolated 3");
  std::vector<uint8_t> Row = msBfsDistanceRow(Csr(G), 0);
  EXPECT_EQ(Row, (std::vector<uint8_t>{0, 1, 2, 0xFF, 0xFF}));
}

TEST(MsBfs, DistanceRowRejectsDistancesBeyondAByte) {
  // From one end of an N-node path the far end is at N - 1: 254 still
  // fits a byte, 255 collides with the unreachable sentinel.
  auto Path = [](NodeId Nodes) {
    Graph P(Nodes);
    for (NodeId V = 0; V + 1 != Nodes; ++V)
      P.addUndirectedEdge(V, V + 1);
    return Csr(P);
  };
  EXPECT_EQ(msBfsDistanceRow(Path(255), 0).back(), 254);
  EXPECT_THROW(msBfsDistanceRow(Path(256), 0), std::length_error);
}

TEST(MsBfs, DistanceRowRejectsSourceOutOfRange) {
  Csr C = ExplicitScg(SuperCayleyGraph::star(4)).toCsr();
  EXPECT_EQ(msBfsDistanceRow(C, C.numNodes() - 1).size(), C.numNodes());
  EXPECT_THROW(msBfsDistanceRow(C, C.numNodes()), std::invalid_argument);
  EXPECT_THROW(msBfsDistanceRow(Csr(Graph(0)), 0), std::invalid_argument);
}

TEST(MsBfs, LeanReachabilityAgreesWithBfs) {
  // The isConnectedFromZero fast path: counts must agree with full BFS on
  // connected, disconnected, and directed graphs.
  Graph Disconnected(6);
  Disconnected.addUndirectedEdge(0, 1);
  Disconnected.addUndirectedEdge(2, 3);
  EXPECT_EQ(bfsReachableCount(Disconnected, 0), bfs(Disconnected, 0).NumReached);
  EXPECT_FALSE(isConnectedFromZero(Disconnected));
  for (const SuperCayleyGraph &Scg : allFamiliesK5()) {
    Graph G = ExplicitScg(Scg).toGraph();
    EXPECT_EQ(bfsReachableCount(G, 0), bfs(G, 0).NumReached) << Scg.name();
    EXPECT_TRUE(isConnectedFromZero(G)) << Scg.name();
  }
}

// One-word groups: at most 64 sources, so the engine runs a single lane
// word per node -- the width of a batch before the 512-lane fusion. The
// next two names keep "Push" so test ids stay stable; the oracle is
// scalar bfs().
constexpr size_t OneWordLanes = 64;

TEST(MsBfsHybrid, MatchesPushOnEveryFamilyFullSourceSet) {
  for (const SuperCayleyGraph &Scg : allFamiliesK5())
    expectAllSourcesMatch(Scg, Scg.name() + " one-word", OneWordLanes);
}

TEST(MsBfsHybrid, MatchesPushAtK6) {
  // Larger undirected instance (720 nodes, 12 one-word groups) and the
  // directed rotator, where the transpose genuinely differs from the
  // forward CSR.
  expectAllSourcesMatch(SuperCayleyGraph::star(6), "star6 one-word",
                        OneWordLanes);
  expectAllSourcesMatch(SuperCayleyGraph::rotator(6),
                        "rotator6 (directed) one-word", OneWordLanes);
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
    expectGroupMatchesBfs(G, C, CT, std::span(Scattered).first(Count),
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
  expectAllSourcesMatch(Surviving, Csr(Surviving), "faulted star5 one-word",
                        OneWordLanes);
  expectSameStats(msAllPairsStats(Csr(Surviving)),
                  scalarAllPairsStats(Surviving), "faulted star5 sweep");

  // Two components plus an isolated node: unreached lanes stay
  // unreachable and both sweeps report Connected = false.
  Graph Two = twoComponents();
  Csr TwoCsr(Two);
  expectAllSourcesMatch(Two, TwoCsr, "two components one-word", OneWordLanes);
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
  // A sweep runs thousands of groups through one warm scratch per worker;
  // per-group heap growth would reintroduce the malloc storm
  // support/Scratch.h exists to prevent. One cold pass warms the buffers
  // (and proves warm results match cold ones), then a full all-sources
  // pass -- a full group and a tail group on star(6) -- must not allocate
  // at all. Sinks accumulate into locals, so any allocation counted here
  // is engine-internal.
  Csr C = ExplicitScg(SuperCayleyGraph::star(6)).toCsr();
  Csr CT = C.transpose();
  const NodeId N = C.numNodes();
  std::vector<NodeId> All(N);
  std::iota(All.begin(), All.end(), 0);
  MsBfsScratch Scratch;
  auto RunAll = [&](uint64_t &Sum, uint64_t &VisitCount) {
    for (size_t Begin = 0; Begin < All.size(); Begin += MsBfsGroupLanes) {
      auto Group = std::span(All).subspan(
          Begin, std::min<size_t>(MsBfsGroupLanes, All.size() - Begin));
      auto Tally = [&](NodeId, unsigned, uint64_t Mask, uint32_t Level) {
        Sum += uint64_t(Level) * uint64_t(std::popcount(Mask));
        VisitCount += uint64_t(std::popcount(Mask));
      };
      detail::msBfsFusedImpl<false>(C, CT, Group, Tally, nullptr, Scratch);
    }
  };
  uint64_t ColdSum = 0, ColdVisits = 0;
  RunAll(ColdSum, ColdVisits); // cold: buffers grow once.
  uint64_t WarmSum = 0, WarmVisits = 0;
  uint64_t Before = GHeapAllocations.load();
  RunAll(WarmSum, WarmVisits);
  uint64_t After = GHeapAllocations.load();
  EXPECT_EQ(After, Before) << "warm MS-BFS groups touched the heap";
  EXPECT_EQ(ColdSum, WarmSum);
  EXPECT_EQ(ColdVisits, WarmVisits);
  EXPECT_EQ(WarmVisits, uint64_t(N) * N); // connected: every pair once.
}

} // namespace
