//===- tests/MsBfsTest.cpp - Bit-parallel multi-source BFS pins ----------===//
//
// Differential tests for the bit-parallel distance engine (graph/MsBfs.h):
//
//  * msBfs / msBfsDistances must agree with one scalar bfs() per source --
//    distances, eccentricity, reached count, and distance sum, per lane --
//    on every network family at k = 5, from both Csr builds (Graph
//    flatten and ExplicitScg::toCsr).
//  * Source lists that are not a multiple (or a divisor) of 64 lanes, in
//    arbitrary order, with duplicates.
//  * Disconnected and faulted graphs: unreached nodes, per-lane reached
//    counts, and the Connected=false sweep result.
//  * msBfsDistanceRow (the TableStore row) == bfs() distances byte for
//    byte on every family, 0xFF where unreachable, and a throw where a
//    distance would collide with that sentinel.
//  * Input checks: msBfsCore / msBfs / msBfsDistances throw
//    std::invalid_argument on more than 64 sources, a source out of range
//    or a transpose of the wrong size; msBfsDistanceRow on a source out of
//    range.
//  * allPairsStats (now MS-BFS-backed) == scalarAllPairsStats everywhere,
//    and parallel == serial byte-identity at 1/2/8 threads (the
//    determinism contract, under the `parallel` ctest label).
//
//===----------------------------------------------------------------------===//

#include "graph/Faults.h"
#include "graph/Metrics.h"
#include "graph/MsBfs.h"
#include "networks/Classic.h"
#include "networks/Explicit.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <stdexcept>

using namespace scg;

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

/// Checks one batch of sources against one scalar bfs() per source:
/// distance rows byte-equal, per-lane stats equal.
void expectBatchMatchesScalar(const Graph &G, const Csr &C,
                              std::span<const NodeId> Sources,
                              const std::string &What) {
  Csr CT = C.transpose();
  MsBfsBatch Batch = msBfs(C, CT, Sources);
  std::vector<std::vector<uint32_t>> Rows = msBfsDistances(C, CT, Sources);
  ASSERT_EQ(Batch.Eccentricity.size(), Sources.size()) << What;
  ASSERT_EQ(Rows.size(), Sources.size()) << What;
  for (size_t Lane = 0; Lane != Sources.size(); ++Lane) {
    BfsResult Ref = bfs(G, Sources[Lane]);
    EXPECT_EQ(Rows[Lane], Ref.Distance)
        << What << " lane " << Lane << " source " << Sources[Lane];
    EXPECT_EQ(Batch.Eccentricity[Lane], Ref.Eccentricity) << What << " lane "
                                                          << Lane;
    EXPECT_EQ(Batch.NumReached[Lane], Ref.NumReached) << What << " lane "
                                                      << Lane;
    EXPECT_EQ(Batch.DistanceSum[Lane], Ref.DistanceSum) << What << " lane "
                                                        << Lane;
  }
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

TEST(MsBfs, MatchesScalarOnEveryFamilyFullSourceSet) {
  for (const SuperCayleyGraph &Scg : allFamiliesK5()) {
    ExplicitScg Net(Scg);
    Graph G = Net.toGraph();
    Csr FromGraph(G);
    Csr FromTable = Net.toCsr();
    // All 120 nodes as sources: batches of 64 + a 56-lane tail, from both
    // CSR builds.
    std::vector<NodeId> All(Net.numNodes());
    std::iota(All.begin(), All.end(), 0);
    for (size_t Begin = 0; Begin < All.size(); Begin += MsBfsLanes) {
      size_t Count = std::min<size_t>(MsBfsLanes, All.size() - Begin);
      auto Chunk = std::span(All).subspan(Begin, Count);
      expectBatchMatchesScalar(G, FromGraph, Chunk,
                               Scg.name() + " csr(graph)");
      expectBatchMatchesScalar(G, FromTable, Chunk,
                               Scg.name() + " csr(table)");
    }
  }
}

TEST(MsBfs, OddSourceCountsAndDuplicates) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  Graph G = Net.toGraph();
  Csr C(G);
  // 1, 2, 37, 63, 64 lanes; scattered, unordered, with a duplicate node.
  std::vector<NodeId> Scattered;
  for (NodeId I = 0; I != 63; ++I)
    Scattered.push_back((I * 37 + 11) % Net.numNodes());
  Scattered[20] = Scattered[3]; // duplicated source on two lanes.
  for (size_t Count : {size_t(1), size_t(2), size_t(37), size_t(63),
                       size_t(Scattered.size())})
    expectBatchMatchesScalar(G, C, std::span(Scattered).first(Count),
                             "star5 scattered " + std::to_string(Count));
  std::vector<NodeId> Full(64, 0);
  std::iota(Full.begin(), Full.end(), NodeId(17));
  expectBatchMatchesScalar(G, C, Full, "star5 full word");
}

TEST(MsBfs, DisconnectedGraphPerLaneReach) {
  // Two components (a 4-path and a 3-cycle) plus an isolated node.
  Graph G(8);
  for (NodeId I = 0; I + 1 != 4; ++I)
    G.addUndirectedEdge(I, I + 1);
  G.addUndirectedEdge(4, 5);
  G.addUndirectedEdge(5, 6);
  G.addUndirectedEdge(6, 4);
  Csr C(G);
  std::vector<NodeId> Sources(8);
  std::iota(Sources.begin(), Sources.end(), 0);
  expectBatchMatchesScalar(G, C, Sources, "two components");
  MsBfsBatch Batch = msBfs(C, C.transpose(), Sources);
  EXPECT_EQ(Batch.NumReached[0], 4u);
  EXPECT_EQ(Batch.NumReached[4], 3u);
  EXPECT_EQ(Batch.NumReached[7], 1u); // the isolated node reaches itself.
  EXPECT_EQ(Batch.Eccentricity[7], 0u);
  EXPECT_EQ(Batch.DistanceSum[7], 0u);
  expectSameStats(allPairsStats(G), scalarAllPairsStats(G), "disconnected");
  EXPECT_FALSE(allPairsStats(G).Connected);
}

TEST(MsBfs, FaultedGraphMatchesScalar) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  Graph G = Net.toGraph();
  FaultSet Faults;
  Faults.failNode(7);
  Faults.failNode(63);
  Faults.failLink(0, G.neighbors(0)[0]);
  Graph Surviving = applyFaults(G, Faults);
  Csr C(Surviving);
  std::vector<NodeId> Sources;
  for (NodeId Node = 0; Node != Surviving.numNodes(); ++Node)
    if (!Faults.nodeFailed(Node))
      Sources.push_back(Node);
  for (size_t Begin = 0; Begin < Sources.size(); Begin += MsBfsLanes)
    expectBatchMatchesScalar(
        Surviving, C,
        std::span(Sources).subspan(
            Begin, std::min<size_t>(MsBfsLanes, Sources.size() - Begin)),
        "faulted star5");
  expectSameStats(allPairsStats(Surviving), scalarAllPairsStats(Surviving),
                  "faulted star5 sweep");
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
  // One larger instance (720 nodes: 12 batches) per acceptance criteria.
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

/// Runs \p Sources through every public 64-lane entry point, each of
/// which must reject the input before traversing.
void expectEveryEntryPointRejects(const Csr &C, const Csr &CT,
                                  std::span<const NodeId> Sources) {
  auto Ignore = [](NodeId, uint64_t, uint32_t) {};
  EXPECT_THROW(msBfsCore(C, CT, Sources, Ignore), std::invalid_argument);
  EXPECT_THROW(msBfs(C, CT, Sources), std::invalid_argument);
  EXPECT_THROW(msBfsDistances(C, CT, Sources), std::invalid_argument);
}

TEST(MsBfs, RejectsMoreThan64Sources) {
  Csr C = ExplicitScg(SuperCayleyGraph::star(5)).toCsr();
  std::vector<NodeId> Sources(MsBfsLanes + 1);
  std::iota(Sources.begin(), Sources.end(), NodeId(0));
  expectEveryEntryPointRejects(C, C.transpose(), Sources);
  // One word's worth is the limit, not past it.
  Sources.pop_back();
  EXPECT_EQ(msBfs(C, C.transpose(), Sources).NumReached.size(), MsBfsLanes);
}

TEST(MsBfs, RejectsSourceOutOfRange) {
  Csr C = ExplicitScg(SuperCayleyGraph::star(4)).toCsr();
  std::vector<NodeId> Sources = {0, 5, C.numNodes()};
  expectEveryEntryPointRejects(C, C.transpose(), Sources);
}

TEST(MsBfs, RejectsMismatchedTranspose) {
  Csr C = ExplicitScg(SuperCayleyGraph::star(4)).toCsr();
  std::vector<NodeId> Sources = {0, 1};
  // Wrong node count, then the right node count with missing edges.
  expectEveryEntryPointRejects(
      C, ExplicitScg(SuperCayleyGraph::star(5)).toCsr(), Sources);
  Graph Sparse(C.numNodes());
  Sparse.addUndirectedEdge(0, 1);
  expectEveryEntryPointRejects(C, Csr(Sparse), Sources);
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

} // namespace
