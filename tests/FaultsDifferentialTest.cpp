//===- tests/FaultsDifferentialTest.cpp - Fault analyses vs scalar BFS ----===//
//
// Holds analyzeReachabilityUnderFaults and analyzeUnderFaults (fused
// 512-lane MS-BFS over the surviving graph and its transpose) to one
// scalar bfs() per healthy source on applyFaults(G, F), field for field.
// Fault sets are seeded random link, arc and node faults; star(6) has 720
// nodes, so a fault-free sweep runs one full 512-lane group plus a
// 208-lane tail, and the node-fault cases shorten the tail further. The
// top rates leave the survivors disconnected.
//
//===----------------------------------------------------------------------===//

#include "graph/Bfs.h"
#include "graph/Faults.h"
#include "networks/Explicit.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace scg;

namespace {

/// The per-source scalar reference: every healthy node runs its own BFS
/// over the surviving graph.
ReachabilityAnalysis scalarReachability(const Graph &G,
                                        const FaultSet &Faults) {
  ReachabilityAnalysis Ref;
  Graph Surviving = applyFaults(G, Faults);
  uint32_t MaxEccentricity = 0;
  bool Connected = true;
  for (NodeId Node = 0; Node != G.numNodes(); ++Node)
    Ref.HealthyNodes += !Faults.nodeFailed(Node);
  for (NodeId Src = 0; Src != G.numNodes(); ++Src) {
    if (Faults.nodeFailed(Src))
      continue;
    BfsResult R = bfs(Surviving, Src);
    Ref.ReachableOrderedPairs += R.NumReached - 1;
    Connected = Connected && R.NumReached == Ref.HealthyNodes;
    MaxEccentricity = std::max(MaxEccentricity, R.Eccentricity);
  }
  Ref.Connected = Ref.HealthyNodes > 0 && Connected;
  Ref.Diameter = Ref.Connected ? MaxEccentricity : 0;
  return Ref;
}

enum class FaultKind { Link, Arc, Node };

/// Fails each component independently with probability ~Rate, drawn from
/// one seeded stream in a fixed component order.
FaultSet randomFaults(const Graph &G, FaultKind Kind, double Rate,
                      uint64_t Seed) {
  SplitMix64 Rng(Seed);
  const uint64_t Threshold = uint64_t(Rate * 1e9);
  auto Draw = [&] { return Rng.nextBelow(1000000000) < Threshold; };
  FaultSet Faults;
  if (Kind == FaultKind::Node) {
    for (NodeId Node = 0; Node != G.numNodes(); ++Node)
      if (Draw())
        Faults.failNode(Node);
    return Faults;
  }
  for (NodeId From = 0; From != G.numNodes(); ++From)
    for (NodeId To : G.neighbors(From)) {
      if (Kind == FaultKind::Link && From > To)
        continue; // one draw per undirected link.
      if (!Draw())
        continue;
      if (Kind == FaultKind::Link)
        Faults.failLink(From, To);
      else
        Faults.failDirectedLink(From, To);
    }
  return Faults;
}

/// Runs both engine analyses against the reference; returns whether the
/// survivors were connected, so callers can check both outcomes occur.
bool expectMatchesScalar(const Graph &G, const FaultSet &Faults,
                         const std::string &What) {
  ReachabilityAnalysis Ref = scalarReachability(G, Faults);
  ReachabilityAnalysis Reach = analyzeReachabilityUnderFaults(G, Faults);
  EXPECT_EQ(Reach.HealthyNodes, Ref.HealthyNodes) << What;
  EXPECT_EQ(Reach.ReachableOrderedPairs, Ref.ReachableOrderedPairs) << What;
  EXPECT_EQ(Reach.Connected, Ref.Connected) << What;
  EXPECT_EQ(Reach.Diameter, Ref.Diameter) << What;
  FaultAnalysis Health = analyzeUnderFaults(G, Faults);
  EXPECT_EQ(Health.HealthyNodes, Ref.HealthyNodes) << What;
  EXPECT_EQ(Health.Connected, Ref.Connected) << What;
  EXPECT_EQ(Health.Diameter, Ref.Diameter) << What;
  return Ref.Connected;
}

/// Sweeps a rate ladder of seeded fault sets of one kind over \p G and
/// requires the ladder to produce both connected and disconnected
/// survivors.
void expectLadderMatches(const Graph &G, FaultKind Kind,
                         const std::string &Name) {
  unsigned Connected = 0, Disconnected = 0;
  for (double Rate : {0.0, 0.01, 0.05, 0.15, 0.35, 0.6})
    for (uint64_t Seed : {1u, 2u, 3u}) {
      FaultSet Faults = randomFaults(G, Kind, Rate, Seed);
      bool Ok = expectMatchesScalar(G, Faults,
                                    Name + " rate " + std::to_string(Rate) +
                                        " seed " + std::to_string(Seed));
      ++(Ok ? Connected : Disconnected);
    }
  EXPECT_GT(Connected, 0u) << Name;
  EXPECT_GT(Disconnected, 0u) << Name;
}

TEST(FaultsDifferential, StarLinkFaultsSpanGroups) {
  Graph G = ExplicitScg(SuperCayleyGraph::star(6)).toGraph();
  ASSERT_EQ(G.numNodes(), 720u);
  expectLadderMatches(G, FaultKind::Link, "star(6) links");
}

TEST(FaultsDifferential, StarArcFaultsBreakSymmetry) {
  // Single failed arcs leave a directed survivor graph: the pull pass
  // must gather from true in-neighbours.
  Graph G = ExplicitScg(SuperCayleyGraph::star(6)).toGraph();
  expectLadderMatches(G, FaultKind::Arc, "star(6) arcs");
}

TEST(FaultsDifferential, StarNodeFaultsShortenTheTailGroup) {
  Graph G = ExplicitScg(SuperCayleyGraph::star(6)).toGraph();
  expectLadderMatches(G, FaultKind::Node, "star(6) nodes");
}

TEST(FaultsDifferential, MacroStarEveryFaultKind) {
  Graph G = ExplicitScg(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2))
                .toGraph();
  expectLadderMatches(G, FaultKind::Link, "MS(2,2) links");
  expectLadderMatches(G, FaultKind::Arc, "MS(2,2) arcs");
  expectLadderMatches(G, FaultKind::Node, "MS(2,2) nodes");
}

TEST(FaultsDifferential, RotatorArcAndNodeFaults) {
  // A directed family: its arcs fail one at a time, as in the campaigns.
  Graph G = ExplicitScg(SuperCayleyGraph::rotator(5)).toGraph();
  ASSERT_FALSE(G.isUndirected());
  expectLadderMatches(G, FaultKind::Arc, "rotator(5) arcs");
  expectLadderMatches(G, FaultKind::Node, "rotator(5) nodes");
}

TEST(FaultsDifferential, AllNodesFailedAndSingleSurvivor) {
  Graph G = ExplicitScg(SuperCayleyGraph::star(4)).toGraph();
  FaultSet All;
  for (NodeId Node = 0; Node != G.numNodes(); ++Node)
    All.failNode(Node);
  EXPECT_FALSE(expectMatchesScalar(G, All, "star(4) all nodes failed"));
  FaultSet AllButOne;
  for (NodeId Node = 1; Node != G.numNodes(); ++Node)
    AllButOne.failNode(Node);
  EXPECT_TRUE(expectMatchesScalar(G, AllButOne, "star(4) one survivor"));
}

} // namespace
