//===- tests/CommTest.cpp - Simulator, MNB, and TE tests -----------------===//

#include "ReferenceSimulator.h"

#include "comm/Mnb.h"
#include "comm/Simulator.h"
#include "comm/TotalExchange.h"
#include "comm/Workload.h"

#include "emulation/ScgRouter.h"
#include "graph/Metrics.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(Simulator, SinglePacketTravelsItsRoute) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  Sim.injectPacket(0, {0, 1, 0}); // three hops.
  SimulationResult R = Sim.run(100);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Steps, 3u);
  EXPECT_EQ(R.Delivered, 1u);
  EXPECT_EQ(R.Transmissions, 3u);
}

TEST(Simulator, EmptyRouteDeliversInstantly) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  Sim.injectPacket(0, {});
  SimulationResult R = Sim.run(10);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Steps, 0u);
}

TEST(Simulator, ContendingPacketsSerializeOnALink) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  // Four packets from node 0 over the same first link.
  for (int I = 0; I != 4; ++I)
    Sim.injectPacket(0, {0});
  SimulationResult R = Sim.run(100);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Steps, 4u); // one per step through the single link.
  EXPECT_EQ(R.MaxQueueLength, 4u); // the initial burst, sampled pre-step.
}

TEST(Simulator, SinglePortUsesOneLinkPerNodePerStep) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::SinglePort);
  // Two packets on two different links of node 0: all-port would finish in
  // one step, single-port needs two.
  Sim.injectPacket(0, {0});
  Sim.injectPacket(0, {1});
  SimulationResult R = Sim.run(100);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Steps, 2u);
}

TEST(Simulator, SingleDimensionHonorsCycle) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::SingleDimension);
  Sim.setDimensionCycle({2, 0});
  // A packet needing link 0 must wait for step 2 of the cycle.
  Sim.injectPacket(0, {0});
  SimulationResult R = Sim.run(100);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Steps, 2u);
}

TEST(Simulator, StepCapReportsIncomplete) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  for (int I = 0; I != 10; ++I)
    Sim.injectPacket(0, {0});
  SimulationResult R = Sim.run(3);
  EXPECT_FALSE(R.Completed);
  EXPECT_EQ(R.Delivered, 3u);
}

// Bad input to the simulator's public entry points is rejected with a
// reported error, never an assert or an out-of-range queue index.

TEST(SimulatorInput, DimensionCycleMustBeNonemptyAndInRange) {
  ExplicitScg Net(SuperCayleyGraph::star(4)); // degree 3.
  NetworkSimulator Sim(Net, CommModel::SingleDimension);
  EXPECT_THROW(Sim.setDimensionCycle({}), std::invalid_argument);
  EXPECT_THROW(Sim.setDimensionCycle({0, 3}), std::invalid_argument);
  EXPECT_THROW(Sim.setDimensionCycle({200}), std::invalid_argument);
  // A rejected cycle leaves the previous one in place.
  Sim.injectPacket(0, {2});
  EXPECT_TRUE(Sim.run(10).Completed);
}

TEST(SimulatorInput, InjectPacketRejectsBadSourceHopOrFlits) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  EXPECT_THROW(Sim.injectPacket(Net.numNodes(), {0}), std::invalid_argument);
  EXPECT_THROW(Sim.injectPacket(0, {0}, /*FlitCount=*/0),
               std::invalid_argument);
  EXPECT_THROW(Sim.injectPacket(0, {0, 3}), std::invalid_argument);
  // Nothing was half-injected.
  SimulationResult R = Sim.run(10);
  EXPECT_EQ(R.Delivered, 0u);
  EXPECT_EQ(R.Steps, 0u);
}

TEST(SimulatorInput, ScheduleInjectionRejectsBadSourceHopOrFlits) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::SinglePort);
  EXPECT_THROW(Sim.scheduleInjection(0, Net.numNodes(), {0}),
               std::invalid_argument);
  EXPECT_THROW(Sim.scheduleInjection(0, 0, {0}, /*FlitCount=*/0),
               std::invalid_argument);
  EXPECT_THROW(Sim.scheduleInjection(5, 0, {1, 7}), std::invalid_argument);
  EXPECT_EQ(Sim.scheduleInjection(1, 0, {1}), 0u); // ids stay contiguous.
}

TEST(SimulatorInput, SharedRoutesAreValidatedOnceAndHandlesChecked) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  const std::vector<GenIndex> Bad = {0, 3};
  EXPECT_THROW(Sim.addSharedRoute(Bad), std::invalid_argument);
  const std::vector<GenIndex> Good = {0, 1};
  uint32_t Handle = Sim.addSharedRoute(Good);
  EXPECT_EQ(Handle, 0u);
  EXPECT_THROW(Sim.scheduleInjectionShared(0, 0, Handle + 1),
               std::invalid_argument);
  EXPECT_THROW(Sim.scheduleInjectionShared(0, Net.numNodes(), Handle),
               std::invalid_argument);
  EXPECT_THROW(Sim.scheduleInjectionShared(0, 0, Handle, /*FlitCount=*/0),
               std::invalid_argument);
  Sim.scheduleInjectionShared(0, 0, Handle);
  SimulationResult R = Sim.run(10);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Delivered, 1u);
}

TEST(SimulatorInput, RunsOnce) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  NetworkSimulator Sim(Net, CommModel::AllPort);
  Sim.injectPacket(0, {0});
  Sim.run(10);
  EXPECT_THROW(Sim.run(10), std::logic_error);
}

TEST(BroadcastTreeTest, CoversNetworkAtBfsDepth) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  BroadcastTree Tree(Net);
  EXPECT_EQ(Tree.numEdges(), Net.numNodes() - 1);
  DistanceStats Stats = vertexTransitiveStats(Net.toGraph());
  EXPECT_EQ(Tree.height(), Stats.Diameter);
  EXPECT_EQ(Tree.depth(0), 0u);
}

TEST(Mnb, LowerBoundFormula) {
  EXPECT_EQ(mnbLowerBound(120, 4), 30u);
  EXPECT_EQ(mnbLowerBound(121, 4), 30u);
  EXPECT_EQ(mnbLowerBound(122, 4), 31u);
}

TEST(Mnb, CompletesOnStar5) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  BroadcastTree Tree(Net);
  MnbResult R = simulateMnb(Net, Tree);
  EXPECT_EQ(R.Deliveries, Net.numNodes() * (Net.numNodes() - 1));
  EXPECT_GE(R.Steps, R.LowerBound);
  EXPECT_LE(R.Ratio, 4.0); // within a small constant of optimal.
}

TEST(Mnb, CompletesOnMacroStar22) {
  ExplicitScg Net(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2));
  BroadcastTree Tree(Net);
  MnbResult R = simulateMnb(Net, Tree);
  EXPECT_EQ(R.Deliveries, Net.numNodes() * (Net.numNodes() - 1));
  EXPECT_LE(R.Ratio, 4.0);
}

TEST(Mnb, CompletesOnInsertionSelection5) {
  ExplicitScg Net(SuperCayleyGraph::insertionSelection(5));
  BroadcastTree Tree(Net);
  MnbResult R = simulateMnb(Net, Tree);
  EXPECT_EQ(R.Deliveries, Net.numNodes() * (Net.numNodes() - 1));
  EXPECT_LE(R.Ratio, 4.0);
}

TEST(TotalExchange, LowerBoundUsesAverageDistance) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  DistanceStats Stats = vertexTransitiveStats(Net.toGraph());
  uint64_t ExpectedHops = uint64_t(
      Stats.AverageDistance * (Net.numNodes() - 1) + 0.5);
  EXPECT_EQ(teLowerBound(Net), (ExpectedHops + 3) / 4);
}

TEST(TotalExchange, CompletesOnStar5) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  TeResult R = simulateTotalExchange(Net);
  EXPECT_EQ(R.Packets, Net.numNodes() * (Net.numNodes() - 1));
  EXPECT_GE(R.Steps, R.LowerBound);
  EXPECT_LE(R.Ratio, 6.0);
}

TEST(TotalExchange, CompletesOnMacroStar22) {
  ExplicitScg Net(SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2));
  TeResult R = simulateTotalExchange(Net);
  EXPECT_GE(R.Steps, R.LowerBound);
  EXPECT_LE(R.Ratio, 8.0);
}

TEST(TotalExchange, CompletesOnIs5) {
  ExplicitScg Net(SuperCayleyGraph::insertionSelection(5));
  TeResult R = simulateTotalExchange(Net);
  EXPECT_GE(R.Steps, R.LowerBound);
  EXPECT_LE(R.Ratio, 6.0);
}

TEST(TotalExchange, MatchesScalarRoutedReferenceReplay) {
  // One batched route per relative label against one scalar router call
  // per (source, destination) pair replayed on the full-scan reference
  // loop: every result field.
  for (auto Scg : {SuperCayleyGraph::star(5),
                   SuperCayleyGraph::create(NetworkKind::MacroStar, 2, 2)}) {
    ExplicitScg Net(Scg);
    for (CommModel Model :
         {CommModel::AllPort, CommModel::SinglePort,
          CommModel::SingleDimension}) {
      TeResult A = simulateTotalExchange(Net, Model);
      TeResult B = referenceTotalExchange(Net, Model);
      std::string What = Scg.name() + "/" + commModelName(Model);
      EXPECT_EQ(A.Steps, B.Steps) << What;
      EXPECT_EQ(A.Packets, B.Packets) << What;
      EXPECT_EQ(A.LowerBound, B.LowerBound) << What;
      EXPECT_EQ(A.Ratio, B.Ratio) << What;
      EXPECT_EQ(A.LinkUtilization, B.LinkUtilization) << What;
      EXPECT_EQ(A.AverageRouteLength, B.AverageRouteLength) << What;
    }
  }
}

// The comm drivers reject what they cannot route with a reported error.

TEST(CommDriverInput, TotalExchangeRejectsMoreThan720Nodes) {
  ExplicitScg Net(SuperCayleyGraph::star(7));
  EXPECT_THROW(simulateTotalExchange(Net), std::invalid_argument);
}

TEST(CommDriverInput, TotalExchangeRejectsFamilyWithoutStarEmulation) {
  ExplicitScg Net(SuperCayleyGraph::bubbleSort(4));
  EXPECT_THROW(simulateTotalExchange(Net), std::invalid_argument);
}

TEST(CommDriverInput, TrafficLoadRejectsFamilyWithoutStarEmulation) {
  ExplicitScg Net(SuperCayleyGraph::rotator(4));
  WorkloadSpec Spec;
  Spec.InjectionRate = 0.2;
  EXPECT_THROW(simulateTrafficLoad(Net, CommModel::AllPort, Spec, 20),
               std::invalid_argument);
}

TEST(CommModelNames, AreStable) {
  EXPECT_EQ(commModelName(CommModel::AllPort), "all-port");
  EXPECT_EQ(commModelName(CommModel::SinglePort), "single-port");
  EXPECT_EQ(commModelName(CommModel::SingleDimension), "single-dimension");
}
