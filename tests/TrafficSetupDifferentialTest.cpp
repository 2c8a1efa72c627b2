//===- tests/TrafficSetupDifferentialTest.cpp - Driver == replay ---------===//
//
// The traffic driver's label-deduped route setup (one liftedRoutes batch,
// routes shared through the simulator's route pool) is a pure
// optimization: simulateTrafficLoad must produce the SAME
// TrafficLoadResult -- every field except the wall-clock SetupSeconds --
// as a replay of the same trace with one scalar router call per pair on
// the full-scan reference loop (tests/ReferenceSimulator.h), across
// families, communication models and thread counts. The closed-loop
// source rides the same harness: the engine and the reference must agree
// on every deferral, and results must be byte-identical at 1, 2, and 8
// threads (the parallel batch chunking is a function of the batch length
// only, never the thread count).
//
//===----------------------------------------------------------------------===//

#include "ReferenceSimulator.h"

#include "comm/Workload.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

using namespace scg;

namespace {

WorkloadSpec uniformAt(double Rate, uint64_t Seed = 31) {
  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::UniformRandom;
  Spec.InjectionRate = Rate;
  Spec.Seed = Seed;
  return Spec;
}

/// Every deterministic field of the driver result (SetupSeconds is wall
/// clock and explicitly outside the contract).
void expectSameLoad(const TrafficLoadResult &A, const TrafficLoadResult &B,
                    const char *What) {
  EXPECT_EQ(A.Sim.Steps, B.Sim.Steps) << What;
  EXPECT_EQ(A.Sim.Delivered, B.Sim.Delivered) << What;
  EXPECT_EQ(A.Sim.Transmissions, B.Sim.Transmissions) << What;
  EXPECT_EQ(A.Sim.BusyLinkSteps, B.Sim.BusyLinkSteps) << What;
  EXPECT_EQ(A.Sim.MaxQueueLength, B.Sim.MaxQueueLength) << What;
  EXPECT_EQ(A.Sim.Completed, B.Sim.Completed) << What;
  EXPECT_EQ(A.Sim.DeferredInjections, B.Sim.DeferredInjections) << What;
  EXPECT_EQ(A.Sim.DeferredSteps, B.Sim.DeferredSteps) << What;
  EXPECT_EQ(A.Sim.LinkUtilization, B.Sim.LinkUtilization) << What;
  EXPECT_EQ(A.Offered, B.Offered) << What;
  EXPECT_EQ(A.OfferedRate, B.OfferedRate) << What;
  EXPECT_EQ(A.DeliveredRate, B.DeliveredRate) << What;
  EXPECT_EQ(A.MeanHops, B.MeanHops) << What;
  EXPECT_EQ(A.MeanLatency, B.MeanLatency) << What;
  EXPECT_EQ(A.P50Latency, B.P50Latency) << What;
  EXPECT_EQ(A.P99Latency, B.P99Latency) << What;
  EXPECT_EQ(A.MeanQueued, B.MeanQueued) << What;
  EXPECT_EQ(A.DistinctLabels, B.DistinctLabels) << What;
  EXPECT_EQ(A.DedupFactor, B.DedupFactor) << What;
}

struct NetCase {
  SuperCayleyGraph Family;
  double Rate;
  uint64_t Steps;
};

std::vector<NetCase> diffCases() {
  return {{SuperCayleyGraph::star(4), 0.15, 200},
          {SuperCayleyGraph::transpositionNetwork(4), 0.15, 200},
          {SuperCayleyGraph::insertionSelection(4), 0.15, 200},
          {SuperCayleyGraph::star(5), 0.20, 100},
          {SuperCayleyGraph::star(6), 0.20, 40}};
}

} // namespace

TEST(TrafficSetupDifferential, BatchedMatchesLegacyAcrossFamiliesModels) {
  for (const NetCase &C : diffCases()) {
    ExplicitScg Net(C.Family);
    for (CommModel Model :
         {CommModel::AllPort, CommModel::SinglePort,
          CommModel::SingleDimension}) {
      TrafficLoadResult A =
          simulateTrafficLoad(Net, Model, uniformAt(C.Rate), C.Steps);
      TrafficLoadResult B =
          referenceTrafficLoad(Net, Model, uniformAt(C.Rate), C.Steps);
      std::string What = C.Family.name() + "/" + commModelName(Model);
      expectSameLoad(A, B, What.c_str());
      // The dedup bookkeeping must be sane: at most one distinct label per
      // node (Cayley symmetry), at most one per offered message.
      EXPECT_LE(A.DistinctLabels, uint64_t(Net.numNodes()));
      EXPECT_LE(A.DistinctLabels, A.Offered);
      if (A.DistinctLabels)
        EXPECT_DOUBLE_EQ(A.DedupFactor,
                         double(A.Offered) / double(A.DistinctLabels));
    }
  }
}

TEST(TrafficSetupDifferential, BatchedMatchesLegacyOnStepEngine) {
  // The batched arena feeds scheduleInjectionShared into the engine; the
  // reference replay routes every pair with the scalar router and runs
  // the full-scan step loop. Every field but SetupSeconds must agree.
  ExplicitScg Net(SuperCayleyGraph::star(5));
  TrafficLoadResult A = simulateTrafficLoad(Net, CommModel::SinglePort,
                                            uniformAt(0.3), 150);
  TrafficLoadResult B = referenceTrafficLoad(Net, CommModel::SinglePort,
                                             uniformAt(0.3), 150);
  expectSameLoad(A, B, "reference step loop");
}

TEST(TrafficSetupDifferential, BatchedSetupThreadCountInvariant) {
  // routeBatchRelative chunks by batch length only; the composed driver
  // result must be byte-identical at every thread count.
  ExplicitScg Net(SuperCayleyGraph::star(5));
  setGlobalThreadCount(1);
  TrafficLoadResult Base = simulateTrafficLoad(Net, CommModel::SinglePort,
                                               uniformAt(0.25), 120);
  for (unsigned Threads : {2u, 8u}) {
    setGlobalThreadCount(Threads);
    TrafficLoadResult R = simulateTrafficLoad(Net, CommModel::SinglePort,
                                              uniformAt(0.25), 120);
    expectSameLoad(Base, R,
                   (std::to_string(Threads) + " threads").c_str());
  }
  setGlobalThreadCount(0);
}

TEST(TrafficSetupDifferential, ClosedLoopEngineAndThreadIdentity) {
  // Closed-loop admission (deferral, retry, depth accounting) must agree
  // between the engine and the reference loop and across thread counts,
  // in a regime where throttling actually engages.
  ExplicitScg Net(SuperCayleyGraph::star(4));
  WorkloadSpec Spec = uniformAt(0.5);
  TrafficLoadOptions Closed;
  Closed.ClosedLoopMaxQueue = 2;
  for (CommModel Model :
       {CommModel::AllPort, CommModel::SinglePort,
        CommModel::SingleDimension}) {
    setGlobalThreadCount(1);
    TrafficLoadResult A = simulateTrafficLoad(Net, Model, Spec, 200, Closed);
    TrafficLoadResult Ref = referenceTrafficLoad(Net, Model, Spec, 200, 2);
    // Throttling must have engaged, or this test pins nothing.
    EXPECT_GT(A.Sim.DeferredInjections, 0u) << commModelName(Model);
    expectSameLoad(A, Ref, (commModelName(Model) + " vs reference").c_str());
    for (unsigned Threads : {2u, 8u}) {
      setGlobalThreadCount(Threads);
      TrafficLoadResult C = simulateTrafficLoad(Net, Model, Spec, 200, Closed);
      expectSameLoad(A, C,
                     (commModelName(Model) + " @" + std::to_string(Threads))
                         .c_str());
    }
  }
  setGlobalThreadCount(0);
}
