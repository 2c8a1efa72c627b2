//===- tests/SimulatorDifferentialTest.cpp - Engine vs reference loop ----===//
//
// Differential harness pinning NetworkSimulator to the full-scan reference
// loop (tests/ReferenceSimulator.h) byte for byte: every SimulationResult
// field except TouchedWork, the per-packet delivery steps, the summed
// queue occupancy and the aggregate observer streams, for every network
// family at k = 4 across all three communication models, under
// permutation-routing traffic, mixed random multi-flit traffic, timed
// workload injections at flit counts 1 and 3, closed-loop admission,
// MaxSteps caps that land mid-message, and stalled single-dimension
// schedules. A ModelInvariantChecker rides along on every run (any
// violation is a test failure), and every engine run is repeated without
// observers: the result, TouchedWork included, must not change.
//
//===----------------------------------------------------------------------===//

#include "ReferenceSimulator.h"

#include "comm/PermutationRouting.h"
#include "comm/SimObserver.h"
#include "comm/Workload.h"
#include "emulation/ScgRouter.h"
#include "emulation/SdcEmulation.h"

#include "support/Format.h"

#include <array>
#include <gtest/gtest.h>

using namespace scg;

namespace {

/// All network families at k = 4: the single-level classes plus every box
/// class at (l, n) = (3, 1) (k = l * n + 1).
std::vector<SuperCayleyGraph> familiesAtK4() {
  std::vector<SuperCayleyGraph> Nets;
  Nets.push_back(SuperCayleyGraph::star(4));
  Nets.push_back(SuperCayleyGraph::bubbleSort(4));
  Nets.push_back(SuperCayleyGraph::transpositionNetwork(4));
  Nets.push_back(SuperCayleyGraph::rotator(4));
  Nets.push_back(SuperCayleyGraph::insertionSelection(4));
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::RotationStar,
        NetworkKind::CompleteRotationStar, NetworkKind::MacroRotator,
        NetworkKind::RotationRotator, NetworkKind::CompleteRotationRotator,
        NetworkKind::MacroIS, NetworkKind::RotationIS,
        NetworkKind::CompleteRotationIS})
    Nets.push_back(SuperCayleyGraph::create(Kind, 3, 1));
  return Nets;
}

const std::vector<CommModel> AllModels = {
    CommModel::AllPort, CommModel::SinglePort, CommModel::SingleDimension};

/// Deterministic mixed traffic: random valid routes, every fourth packet a
/// multi-flit message, plus a few zero-hop packets. Works on either
/// simulator.
template <typename SimT>
void injectMixed(SimT &Sim, const ExplicitScg &Net, unsigned Count,
                 uint64_t Seed, unsigned ZeroHop = 0) {
  SplitMix64 Rng(Seed);
  for (unsigned P = 0; P != Count; ++P) {
    NodeId Src = Rng.nextBelow(Net.numNodes());
    unsigned Len = 1 + Rng.nextBelow(5);
    std::vector<GenIndex> Route;
    for (unsigned H = 0; H != Len; ++H)
      Route.push_back(Rng.nextBelow(Net.degree()));
    Sim.injectPacket(Src, Route, P % 4 == 0 ? 1 + P % 3 : 1);
  }
  for (unsigned Z = 0; Z != ZeroHop; ++Z)
    Sim.injectPacket(Rng.nextBelow(Net.numNodes()), {});
}

/// Every SimulationResult field but TouchedWork, the one that measures the
/// implementation rather than the traffic.
void expectSameResult(const SimulationResult &Ref, const SimulationResult &Got,
                      const std::string &What) {
  EXPECT_EQ(Ref.Completed, Got.Completed) << What;
  EXPECT_EQ(Ref.Steps, Got.Steps) << What;
  EXPECT_EQ(Ref.Delivered, Got.Delivered) << What;
  EXPECT_EQ(Ref.Transmissions, Got.Transmissions) << What;
  EXPECT_EQ(Ref.BusyLinkSteps, Got.BusyLinkSteps) << What;
  EXPECT_EQ(Ref.MaxQueueLength, Got.MaxQueueLength) << What;
  EXPECT_EQ(Ref.LinkUtilization, Got.LinkUtilization) << What;
  EXPECT_EQ(Ref.DeferredInjections, Got.DeferredInjections) << What;
  EXPECT_EQ(Ref.DeferredSteps, Got.DeferredSteps) << What;
}

/// Aggregate observer stream. The engine fires onStep only for processed
/// steps, so step counts may differ; everything that describes traffic
/// (transmission starts, occupancy records, arrivals, and the step each
/// packet was delivered, and the pre-step queue samples of every step
/// with queued packets) must be identical.
struct StreamRecorder final : SimObserver {
  std::vector<std::pair<uint32_t, uint64_t>> DeliverySteps;
  /// (step, queued packets, deepest queue) for steps with queued packets;
  /// a skipped step has none, so both loops record the same list.
  std::vector<std::array<uint64_t, 3>> QueueSamples;
  uint64_t Started = 0, Occupancy = 0, Arrivals = 0;
  void onStep(const NetworkSimulator &, const StepEvents &E) override {
    for (const LinkActivity &A : E.Active)
      A.Started ? ++Started : ++Occupancy;
    Arrivals += E.Arrivals.size();
    for (uint32_t Id : E.Deliveries)
      DeliverySteps.push_back({Id, E.Step});
    if (E.QueuedPackets)
      QueueSamples.push_back({E.Step, E.QueuedPackets, E.MaxQueueDepth});
  }
};

struct RunOutcome {
  SimulationResult Result;
  std::vector<uint64_t> DeliverySteps;
  uint64_t QueuedSum = 0;
  StreamRecorder Stream;
  bool InvariantsClean = true;
  std::string InvariantReport;
};

/// Runs \p Fill-ed traffic on (Net, Model) in a simulator of type SimT,
/// optionally with a stream recorder and a model-invariant checker.
template <typename SimT, typename FillFn>
RunOutcome runOne(const ExplicitScg &Net, CommModel Model, uint64_t MaxSteps,
                  FillFn Fill, bool Observe = true) {
  SimT Sim(Net, Model);
  Fill(Sim);
  RunOutcome Out;
  ModelInvariantChecker Checker;
  if (Observe) {
    Sim.addObserver(&Out.Stream);
    Sim.addObserver(&Checker);
  }
  Out.Result = Sim.run(MaxSteps);
  Out.DeliverySteps.assign(Sim.deliverySteps().begin(),
                           Sim.deliverySteps().end());
  Out.QueuedSum = Sim.queuedPacketSum();
  Out.InvariantsClean = Checker.clean();
  Out.InvariantReport = Checker.report();
  return Out;
}

/// The engine against the reference on one traffic fill: observed runs of
/// both, plus an unobserved engine run that must match the observed one
/// exactly (TouchedWork included). Returns the observed engine run.
template <typename FillFn>
RunOutcome expectAgree(const ExplicitScg &Net, CommModel Model,
                       uint64_t MaxSteps, const std::string &What,
                       FillFn Fill) {
  RunOutcome Ref = runOne<ReferenceSimulator>(Net, Model, MaxSteps, Fill);
  RunOutcome Got = runOne<NetworkSimulator>(Net, Model, MaxSteps, Fill);
  expectSameResult(Ref.Result, Got.Result, What);
  EXPECT_EQ(Ref.DeliverySteps, Got.DeliverySteps) << What;
  EXPECT_EQ(Ref.QueuedSum, Got.QueuedSum) << What;
  EXPECT_EQ(Ref.Stream.DeliverySteps, Got.Stream.DeliverySteps) << What;
  EXPECT_EQ(Ref.Stream.Started, Got.Stream.Started) << What;
  EXPECT_EQ(Ref.Stream.Occupancy, Got.Stream.Occupancy) << What;
  EXPECT_EQ(Ref.Stream.Arrivals, Got.Stream.Arrivals) << What;
  EXPECT_EQ(Ref.Stream.QueueSamples, Got.Stream.QueueSamples) << What;
  // The invariant checker is part of the contract: scheduling bugs in the
  // engine must fail loudly, not land in a log line.
  EXPECT_TRUE(Ref.InvariantsClean) << What << "\n" << Ref.InvariantReport;
  EXPECT_TRUE(Got.InvariantsClean) << What << "\n" << Got.InvariantReport;

  RunOutcome Bare = runOne<NetworkSimulator>(Net, Model, MaxSteps, Fill,
                                             /*Observe=*/false);
  expectSameResult(Got.Result, Bare.Result, What + " [unobserved]");
  EXPECT_EQ(Got.Result.TouchedWork, Bare.Result.TouchedWork) << What;
  EXPECT_EQ(Got.DeliverySteps, Bare.DeliverySteps) << What;
  EXPECT_EQ(Got.QueuedSum, Bare.QueuedSum) << What;
  return Got;
}

/// Schedules \p Trace with lifted star routes at \p Flits flits (0 picks
/// the mixed 1-or-2 rule keyed on the source).
template <typename SimT>
void scheduleTrace(SimT &Sim, const ExplicitScg &Net,
                   const std::vector<TrafficEvent> &Trace, unsigned Flits) {
  for (const TrafficEvent &E : Trace) {
    std::vector<GenIndex> Route;
    if (E.Src != E.Dst)
      Route = routeViaStarEmulation(Net.network(), Net.label(E.Src),
                                    Net.label(E.Dst))
                  .hops();
    Sim.scheduleInjection(E.Step, E.Src, Route,
                          Flits ? Flits : (E.Src % 5 == 0 ? 2 : 1));
  }
}

std::vector<TrafficEvent> uniformTrace(const ExplicitScg &Net, double Rate,
                                       uint64_t Steps, uint64_t Seed) {
  WorkloadSpec Spec;
  Spec.InjectionRate = Rate;
  Spec.Seed = Seed;
  return WorkloadGenerator(Net, Spec).generate(Steps);
}

} // namespace

//===----------------------------------------------------------------------===//
// Mixed random multi-flit traffic, every family x model
//===----------------------------------------------------------------------===//

TEST(SimulatorDifferential, MixedTrafficEveryFamilyAndModel) {
  for (const SuperCayleyGraph &Family : familiesAtK4()) {
    ExplicitScg Net(Family);
    for (CommModel Model : AllModels) {
      std::string What = Family.name() + " / " + commModelName(Model);
      expectAgree(Net, Model, 4000, What, [&](auto &Sim) {
        injectMixed(Sim, Net, 40, 0xD1FF + Net.degree(), /*ZeroHop=*/3);
      });
    }
  }
}

//===----------------------------------------------------------------------===//
// Permutation-routing traffic (lifted optimal star routes)
//===----------------------------------------------------------------------===//

TEST(SimulatorDifferential, PermutationRoutingEveryFamilyAndModel) {
  for (const SuperCayleyGraph &Family : familiesAtK4()) {
    if (!supportsStarEmulation(Family))
      continue;
    ExplicitScg Net(Family);
    TrafficPattern Pattern = randomTraffic(Net, 7);
    // Precompute the lifted routes once; the fill re-injects them per run.
    std::vector<std::vector<GenIndex>> Routes;
    for (NodeId U = 0; U != Net.numNodes(); ++U)
      Routes.push_back(
          routeViaStarEmulation(Family, Net.label(U), Net.label(Pattern[U]))
              .hops());
    for (CommModel Model : AllModels) {
      std::string What =
          Family.name() + " / " + commModelName(Model) + " / permutation";
      expectAgree(Net, Model, 100000, What, [&](auto &Sim) {
        for (NodeId U = 0; U != Net.numNodes(); ++U)
          Sim.injectPacket(U, Routes[U]);
      });
    }
  }
}

//===----------------------------------------------------------------------===//
// Timed workload injections (the open-loop traffic path)
//===----------------------------------------------------------------------===//

TEST(SimulatorDifferential, WorkloadTraceEveryModel) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  for (WorkloadKind Kind :
       {WorkloadKind::UniformRandom, WorkloadKind::Hotspot,
        WorkloadKind::Transpose, WorkloadKind::BurstyUniform}) {
    WorkloadSpec Spec;
    Spec.Kind = Kind;
    Spec.InjectionRate = 0.05;
    Spec.Seed = 21;
    std::vector<TrafficEvent> Trace = WorkloadGenerator(Net, Spec).generate(200);
    ASSERT_FALSE(Trace.empty());
    for (CommModel Model : AllModels) {
      std::string What =
          workloadKindName(Kind) + " / " + commModelName(Model);
      expectAgree(Net, Model, 5000, What, [&](auto &Sim) {
        scheduleTrace(Sim, Net, Trace, /*Flits=*/0);
      });
    }
  }
}

TEST(SimulatorDifferential, FlitCountsOneAndThreeEveryModel) {
  // Uniform message lengths at a load where queues build up: unit packets
  // never touch the in-flight state, 3-flit messages always do.
  ExplicitScg Net(SuperCayleyGraph::star(5));
  std::vector<TrafficEvent> Trace = uniformTrace(Net, 0.1, 60, 8);
  for (unsigned Flits : {1u, 3u})
    for (CommModel Model : AllModels) {
      std::string What = commModelName(Model) + " / flits " +
                         std::to_string(Flits);
      expectAgree(Net, Model, 3000, What, [&](auto &Sim) {
        scheduleTrace(Sim, Net, Trace, Flits);
      });
    }
}

TEST(SimulatorDifferential, SparseTrafficSkipsEmptySteps) {
  // Injections hundreds of steps apart: the engine skips the empty gaps,
  // and every field -- Steps, utilization's denominator and the queued
  // sum included -- still matches the loop that runs them.
  ExplicitScg Net(SuperCayleyGraph::star(5));
  for (CommModel Model : AllModels) {
    auto Fill = [&](auto &Sim) {
      SplitMix64 Rng(4);
      for (unsigned P = 0; P != 12; ++P) {
        std::vector<GenIndex> Route;
        for (unsigned H = 0; H != 3; ++H)
          Route.push_back(Rng.nextBelow(Net.degree()));
        Sim.scheduleInjection(P * 300 + Rng.nextBelow(7),
                              NodeId(Rng.nextBelow(Net.numNodes())), Route,
                              P % 2 ? 3 : 1);
      }
    };
    RunOutcome Got = expectAgree(Net, Model, 10000, commModelName(Model),
                                 Fill);
    EXPECT_TRUE(Got.Result.Completed);
    EXPECT_LT(Got.Result.TouchedWork,
              fullScanWork(Net, Model, Got.Result.Steps) / 100);
  }
}

//===----------------------------------------------------------------------===//
// Closed-loop admission
//===----------------------------------------------------------------------===//

TEST(SimulatorDifferential, ClosedLoopEveryModel) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  std::vector<TrafficEvent> Trace = uniformTrace(Net, 0.6, 80, 13);
  for (unsigned Flits : {1u, 3u})
    for (CommModel Model : AllModels)
      for (uint64_t Cap : {5u, 60u, 400u}) {
        std::string What = commModelName(Model) + " / closed flits " +
                           std::to_string(Flits) + " cap " +
                           std::to_string(Cap);
        RunOutcome Got = expectAgree(Net, Model, Cap, What, [&](auto &Sim) {
          Sim.setClosedLoop(2);
          scheduleTrace(Sim, Net, Trace, Flits);
        });
        if (Cap >= 60) {
          EXPECT_GT(Got.Result.DeferredInjections, 0u) << What;
        }
      }
}

//===----------------------------------------------------------------------===//
// MaxSteps caps: results must agree at every truncation point
//===----------------------------------------------------------------------===//

TEST(SimulatorDifferential, CappedRunsAgreeAtEveryHorizon) {
  ExplicitScg Net(SuperCayleyGraph::bubbleSort(4));
  for (CommModel Model : AllModels)
    for (uint64_t MaxSteps : {0u, 1u, 2u, 3u, 5u, 9u, 17u, 40u}) {
      std::string What = commModelName(Model) + " / cap " +
                         std::to_string(MaxSteps);
      expectAgree(Net, Model, MaxSteps, What, [&](auto &Sim) {
        injectMixed(Sim, Net, 30, 99, /*ZeroHop=*/2);
      });
    }
}

TEST(SimulatorDifferential, CapLandsMidMultiFlitMessage) {
  // An 8-flit message on an otherwise idle network: every cap inside the
  // occupancy window must yield identical BusyLinkSteps accounting.
  ExplicitScg Net(SuperCayleyGraph::star(4));
  for (CommModel Model : AllModels)
    for (uint64_t MaxSteps = 0; MaxSteps != 12; ++MaxSteps) {
      std::string What = commModelName(Model) + " / flit-cap " +
                         std::to_string(MaxSteps);
      expectAgree(Net, Model, MaxSteps, What, [&](auto &Sim) {
        Sim.injectPacket(0, {0, 1}, /*FlitCount=*/8);
        Sim.injectPacket(1, {1}, /*FlitCount=*/1);
      });
    }
}

//===----------------------------------------------------------------------===//
// Stalled single-dimension schedules (generator absent from the cycle)
//===----------------------------------------------------------------------===//

TEST(SimulatorDifferential, StalledDimensionCycleGrindsToCap) {
  // Routes over generator 2, but the cycle only ever schedules 0 and 1:
  // both simulators grind to MaxSteps with the packets stuck in queue.
  ExplicitScg Net(SuperCayleyGraph::star(4));
  RunOutcome Got = expectAgree(
      Net, CommModel::SingleDimension, 5000, "stalled dimension cycle",
      [&](auto &Sim) {
        Sim.setDimensionCycle({0, 1});
        Sim.injectPacket(0, {0, 2, 1});
        Sim.injectPacket(2, {2});
      });
  EXPECT_FALSE(Got.Result.Completed);
  EXPECT_EQ(Got.Result.Steps, 5000u);
  // The engine visits only the scheduled generator's bitmap range; the
  // full scan touches every slot every step.
  EXPECT_LT(Got.Result.TouchedWork,
            fullScanWork(Net, CommModel::SingleDimension, 5000));
}

//===----------------------------------------------------------------------===//
// The historical engine and shard knobs are no-ops
//===----------------------------------------------------------------------===//

TEST(SimulatorDifferential, ShardCountSweepIsByteIdentical) {
  ExplicitScg Net(SuperCayleyGraph::transpositionNetwork(4));
  for (CommModel Model : AllModels) {
    auto Fill = [&](NetworkSimulator &Sim) {
      injectMixed(Sim, Net, 60, 0xABCD, /*ZeroHop=*/1);
    };
    RunOutcome Base = runOne<NetworkSimulator>(Net, Model, 6000, Fill);
    for (SimEngine Engine : {SimEngine::Step, SimEngine::Event})
      for (unsigned Shards : {1u, 2u, 7u, 0u}) {
        RunOutcome R = runOne<NetworkSimulator>(
            Net, Model, 6000, [&](NetworkSimulator &Sim) {
              Sim.setEngine(Engine);
              Sim.setEventShards(Shards);
              Fill(Sim);
            });
        std::string What = commModelName(Model) + " / " +
                           simEngineName(Engine) + " shards " +
                           std::to_string(Shards);
        expectSameResult(Base.Result, R.Result, What);
        EXPECT_EQ(Base.Result.TouchedWork, R.Result.TouchedWork) << What;
        EXPECT_EQ(Base.DeliverySteps, R.DeliverySteps) << What;
      }
  }
}

//===----------------------------------------------------------------------===//
// The open-loop driver against the reference replay
//===----------------------------------------------------------------------===//

TEST(SimulatorDifferential, TrafficLoadDriverAgreesWithReference) {
  ExplicitScg Net(SuperCayleyGraph::star(4));
  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::UniformRandom;
  Spec.InjectionRate = 0.08;
  Spec.Seed = 5;
  for (CommModel Model : AllModels)
    for (uint64_t MaxQueue : {0u, 2u}) {
      TrafficLoadOptions Opts;
      Opts.ClosedLoopMaxQueue = MaxQueue;
      TrafficLoadResult A = simulateTrafficLoad(Net, Model, Spec, 400, Opts);
      TrafficLoadResult B =
          referenceTrafficLoad(Net, Model, Spec, 400, MaxQueue);
      std::string What = "traffic load / " + commModelName(Model) +
                         (MaxQueue ? " closed" : " open");
      expectSameResult(B.Sim, A.Sim, What);
      EXPECT_EQ(A.Offered, B.Offered) << What;
      EXPECT_EQ(A.DeliveredRate, B.DeliveredRate) << What;
      EXPECT_EQ(A.MeanHops, B.MeanHops) << What;
      EXPECT_EQ(A.MeanLatency, B.MeanLatency) << What;
      EXPECT_EQ(A.P50Latency, B.P50Latency) << What;
      EXPECT_EQ(A.P99Latency, B.P99Latency) << What;
      EXPECT_EQ(A.MeanQueued, B.MeanQueued) << What;
      EXPECT_EQ(A.DistinctLabels, B.DistinctLabels) << What;
    }
}
