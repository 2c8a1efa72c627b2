//===- bench/bench_traffic.cpp - Experiments E23 + E27 -------------------===//
//
// Steady-state saturation curves: synthetic workloads (comm/Workload.h)
// offered to each family x communication model over a sweep of injection
// rates, reporting delivered throughput and latency percentiles per
// offered load -- the standard interconnect-evaluation methodology the
// paper itself stops short of (it evaluates one-shot permutation traffic
// only). The simulator visits only links with queued or in-flight work
// and skips empty steps; the full-scan reference loop (tests/) would
// spend O(nodes * degree) per step on the long sparse tails these curves
// produce, and the work ratio column reports that difference.
//
// E27 extends E23 past the scalar-setup wall: route setup dedupes the
// trace to distinct relative labels (Cayley symmetry) and batch-routes
// them through the query engine, which is what makes star(7) (5,040
// nodes) and star(8) (40,320 nodes) curves affordable; closed-loop
// variants throttle injection by source-node queue depth and report the
// deferral counters next to each open-loop twin.
//
// Modes:
//   (default)    human-readable E23/E27 table + google-benchmark timings
//   --json       machine-readable one-object JSON on stdout: the full
//                curve sweep with per-point throughput/latency/occupancy,
//                dedup factor, and the full-scan-vs-engine work ratio
//                (committed as BENCH_traffic.json in the repo root; fully
//                deterministic, no wall times)
//   --maxk <k>   largest star dimension swept, in [4, 8] (default 6; the
//                committed JSON is generated with --maxk 8)
//   --smoke      bounded checks: driver == reference-loop replay on every
//                model (open and closed loop on star(4), open on
//                star(5)), >= 5x batched-setup speedup over the
//                old pair-keyed serial loop at k = 6, closed-loop
//                thread-count invariance, >= 2x full-scan/engine work
//                ratio on the sparse-tail regime, wall-clock engine <=
//                reference loop on sparse and dense traffic (min-of-7),
//                and --json determinism; non-zero exit on any failure.
//                Wired into ctest under perf-smoke.
//
//===----------------------------------------------------------------------===//

#include "ReferenceSimulator.h"

#include "comm/Workload.h"
#include "emulation/ScgRouter.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

using namespace scg;

namespace {

const char *modelName(CommModel Model) {
  switch (Model) {
  case CommModel::AllPort:
    return "all_port";
  case CommModel::SinglePort:
    return "single_port";
  case CommModel::SingleDimension:
    return "single_dimension";
  }
  return "?";
}

/// One saturation curve: a family x model at one k, swept over rates.
/// ClosedLoopMaxQueue zero is the open-loop source; nonzero throttles
/// injection at that per-source-node queue depth.
struct CurveSpec {
  SuperCayleyGraph Family;
  CommModel Model;
  std::vector<double> Rates;
  uint64_t Steps;
  uint64_t ClosedLoopMaxQueue = 0;
};

/// The per-node queue-depth limit of every closed-loop curve: small enough
/// to bite well before saturation at the swept rates.
constexpr uint64_t ClosedLoopLimit = 4;

/// The committed sweep: every family class at k = 4 is covered by the
/// differential tests; the curves track star / transposition /
/// insertion-selection at k = 4 (the single-level classes with lifted
/// star routes) and star up to k = \p MaxK, each under all three models
/// through k = 6 and under single-port at k = 7, 8 (where one model keeps
/// the 40,320-node sweep bounded). Closed-loop twins ride along from
/// k = 5 up. Horizons shrink as k grows; rates bracket saturation.
std::vector<CurveSpec> curveSpecs(unsigned MaxK) {
  std::vector<double> FullSweep = {0.02, 0.05, 0.10, 0.20, 0.40};
  std::vector<double> ShortSweep = {0.02, 0.10, 0.40};
  std::vector<CurveSpec> Specs;
  for (CommModel Model :
       {CommModel::AllPort, CommModel::SinglePort,
        CommModel::SingleDimension}) {
    Specs.push_back({SuperCayleyGraph::star(4), Model, FullSweep, 400});
    Specs.push_back(
        {SuperCayleyGraph::transpositionNetwork(4), Model, FullSweep, 400});
    Specs.push_back(
        {SuperCayleyGraph::insertionSelection(4), Model, FullSweep, 400});
    if (MaxK >= 5)
      Specs.push_back({SuperCayleyGraph::star(5), Model, FullSweep, 300});
    if (MaxK >= 6)
      Specs.push_back({SuperCayleyGraph::star(6), Model, ShortSweep, 120});
  }
  if (MaxK >= 5)
    Specs.push_back({SuperCayleyGraph::star(5), CommModel::SinglePort,
                     ShortSweep, 300, ClosedLoopLimit});
  if (MaxK >= 6)
    Specs.push_back({SuperCayleyGraph::star(6), CommModel::SinglePort,
                     ShortSweep, 120, ClosedLoopLimit});
  if (MaxK >= 7)
    for (CommModel Model : {CommModel::AllPort, CommModel::SinglePort})
      for (uint64_t Limit : {uint64_t(0), ClosedLoopLimit})
        Specs.push_back(
            {SuperCayleyGraph::star(7), Model, ShortSweep, 100, Limit});
  if (MaxK >= 8)
    for (uint64_t Limit : {uint64_t(0), ClosedLoopLimit})
      Specs.push_back({SuperCayleyGraph::star(8), CommModel::SinglePort,
                       ShortSweep, 50, Limit});
  return Specs;
}

WorkloadSpec uniformAt(double Rate) {
  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::UniformRandom;
  Spec.InjectionRate = Rate;
  Spec.Seed = 23;
  return Spec;
}

struct CurvePoint {
  TrafficLoadResult R;
  /// The full-scan loop's analytic slot count over the run's steps
  /// (fullScanWork) divided by the engine's TouchedWork.
  double WorkRatio;
};

CurvePoint runPoint(const ExplicitScg &Net, const CurveSpec &Spec,
                    double Rate) {
  TrafficLoadOptions Options; // the committed numbers are
                              // thread-count-independent.
  Options.ClosedLoopMaxQueue = Spec.ClosedLoopMaxQueue;
  CurvePoint P;
  P.R = simulateTrafficLoad(Net, Spec.Model, uniformAt(Rate), Spec.Steps,
                            Options);
  uint64_t ScanWork = fullScanWork(Net, Spec.Model, P.R.Sim.Steps);
  P.WorkRatio = P.R.Sim.TouchedWork
                    ? double(ScanWork) / double(P.R.Sim.TouchedWork)
                    : 0.0;
  return P;
}

//===----------------------------------------------------------------------===//
// --json: the committed saturation curves
//===----------------------------------------------------------------------===//

/// Deterministic (fixed seeds, no wall times -- SetupSeconds is measured
/// but never printed): the committed BENCH_traffic.json can be diffed
/// byte-for-byte.
std::string jsonReport(unsigned MaxK) {
  JsonWriter W;
  W.beginObject().key("curves").beginArray();
  for (const CurveSpec &Spec : curveSpecs(MaxK)) {
    const bool Closed = Spec.ClosedLoopMaxQueue != 0;
    ExplicitScg Net(Spec.Family);
    W.beginObject()
        .field("family", Spec.Family.name())
        .field("model", modelName(Spec.Model))
        .field("loop", Closed ? "closed" : "open")
        .field("max_queue", Spec.ClosedLoopMaxQueue)
        .field("nodes", Net.numNodes())
        .field("steps", Spec.Steps)
        .key("points")
        .beginArray();
    for (double Rate : Spec.Rates) {
      CurvePoint P = runPoint(Net, Spec, Rate);
      W.beginObject()
          .field("offered", P.R.OfferedRate, 6)
          .field("delivered", P.R.DeliveredRate, 6)
          .field("mean_latency", P.R.MeanLatency, 4)
          .field("p50", P.R.P50Latency)
          .field("p99", P.R.P99Latency)
          .field("mean_queued", P.R.MeanQueued, 4)
          .field("work_ratio", P.WorkRatio, 2)
          .field("dedup", P.R.DedupFactor, 2);
      if (Closed)
        W.field("deferred_injections", P.R.Sim.DeferredInjections)
            .field("deferred_steps", P.R.Sim.DeferredSteps);
      W.endObject();
    }
    W.endArray().endObject();
  }
  W.endArray().endObject();
  return W.str();
}

//===----------------------------------------------------------------------===//
// Default mode: the human-readable E23 table
//===----------------------------------------------------------------------===//

void printCurves(unsigned MaxK) {
  std::printf("E23/E27: saturation curves under uniform random traffic "
              "(batched label-deduped setup)\n\n");
  TextTable Table;
  Table.setHeader({"network", "model", "loop", "offered", "delivered",
                   "mean lat", "p99 lat", "mean queued", "dedup",
                   "work ratio"});
  for (const CurveSpec &Spec : curveSpecs(MaxK)) {
    ExplicitScg Net(Spec.Family);
    for (double Rate : Spec.Rates) {
      CurvePoint P = runPoint(Net, Spec, Rate);
      Table.addRow({Spec.Family.name(), modelName(Spec.Model),
                    Spec.ClosedLoopMaxQueue ? "closed" : "open",
                    formatDouble(P.R.OfferedRate, 3),
                    formatDouble(P.R.DeliveredRate, 3),
                    formatDouble(P.R.MeanLatency, 2),
                    std::to_string(P.R.P99Latency),
                    formatDouble(P.R.MeanQueued, 1),
                    formatDouble(P.R.DedupFactor, 1),
                    formatDouble(P.WorkRatio, 1)});
    }
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("shape check: delivered tracks offered until saturation then "
              "plateaus while p99 latency climbs; closed-loop rows bound "
              "mean queued at the depth limit by deferring injections; "
              "dedup is offered messages per distinct relative label "
              "(the route computations batched setup saves); work ratio is "
              "the full-scan slot count over the engine's touched work.\n\n");
}

//===----------------------------------------------------------------------===//
// --smoke
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

bool sameResult(const SimulationResult &A, const SimulationResult &B) {
  return A.Completed == B.Completed && A.Steps == B.Steps &&
         A.Delivered == B.Delivered && A.Transmissions == B.Transmissions &&
         A.BusyLinkSteps == B.BusyLinkSteps &&
         A.MaxQueueLength == B.MaxQueueLength &&
         A.LinkUtilization == B.LinkUtilization &&
         A.DeferredInjections == B.DeferredInjections &&
         A.DeferredSteps == B.DeferredSteps;
}

/// Full driver-result identity: every field except SetupSeconds (wall
/// clock, the one field outside the determinism contract) and TouchedWork
/// (the implementation's own work count).
bool sameLoad(const TrafficLoadResult &A, const TrafficLoadResult &B) {
  return sameResult(A.Sim, B.Sim) && A.Offered == B.Offered &&
         A.OfferedRate == B.OfferedRate &&
         A.DeliveredRate == B.DeliveredRate && A.MeanHops == B.MeanHops &&
         A.MeanLatency == B.MeanLatency && A.P50Latency == B.P50Latency &&
         A.P99Latency == B.P99Latency && A.MeanQueued == B.MeanQueued &&
         A.DistinctLabels == B.DistinctLabels &&
         A.DedupFactor == B.DedupFactor;
}

/// The retired pair-keyed serial setup loop, replicated verbatim as the
/// speedup baseline: one unordered_map probe per event, one scalar
/// routeViaStarEmulation call per distinct (src, dst) pair.
double legacyPairSetupMs(const ExplicitScg &Net,
                         const std::vector<TrafficEvent> &Trace) {
  auto Start = Clock::now();
  std::unordered_map<uint64_t, std::vector<GenIndex>> RouteCache;
  const SuperCayleyGraph &Host = Net.network();
  uint64_t HopSum = 0;
  for (const TrafficEvent &E : Trace) {
    uint64_t Key = uint64_t(E.Src) * Net.numNodes() + E.Dst;
    auto It = RouteCache.find(Key);
    if (It == RouteCache.end()) {
      std::vector<GenIndex> Route;
      if (E.Src != E.Dst)
        Route =
            routeViaStarEmulation(Host, Net.label(E.Src), Net.label(E.Dst))
                .hops();
      It = RouteCache.emplace(Key, std::move(Route)).first;
    }
    HopSum += It->second.size();
  }
  benchmark::DoNotOptimize(HopSum);
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Sparse-tail wall-clock workload: a handful of packets staggered over a
/// long horizon on star(6) -- 4320 queues, almost all idle at any step.
/// Returns milliseconds for one run on simulator type SimT.
template <typename SimT> double timedSparseMs(const ExplicitScg &Net) {
  SimT Sim(Net, CommModel::SinglePort);
  SplitMix64 Rng(9);
  for (unsigned P = 0; P != 50; ++P) {
    std::vector<GenIndex> Route;
    for (unsigned H = 0; H != 4; ++H)
      Route.push_back(Rng.nextBelow(Net.degree()));
    Sim.scheduleInjection(P * 40, NodeId(Rng.nextBelow(Net.numNodes())),
                          Route);
  }
  auto Start = Clock::now();
  SimulationResult R = Sim.run(/*MaxSteps=*/4000);
  double Ms =
      std::chrono::duration<double, std::milli>(Clock::now() - Start).count();
  benchmark::DoNotOptimize(R);
  return Ms;
}

/// Dense wall-clock workload: star(6) all-port under uniform offered load
/// 0.4 for 40 steps (~11.5k lifted-route messages), past saturation.
/// Returns milliseconds for one run on simulator type SimT.
template <typename SimT>
double timedDenseMs(const ExplicitScg &Net,
                    const std::vector<TrafficEvent> &Trace,
                    const std::vector<std::vector<GenIndex>> &Routes) {
  SimT Sim(Net, CommModel::AllPort);
  for (size_t I = 0; I != Trace.size(); ++I)
    Sim.scheduleInjection(Trace[I].Step, Trace[I].Src, Routes[I]);
  auto Start = Clock::now();
  SimulationResult R = Sim.run(/*MaxSteps=*/40);
  double Ms =
      std::chrono::duration<double, std::milli>(Clock::now() - Start).count();
  benchmark::DoNotOptimize(R);
  return Ms;
}

int runSmoke(bool Json, unsigned MaxK) {
  int Failures = 0;
  auto Check = [&](const char *Name, bool Ok) {
    std::printf("%-44s %s\n", Name, Ok ? "ok" : "FAIL");
    Failures += !Ok;
  };

  // The driver against a replay of the same trace on the full-scan
  // reference loop, every model, open and closed loop.
  for (uint64_t MaxQueue : {uint64_t(0), ClosedLoopLimit}) {
    for (CommModel Model :
         {CommModel::AllPort, CommModel::SinglePort,
          CommModel::SingleDimension}) {
      ExplicitScg Net(SuperCayleyGraph::star(4));
      TrafficLoadOptions Opts;
      Opts.ClosedLoopMaxQueue = MaxQueue;
      TrafficLoadResult A =
          simulateTrafficLoad(Net, Model, uniformAt(0.1), 300, Opts);
      TrafficLoadResult B =
          referenceTrafficLoad(Net, Model, uniformAt(0.1), 300, MaxQueue);
      char Name[64];
      std::snprintf(Name, sizeof(Name), "%s %s engine == reference loop",
                    modelName(Model), MaxQueue ? "closed" : "open");
      Check(Name, sameLoad(A, B));
    }
  }

  // The deduped, batched route setup is a pure optimization: the driver
  // equals a replay with one scalar route per pair, across models.
  for (CommModel Model :
       {CommModel::AllPort, CommModel::SinglePort,
        CommModel::SingleDimension}) {
    ExplicitScg Net(SuperCayleyGraph::star(5));
    TrafficLoadResult A = simulateTrafficLoad(Net, Model, uniformAt(0.2), 200);
    TrafficLoadResult B = referenceTrafficLoad(Net, Model, uniformAt(0.2), 200);
    char Name[64];
    std::snprintf(Name, sizeof(Name), "%s driver == reference loop",
                  modelName(Model));
    Check(Name, sameLoad(A, B));
  }

  // The E27 setup claim: at k = 6 the batched, label-deduped setup beats
  // the retired pair-keyed serial loop by >= 5x (in practice the dedup
  // factor alone is ~50x there; 5x is the floor). Min-of-3 on both sides
  // to shed scheduler noise.
  {
    ExplicitScg Net(SuperCayleyGraph::star(6));
    WorkloadSpec Spec = uniformAt(0.4);
    std::vector<TrafficEvent> Trace =
        WorkloadGenerator(Net, Spec).generate(120);
    double LegacyMs = 1e100, BatchedMs = 1e100;
    for (int I = 0; I != 3; ++I) {
      LegacyMs = std::min(LegacyMs, legacyPairSetupMs(Net, Trace));
      TrafficLoadResult R = simulateTrafficLoad(
          Net, CommModel::SinglePort, Spec, 120, TrafficLoadOptions());
      BatchedMs = std::min(BatchedMs, R.SetupSeconds * 1e3);
    }
    bool Ok = BatchedMs * 5.0 <= LegacyMs;
    std::printf("%-44s %s  (legacy %.2f ms, batched %.2f ms, %.1fx)\n",
                "batched setup >= 5x over pair-keyed serial",
                Ok ? "ok" : "FAIL", LegacyMs, BatchedMs,
                BatchedMs > 0.0 ? LegacyMs / BatchedMs : 0.0);
    Failures += !Ok;
  }

  // Closed-loop results are thread-count invariant: 1 thread vs 2 threads
  // (batched parallel setup) must agree on every deterministic field.
  {
    ExplicitScg Net(SuperCayleyGraph::star(5));
    TrafficLoadOptions Opts;
    Opts.ClosedLoopMaxQueue = ClosedLoopLimit;
    setGlobalThreadCount(1);
    TrafficLoadResult A =
        simulateTrafficLoad(Net, CommModel::SinglePort, uniformAt(0.4), 200,
                            Opts);
    setGlobalThreadCount(2);
    TrafficLoadResult B =
        simulateTrafficLoad(Net, CommModel::SinglePort, uniformAt(0.4), 200,
                            Opts);
    setGlobalThreadCount(1);
    Check("closed loop 1-thread == 2-thread", sameLoad(A, B));
  }

  // The sparse-tail work claim: on a low-rate sweep point the full-scan
  // loop touches >= 2x the slots the engine does (in practice far more;
  // 2x is the floor the JSON must show).
  {
    ExplicitScg Net(SuperCayleyGraph::star(5));
    CurveSpec Spec{SuperCayleyGraph::star(5), CommModel::SinglePort,
                   {0.02}, 300};
    CurvePoint P = runPoint(Net, Spec, 0.02);
    std::printf("%-44s %s  (ratio %.1f)\n", "sparse-tail work ratio >= 2x",
                P.WorkRatio >= 2.0 ? "ok" : "FAIL", P.WorkRatio);
    Failures += P.WorkRatio < 2.0;
  }

  // Wall-clock: the engine must not be slower than the reference loop,
  // on sparse traffic and at a dense point (min-of-7 to shed scheduler
  // noise, small absolute allowance for timer granularity).
  {
    ExplicitScg Net(SuperCayleyGraph::star(6));
    double Ref = 1e100, Engine = 1e100;
    for (int I = 0; I != 7; ++I) {
      Ref = std::min(Ref, timedSparseMs<ReferenceSimulator>(Net));
      Engine = std::min(Engine, timedSparseMs<NetworkSimulator>(Net));
    }
    bool Ok = Engine <= Ref * 1.02 + 0.05;
    std::printf("%-44s %s  (reference %.3f ms, engine %.3f ms)\n",
                "engine <= reference loop on sparse traffic",
                Ok ? "ok" : "FAIL", Ref, Engine);
    Failures += !Ok;

    std::vector<TrafficEvent> Trace =
        WorkloadGenerator(Net, uniformAt(0.4)).generate(40);
    std::vector<std::vector<GenIndex>> Routes;
    for (const TrafficEvent &E : Trace)
      Routes.push_back(E.Src == E.Dst
                           ? std::vector<GenIndex>()
                           : routeViaStarEmulation(Net.network(),
                                                   Net.label(E.Src),
                                                   Net.label(E.Dst))
                                 .hops());
    Ref = Engine = 1e100;
    for (int I = 0; I != 7; ++I) {
      Ref = std::min(Ref, timedDenseMs<ReferenceSimulator>(Net, Trace, Routes));
      Engine =
          std::min(Engine, timedDenseMs<NetworkSimulator>(Net, Trace, Routes));
    }
    Ok = Engine <= Ref * 1.02 + 0.05;
    std::printf("%-44s %s  (reference %.3f ms, engine %.3f ms)\n",
                "engine <= reference loop on dense traffic",
                Ok ? "ok" : "FAIL", Ref, Engine);
    Failures += !Ok;
  }

  // With --json as well, pin the report's determinism: two full
  // generations must render byte-identically, or the committed
  // BENCH_traffic.json would churn.
  if (Json) {
    std::string A = jsonReport(MaxK);
    Check("json report deterministic", !A.empty() && A == jsonReport(MaxK));
  }

  return Failures ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// google-benchmark timings
//===----------------------------------------------------------------------===//

void BM_SparseTrafficReferenceLoop(benchmark::State &State) {
  ExplicitScg Net(SuperCayleyGraph::star(6));
  for (auto _ : State)
    benchmark::DoNotOptimize(timedSparseMs<ReferenceSimulator>(Net));
}
BENCHMARK(BM_SparseTrafficReferenceLoop)->Unit(benchmark::kMillisecond);

void BM_SparseTrafficEngine(benchmark::State &State) {
  ExplicitScg Net(SuperCayleyGraph::star(6));
  for (auto _ : State)
    benchmark::DoNotOptimize(timedSparseMs<NetworkSimulator>(Net));
}
BENCHMARK(BM_SparseTrafficEngine)->Unit(benchmark::kMillisecond);

void BM_SaturatedLoadDriver(benchmark::State &State) {
  ExplicitScg Net(SuperCayleyGraph::star(5));
  for (auto _ : State) {
    TrafficLoadResult R = simulateTrafficLoad(
        Net, CommModel::SinglePort, uniformAt(0.4), 200);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_SaturatedLoadDriver)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  bool Json = false, Smoke = false;
  unsigned MaxK = 6;
  for (int I = 1; I != argc; ++I) {
    Json |= std::strcmp(argv[I], "--json") == 0;
    Smoke |= std::strcmp(argv[I], "--smoke") == 0;
    if (std::strcmp(argv[I], "--maxk") == 0) {
      const char *Arg = I + 1 != argc ? argv[++I] : nullptr;
      char *End = nullptr;
      long V = Arg ? std::strtol(Arg, &End, 10) : 0;
      if (!Arg || *End != '\0' || V < 4 || V > 8) {
        std::fprintf(stderr,
                     "error: --maxk requires an integer in [4, 8], got '%s'\n",
                     Arg ? Arg : "(nothing)");
        return 2;
      }
      MaxK = unsigned(V);
    }
  }
  if (Smoke)
    return runSmoke(Json, MaxK);
  if (Json) {
    std::printf("%s", jsonReport(MaxK).c_str());
    return 0;
  }
  printCurves(MaxK);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
