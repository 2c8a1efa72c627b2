//===- perfbench/harness.cpp - The repository benchmark's workloads -------===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs one benchmark workload against the library's public API, checks its
// outputs, and prints the result as one JSON line (the last line of
// stdout). perfbench/run.py builds this program and forwards its arguments;
// see perfbench/README.md for the workloads and metrics.
//
//   perfbench_harness --workload traffic-dense --seed 1 --seconds 15
//                     [--trace 0|1] [--size full|tiny]
//                     [--corrupt none|route|reply] [--trace-out FILE]
//                     [--commit SHA] [--source-digest HEX]
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the workload
// through the layers' public calls with spans recorded in memory (written
// to --trace-out at exit) and prints the per-layer metrics. --corrupt
// damages one route (traffic) or one reply (query-serve) after it is
// computed and before it is checked, so a test can see the check fire.
// Exit status: 0 when every check passed, 1 when a check failed, 2 on a
// usage error.
//
//===----------------------------------------------------------------------===//

#include "comm/Workload.h"
#include "emulation/ScgRouter.h"
#include "graph/Metrics.h"
#include "graph/MsBfs.h"
#include "networks/Explicit.h"
#include "perm/Lehmer.h"
#include "query/QueryEngine.h"
#include "routing/FaultCampaign.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace scg;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

template <typename Fn> double timeIt(Fn &&F) {
  auto Start = Clock::now();
  F();
  return secondsSince(Start);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t M = V.size() / 2;
  return V.size() % 2 ? V[M] : 0.5 * (V[M - 1] + V[M]);
}

/// Nearest-rank percentile \p P (0..100) of \p V.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(P / 100.0 * double(V.size())));
  return V[Rank ? Rank - 1 : 0];
}

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// Mixes the user seed with a per-purpose tag so the streams of one run
/// are independent of each other.
uint64_t deriveSeed(uint64_t Seed, uint64_t Tag) {
  SplitMix64 R(Seed * 0x9e3779b97f4a7c15ULL + Tag);
  return R.next();
}

//===----------------------------------------------------------------------===//
// Metrics and spans.
//===----------------------------------------------------------------------===//

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// Every end-to-end metric, in BENCHMARK.json order.
const MetricSpec EndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Every per-layer metric, in BENCHMARK.json order. A workload reports 0
/// for the layers it does not call.
const MetricSpec PerLayer[] = {
    {"networks.build_s", "s"},
    {"comm.generate_s", "s"},
    {"comm.dedup_s", "s"},
    {"comm.driver_setup_s", "s"},
    {"query.route_batch_s", "s"},
    {"emulation.legacy_route_s", "s"},
    {"comm.register_s", "s"},
    {"comm.simulate_s", "s"},
    {"comm.events", "count"},
    {"comm.distinct_labels", "count"},
    {"comm.dedup_factor", "ratio"},
    {"sim.touched_work", "count"},
    {"sim.work_per_hop", "ratio"},
    {"sim.max_queue_length", "count"},
    {"sim.queue_wait_steps", "steps"},
    {"sim.link_utilization", "ratio"},
    {"query.table_build_s", "s"},
    {"query.distance_batch_s", "s"},
    {"query.cache.hit_ratio", "ratio"},
    {"query.cache.evictions", "count"},
    {"query.table_answers", "count"},
    {"graph.to_csr_s", "s"},
    {"graph.sweep_s", "s"},
    {"distance.push_words", "count"},
    {"distance.pull_words", "count"},
    {"distance.direction_switches", "count"},
    {"routing.campaign_s", "s"},
    {"routing.routes_attempted", "count"},
    {"routing.routes_delivered", "count"},
    {"routing.paths_tried", "count"},
    {"trace.driver_gap_s", "s"},
    {"trace.overhead_s", "s"},
};

/// Spans recorded in memory from benchmark code around calls into the
/// library, written out once at exit.
class Tracer {
public:
  /// A disabled tracer runs spanned code without reading the clock.
  explicit Tracer(bool Enabled = true) : Enabled(Enabled) {}

  struct Span {
    std::string Name;
    int Parent;
    double Begin, End; ///< seconds since the tracer started.
  };

  /// Opens a span under the innermost open span; returns its id.
  int open(const std::string &Name) {
    Spans.push_back({Name, Stack.empty() ? -1 : Stack.back(), now(), 0.0});
    Stack.push_back(int(Spans.size()) - 1);
    return Stack.back();
  }
  void close(int Id) {
    Spans[Id].End = now();
    Stack.pop_back();
  }

  /// Runs \p F inside a span named \p Name; returns its duration.
  template <typename Fn> double span(const std::string &Name, Fn &&F) {
    if (!Enabled) {
      F();
      return 0.0;
    }
    int Id = open(Name);
    F();
    close(Id);
    return Spans[Id].End - Spans[Id].Begin;
  }

  /// Summed duration of the spans named \p Name.
  double total(const std::string &Name) const {
    double Sum = 0.0;
    for (const Span &S : Spans)
      if (S.Name == Name)
        Sum += S.End - S.Begin;
    return Sum;
  }

  /// Self time per layer (the span name's first dotted component): each
  /// span's duration minus the time its child spans cover.
  std::map<std::string, double> layerSelfTimes() const {
    std::vector<double> ChildTime(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildTime[S.Parent] += S.End - S.Begin;
    std::map<std::string, double> Self;
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      Self[S.Name.substr(0, S.Name.find('.'))] +=
          S.End - S.Begin - ChildTime[I];
    }
    return Self;
  }

  const std::vector<Span> &spans() const { return Spans; }

private:
  double now() const { return secondsSince(Start); }

  bool Enabled;
  Clock::time_point Start = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// What a workload hands back to main().
struct Outcome {
  std::map<std::string, double> Metrics; ///< by MetricSpec name.
  std::map<std::string, double> Report;  ///< printed, not in the JSON line.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< one line per failed check.

  void fail(uint64_t Count, const std::string &Why) {
    Failed += Count;
    if (Failures.size() < 20)
      Failures.push_back(Why);
  }
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 15.0;
  bool Trace = false;
  bool Tiny = false;
  std::string Corrupt = "none";
  std::string TraceOut;
  std::string Commit = "unknown";
  std::string SourceDigest = "unknown";
};

/// Repeats \p Rep until the next repetition would overrun \p Budget
/// seconds (at least \p MinReps times); returns the per-repetition times.
std::vector<double> repeatFor(double Budget, unsigned MinReps,
                              const std::function<void()> &Rep) {
  std::vector<double> Times;
  auto Start = Clock::now();
  while (Times.size() < MinReps ||
         secondsSince(Start) + median(Times) <= Budget)
    Times.push_back(timeIt(Rep));
  return Times;
}

/// Set-up and timed-part samples of one run.
struct Samples {
  std::vector<double> Setup, Run;
  double PeakRssMb = 0.0; ///< at the end of the timed part.
};

/// Repeats \p Rep like repeatFor. After each repetition it repeats
/// \p Spare -- the workload's set-up, building objects it throws away --
/// until set-up has taken a tenth of the time so far, so the set-up samples
/// span the same window as the timed ones and a burst of contention from
/// other processes moves few of either.
Samples measure(double Budget, unsigned MinReps,
                const std::function<void()> &Spare,
                const std::function<void()> &Rep) {
  Samples S;
  double SetupTotal = 0.0;
  auto Start = Clock::now();
  while (S.Run.size() < MinReps ||
         secondsSince(Start) + median(S.Run) <= Budget) {
    S.Run.push_back(timeIt(Rep));
    do {
      S.Setup.push_back(timeIt(Spare));
      SetupTotal += S.Setup.back();
    } while (SetupTotal < 0.1 * secondsSince(Start));
  }
  S.PeakRssMb = peakRssMb();
  return S;
}

/// Sets the end-to-end metrics from \p S and reports the sample counts and
/// the fastest and slowest repetition.
void reportTimes(Outcome &Out, const Samples &S) {
  Out.Metrics["setup_s"] = median(S.Setup);
  Out.Metrics["run_s"] = median(S.Run);
  Out.Metrics["peak_rss_mb"] = S.PeakRssMb;
  Out.Report["setup_samples"] = double(S.Setup.size());
  Out.Report["repetitions"] = double(S.Run.size());
  Out.Report["run_s_min"] = *std::min_element(S.Run.begin(), S.Run.end());
  Out.Report["run_s_max"] = *std::max_element(S.Run.begin(), S.Run.end());
}

/// Walks \p Hops from \p From on \p Net; true when it ends at \p To.
bool walksTo(const SuperCayleyGraph &Net, const Permutation &From,
             std::span<const GenIndex> Hops, const Permutation &To) {
  Permutation At = From;
  for (GenIndex G : Hops) {
    if (G >= Net.degree())
      return false;
    Net.neighborInto(At, G, At);
  }
  return At == To;
}

//===----------------------------------------------------------------------===//
// traffic-dense / traffic-sparse
//===----------------------------------------------------------------------===//

struct TrafficSize {
  unsigned K;
  double Rate;
  uint64_t Steps;
};

TrafficSize trafficSize(const Options &O) {
  bool Dense = O.Workload == "traffic-dense";
  if (O.Tiny)
    return Dense ? TrafficSize{5, 0.4, 20} : TrafficSize{5, 0.01, 800};
  return Dense ? TrafficSize{8, 0.4, 25} : TrafficSize{8, 0.01, 1000};
}

bool sameSim(const SimulationResult &A, const SimulationResult &B) {
  return A.Completed == B.Completed && A.Steps == B.Steps &&
         A.Delivered == B.Delivered && A.Transmissions == B.Transmissions &&
         A.BusyLinkSteps == B.BusyLinkSteps &&
         A.MaxQueueLength == B.MaxQueueLength &&
         A.LinkUtilization == B.LinkUtilization &&
         A.TouchedWork == B.TouchedWork &&
         A.DeferredInjections == B.DeferredInjections &&
         A.DeferredSteps == B.DeferredSteps;
}

/// Everything but SetupSeconds, the one wall-clock field.
bool sameTraffic(const TrafficLoadResult &A, const TrafficLoadResult &B) {
  return sameSim(A.Sim, B.Sim) && A.Offered == B.Offered &&
         A.DeliveredRate == B.DeliveredRate && A.MeanHops == B.MeanHops &&
         A.MeanLatency == B.MeanLatency && A.P50Latency == B.P50Latency &&
         A.P99Latency == B.P99Latency && A.MeanQueued == B.MeanQueued &&
         A.DistinctLabels == B.DistinctLabels;
}

/// The driver's label dedup, replayed: the distinct relative labels of
/// \p Trace in first-seen order, and each event's index into them.
struct LabelDedup {
  std::vector<Permutation> Rels;
  std::vector<uint32_t> EventSlot; ///< NoSlot for src == dst.
  static constexpr uint32_t NoSlot = ~uint32_t(0);
};

LabelDedup dedupLabels(const ExplicitScg &Net,
                       const std::vector<TrafficEvent> &Trace) {
  LabelDedup D;
  std::vector<Permutation> Labels, InvLabels;
  Labels.reserve(Net.numNodes());
  InvLabels.reserve(Net.numNodes());
  for (NodeId U = 0; U != Net.numNodes(); ++U) {
    Labels.push_back(Net.label(U));
    InvLabels.push_back(Labels.back().inverse());
  }
  std::vector<uint32_t> Slot(Net.numNodes(), LabelDedup::NoSlot);
  D.EventSlot.reserve(Trace.size());
  for (const TrafficEvent &E : Trace) {
    if (E.Src == E.Dst) {
      D.EventSlot.push_back(LabelDedup::NoSlot);
      continue;
    }
    Permutation Rel = InvLabels[E.Src].compose(Labels[E.Dst]);
    uint32_t &S = Slot[Net.rankOf(Rel)];
    if (S == LabelDedup::NoSlot) {
      S = uint32_t(D.Rels.size());
      D.Rels.push_back(std::move(Rel));
    }
    D.EventSlot.push_back(S);
  }
  return D;
}

Outcome runTraffic(const Options &O, Tracer &T) {
  Outcome Out;
  const TrafficSize Size = trafficSize(O);
  const SuperCayleyGraph Host = SuperCayleyGraph::star(Size.K);
  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::UniformRandom;
  Spec.InjectionRate = Size.Rate;
  Spec.Seed = deriveSeed(O.Seed, 1);
  const TrafficLoadOptions Driver; // event engine, 1 shard, batched setup.

  auto Build = [&] { return std::make_unique<ExplicitScg>(Host); };
  std::unique_ptr<ExplicitScg> Net;
  double Built = timeIt([&] { Net = Build(); });

  // The timed part: the traffic driver, end to end.
  TrafficLoadResult First;
  bool HaveFirst = false, Stable = true;
  auto Rep = [&] {
    TrafficLoadResult R =
        simulateTrafficLoad(*Net, CommModel::AllPort, Spec, Size.Steps, Driver);
    if (!HaveFirst) {
      First = R;
      HaveFirst = true;
    } else if (!sameTraffic(First, R)) {
      Stable = false;
    }
  };

  // A traced run times one repetition: the untraced reference for the
  // traced replay below.
  Samples Times = O.Trace ? measure(0.0, 1, Build, Rep)
                          : measure(O.Seconds, 3, Build, Rep);
  Times.Setup.push_back(Built);

  // Replay of the driver's steps through the same public calls, one span
  // per layer call; the simulator runs with no observer.
  WorkloadGenerator Gen(*Net, Spec);
  QueryEngineOptions QOpts;
  QOpts.CacheCapacity = 0; // as the driver configures it.
  const Permutation Id = Permutation::identity(Host.numSymbols());
  struct Replay {
    LabelDedup Labels;
    RouteArena Routes;
    SimulationResult Sim;
    size_t Events = 0, LegacyMismatch = 0;
  };
  auto ReplayOnce = [&](Tracer &Spans) {
    Replay R;
    std::vector<TrafficEvent> Trace;
    Spans.span("comm.generate", [&] { Trace = Gen.generate(Size.Steps); });
    Spans.span("comm.dedup", [&] { R.Labels = dedupLabels(*Net, Trace); });
    const LabelDedup &RD = R.Labels;
    Spans.span("query.route_batch", [&] {
      QueryEngine E(Host, QOpts);
      R.Routes = E.routeBatchRelative(RD.Rels);
    });
    Spans.span("emulation.legacy_route", [&] {
      for (size_t I = 0; I != RD.Rels.size(); ++I) {
        std::vector<GenIndex> Legacy =
            routeViaStarEmulation(Host, Id, RD.Rels[I]).hops();
        std::span<const GenIndex> Batched = R.Routes.route(I);
        if (!std::equal(Batched.begin(), Batched.end(), Legacy.begin(),
                        Legacy.end()))
          ++R.LegacyMismatch;
      }
    });
    NetworkSimulator Sim(*Net, CommModel::AllPort);
    Spans.span("comm.register", [&] {
      Sim.setEngine(Driver.Engine);
      Sim.setEventShards(Driver.Shards);
      std::vector<uint32_t> Handles;
      Handles.reserve(RD.Rels.size());
      for (size_t I = 0; I != RD.Rels.size(); ++I)
        Handles.push_back(Sim.addSharedRoute(R.Routes.route(I)));
      const std::vector<GenIndex> ZeroHop;
      for (size_t I = 0; I != Trace.size(); ++I) {
        const TrafficEvent &E = Trace[I];
        uint32_t S = RD.EventSlot[I];
        if (S == LabelDedup::NoSlot)
          Sim.scheduleInjection(E.Step, E.Src, ZeroHop, Spec.FlitCount);
        else
          Sim.scheduleInjectionShared(E.Step, E.Src, Handles[S],
                                      Spec.FlitCount);
      }
    });
    Spans.span("comm.simulate", [&] { R.Sim = Sim.run(Size.Steps); });
    R.Events = Trace.size();
    return R;
  };
  // A replay's SimulationResult must equal the driver's field for field:
  // a driver that maps an event to the wrong label or route moves it.
  auto CheckReplay = [&](const Replay &R) {
    if (R.LegacyMismatch)
      Out.fail(R.LegacyMismatch, "batched routes differ from legacy routes");
    if (!sameSim(R.Sim, First.Sim))
      Out.fail(R.Events, "replayed SimulationResult differs from driver's");
  };

  // Checks, outside the timed part, in every run: the untraced replay
  // against the driver, and every distinct label's route must spell that
  // label from the identity; a wrong route fails every message sharing it.
  Tracer Off(/*Enabled=*/false);
  Replay Checked;
  double UntracedTotal = timeIt([&] { Checked = ReplayOnce(Off); });
  CheckReplay(Checked);
  const LabelDedup &D = Checked.Labels;
  RouteArena &Arena = Checked.Routes;
  if (O.Corrupt == "route" && Arena.size() != 0) {
    // Swap one hop of route 0 for a different generator.
    GenIndex &Hop = Arena.Hops[Arena.Offsets[0]];
    Hop = GenIndex((Hop + 1) % Host.degree());
  }
  std::vector<uint64_t> PerLabel(D.Rels.size(), 0);
  for (uint32_t S : D.EventSlot)
    if (S != LabelDedup::NoSlot)
      ++PerLabel[S];
  for (size_t I = 0; I != D.Rels.size(); ++I)
    if (!walksTo(Host, Id, Arena.route(I), D.Rels[I]))
      Out.fail(PerLabel[I], "route of label " + D.Rels[I].str() +
                                " does not spell the label (" +
                                std::to_string(PerLabel[I]) + " messages)");
  Out.Attempted = Checked.Events;
  if (!Stable)
    Out.fail(Checked.Events, "repetitions gave different driver results");
  if (First.Offered != Checked.Events ||
      First.DistinctLabels != D.Rels.size() || First.Sim.Delivered == 0)
    Out.fail(Checked.Events, "driver counts disagree with the replayed trace");

  reportTimes(Out, Times);
  Out.Report["messages"] = double(Checked.Events);
  Out.Report["delivered_rate"] = First.DeliveredRate;
  Out.Report["p99_latency_steps"] = double(First.P99Latency);
  Out.Report["mean_latency_steps"] = First.MeanLatency;
  if (!O.Trace)
    return Out;

  // The traced replay; its time minus the untraced one's is the tracing
  // overhead.
  auto &M = Out.Metrics;
  M["networks.build_s"] = T.span("networks.build", [&] {
    ExplicitScg Rebuilt(Host);
    (void)Rebuilt;
  });
  Replay Traced;
  double TracedTotal = timeIt([&] { Traced = ReplayOnce(T); });
  CheckReplay(Traced);

  for (const char *Layer :
       {"comm.generate", "comm.dedup", "query.route_batch",
        "emulation.legacy_route", "comm.register", "comm.simulate"})
    M[std::string(Layer) + "_s"] = T.total(Layer);
  const SimulationResult &S = First.Sim;
  M["comm.driver_setup_s"] = First.SetupSeconds;
  M["comm.events"] = double(Traced.Events);
  M["comm.distinct_labels"] = double(Traced.Labels.Rels.size());
  M["comm.dedup_factor"] = First.DedupFactor;
  M["sim.touched_work"] = double(S.TouchedWork);
  M["sim.work_per_hop"] =
      S.Transmissions ? double(S.TouchedWork) / double(S.Transmissions) : 0.0;
  M["sim.max_queue_length"] = double(S.MaxQueueLength);
  M["sim.queue_wait_steps"] = First.MeanLatency - First.MeanHops;
  M["sim.link_utilization"] = S.LinkUtilization;
  // The driver also attaches two observers, computes latency statistics
  // and re-routes every label through the legacy path (#ifndef NDEBUG):
  // the gap between its time and the replay's layer sum, cross-check
  // excluded, is that overhead.
  double ReplaySum = M["comm.generate_s"] + M["comm.dedup_s"] +
                     M["query.route_batch_s"] + M["comm.register_s"] +
                     M["comm.simulate_s"];
  M["trace.driver_gap_s"] = Times.Run.front() - ReplaySum;
  M["trace.overhead_s"] = TracedTotal - UntracedTotal;
  return Out;
}

//===----------------------------------------------------------------------===//
// query-serve
//===----------------------------------------------------------------------===//

struct QuerySize {
  unsigned L, N;       ///< MS(L, N).
  unsigned HotLabels;  ///< hot relative labels (below the cache capacity).
  unsigned Batches;    ///< batches per pass over the stream.
  unsigned BatchSize;  ///< queries per batch.
};

QuerySize querySize(const Options &O) {
  if (O.Tiny)
    return {2, 2, 16, 8, 64};
  return {2, 4, 16384, 256, 1024};
}

struct QueryBatch {
  bool Route; ///< routeBatch when true, distanceBatch otherwise.
  std::vector<PairQuery> Pairs;
};

/// The closed-loop client's stream: half the pairs hit a hot set of
/// relative labels smaller than the SegmentCache, half are uniform over
/// all k! labels.
std::vector<QueryBatch> makeStream(const QuerySize &Size, unsigned K,
                                   uint64_t Seed) {
  SplitMix64 R(Seed);
  const uint64_t Count = factorial(K);
  std::vector<Permutation> Hot;
  for (unsigned I = 0; I != Size.HotLabels; ++I)
    Hot.push_back(unrankPermutation(R.nextBelow(Count), K));
  std::vector<QueryBatch> Stream(Size.Batches);
  for (unsigned B = 0; B != Size.Batches; ++B) {
    Stream[B].Route = B % 2 == 0;
    Stream[B].Pairs.reserve(Size.BatchSize);
    for (unsigned I = 0; I != Size.BatchSize; ++I) {
      Permutation Src = unrankPermutation(R.nextBelow(Count), K);
      if (R.next() & 1)
        Stream[B].Pairs.push_back(
            {Src, Src.compose(Hot[R.nextBelow(Hot.size())])});
      else
        Stream[B].Pairs.push_back(
            {std::move(Src), unrankPermutation(R.nextBelow(Count), K)});
    }
  }
  return Stream;
}

Outcome runQuery(const Options &O, Tracer &T) {
  Outcome Out;
  const QuerySize Size = querySize(O);
  const SuperCayleyGraph Net =
      SuperCayleyGraph::create(NetworkKind::MacroStar, Size.L, Size.N);
  const unsigned K = Net.numSymbols();

  auto Build = [&] {
    auto E = std::make_unique<QueryEngine>(Net);
    E->attachTable(std::make_shared<const TableStore>(TableStore::build(Net)));
    return E;
  };
  std::unique_ptr<QueryEngine> Engine;
  double Built = timeIt([&] { Engine = Build(); });
  const std::vector<QueryBatch> Stream =
      makeStream(Size, K, deriveSeed(O.Seed, 2));
  const uint64_t PassQueries = uint64_t(Size.Batches) * Size.BatchSize;

  // One pass over the stream: each batch is sent when the previous reply
  // arrived (one closed-loop client).
  std::vector<double> BatchMs;
  auto Pass = [&](bool RecordBatches, Tracer *Spans) {
    for (const QueryBatch &QB : Stream) {
      auto Start = Clock::now();
      int Id = Spans ? Spans->open(QB.Route ? "query.route_batch"
                                            : "query.distance_batch")
                     : -1;
      if (QB.Route)
        (void)Engine->routeBatch(QB.Pairs);
      else
        (void)Engine->distanceBatch(QB.Pairs);
      if (Spans)
        Spans->close(Id);
      if (RecordBatches)
        BatchMs.push_back(secondsSince(Start) * 1e3);
    }
  };

  Pass(false, nullptr); // warm the cache; the server runs warm.
  Samples Times;
  std::vector<double> SerialTimes;
  if (!O.Trace) {
    Times = measure(O.Seconds * 2.0 / 3.0, 3, Build,
                    [&] { Pass(true, nullptr); });
    // The same stream replayed on one thread (SCG_THREADS=1); no set-up
    // samples here, as the table build would run on one thread too.
    setGlobalThreadCount(1);
    SerialTimes = repeatFor(O.Seconds / 3.0, 2, [&] { Pass(false, nullptr); });
    setGlobalThreadCount(0);
  } else {
    Times = measure(0.0, 1, Build, [&] { Pass(false, nullptr); });
  }
  Times.Setup.push_back(Built);

  // Checks, outside the timed part, on every reply, batch by batch. The
  // replies at one thread must equal those at nproc threads (the batch
  // determinism contract); a route must walk Src -> Dst and its length must
  // equal the distance reply for the same pair; every reply is exact (a
  // table is attached).
  for (size_t B = 0; B != Stream.size(); ++B) {
    const QueryBatch &QB = Stream[B];
    std::vector<RouteReply> Routes = Engine->routeBatch(QB.Pairs);
    std::vector<DistanceReply> Dists = Engine->distanceBatch(QB.Pairs);
    setGlobalThreadCount(1);
    if (Engine->routeBatch(QB.Pairs) != Routes ||
        Engine->distanceBatch(QB.Pairs) != Dists)
      Out.fail(QB.Pairs.size(),
               "batch " + std::to_string(B) + ": one-thread replies differ");
    setGlobalThreadCount(0);
    if (O.Corrupt == "reply" && B == 0)
      Routes.front().Hops.push_back(0);
    for (size_t I = 0; I != QB.Pairs.size(); ++I) {
      const PairQuery &Q = QB.Pairs[I];
      const RouteReply &R = Routes[I];
      const DistanceReply &D = Dists[I];
      ++Out.Attempted;
      if (!walksTo(Net, Q.Src, R.Hops, Q.Dst) || R.length() != D.Distance ||
          !R.Exact || !D.Exact)
        Out.fail(1, "batch " + std::to_string(B) + " reply " +
                        std::to_string(I) + ": " + Q.Src.str() + " -> " +
                        Q.Dst.str() + " route of " +
                        std::to_string(R.length()) + " hops, distance " +
                        std::to_string(D.Distance));
    }
  }

  reportTimes(Out, Times);
  Out.Report["queries_per_pass"] = double(PassQueries);
  if (!O.Trace) {
    Out.Report["query_qps"] = double(PassQueries) / median(Times.Run);
    Out.Report["query_qps_1t"] = double(PassQueries) / median(SerialTimes);
    Out.Report["batch_p50_ms"] = percentile(BatchMs, 50);
    Out.Report["batch_p99_ms"] = percentile(BatchMs, 99);
    Out.Report["batch_samples"] = double(BatchMs.size());
    return Out;
  }

  // Traced: the table build and one pass with a span per batch call.
  auto &M = Out.Metrics;
  M["query.table_build_s"] = T.span("query.table_build", [&] {
    TableStore Rebuilt = TableStore::build(Net);
    (void)Rebuilt;
  });
  SegmentCacheStats Before = Engine->cache().totals();
  MetricsRegistry RegBefore, RegAfter;
  Engine->publishMetrics(RegBefore);
  double Traced = timeIt([&] { Pass(false, &T); });
  SegmentCacheStats After = Engine->cache().totals();
  Engine->publishMetrics(RegAfter);
  uint64_t Hits = After.Hits - Before.Hits;
  uint64_t Lookups = Hits + (After.Misses - Before.Misses);
  M["query.route_batch_s"] = T.total("query.route_batch");
  M["query.distance_batch_s"] = T.total("query.distance_batch");
  M["query.cache.hit_ratio"] = Lookups ? double(Hits) / double(Lookups) : 0.0;
  M["query.cache.evictions"] = double(After.Evictions - Before.Evictions);
  M["query.table_answers"] =
      RegAfter.find("query.answers.table")->value() -
      RegBefore.find("query.answers.table")->value();
  M["trace.overhead_s"] = Traced - Times.Run.front();
  return Out;
}

//===----------------------------------------------------------------------===//
// analysis
//===----------------------------------------------------------------------===//

struct AnalysisSize {
  unsigned SweepK;    ///< star(SweepK) all-pairs sweep.
  unsigned CampaignK; ///< star(CampaignK) link-fault campaign.
  unsigned Trials;
};

AnalysisSize analysisSize(const Options &O) {
  if (O.Tiny)
    return {5, 4, 4};
  return {8, 7, 4};
}

/// Every survival curve of a coupled campaign is monotone in the rate.
bool monotone(const FaultRatePoint &Lo, const FaultRatePoint &Hi) {
  return Lo.MeanFaultsInjected <= Hi.MeanFaultsInjected &&
         Lo.ConnectedFraction >= Hi.ConnectedFraction &&
         Lo.MeanReachability >= Hi.MeanReachability &&
         Lo.RoutesAttempted == Hi.RoutesAttempted &&
         Lo.RoutesDelivered >= Hi.RoutesDelivered;
}

bool samePoints(const std::vector<FaultRatePoint> &A,
                const std::vector<FaultRatePoint> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].MeanFaultsInjected != B[I].MeanFaultsInjected ||
        A[I].ConnectedTrials != B[I].ConnectedTrials ||
        A[I].MeanReachability != B[I].MeanReachability ||
        A[I].WorstDiameter != B[I].WorstDiameter ||
        A[I].RoutesDelivered != B[I].RoutesDelivered ||
        A[I].MeanPathsTried != B[I].MeanPathsTried)
      return false;
  return true;
}

Outcome runAnalysis(const Options &O, Tracer &T) {
  Outcome Out;
  const AnalysisSize Size = analysisSize(O);
  const SuperCayleyGraph SweepNet = SuperCayleyGraph::star(Size.SweepK);
  const SuperCayleyGraph CampaignNet = SuperCayleyGraph::star(Size.CampaignK);
  FaultCampaignOptions Campaign; // default rate ladder, link faults.
  Campaign.Trials = Size.Trials;
  Campaign.Seed = deriveSeed(O.Seed, 3);

  std::unique_ptr<ExplicitScg> Sweep, Faulted;
  auto Build = [&] {
    Sweep = std::make_unique<ExplicitScg>(SweepNet);
    Faulted = std::make_unique<ExplicitScg>(CampaignNet);
  };
  double Built = timeIt(Build);
  auto Spare = [&] {
    ExplicitScg S(SweepNet), F(CampaignNet);
    (void)S;
    (void)F;
  };

  DistanceStats Stats;
  FaultCampaignResult First;
  bool HaveFirst = false, Stable = true;
  auto Rep = [&] {
    Csr G = Sweep->toCsr();
    DistanceStats S = msAllPairsStats(G);
    FaultCampaignResult C = runFaultCampaign(*Faulted, Campaign);
    if (!HaveFirst) {
      Stats = S;
      First = std::move(C);
      HaveFirst = true;
    } else if (S.Diameter != Stats.Diameter ||
               S.AverageDistance != Stats.AverageDistance ||
               !samePoints(C.Points, First.Points)) {
      Stable = false;
    }
  };
  Samples Times = O.Trace ? measure(0.0, 1, Spare, Rep)
                          : measure(O.Seconds, 3, Spare, Rep);
  Times.Setup.push_back(Built);
  const std::vector<double> &RunTimes = Times.Run;

  // Checks: the sweep against one single-source BFS (the network is
  // vertex-transitive), and the campaign curves monotone in the rate.
  DistanceStats Expected = vertexTransitiveStats(Sweep->toGraph());
  Out.Attempted = 1 + First.Points.size();
  if (!Stats.Connected || Stats.Diameter != Expected.Diameter ||
      std::abs(Stats.AverageDistance - Expected.AverageDistance) > 1e-9)
    Out.fail(1, "sweep diameter/average " + std::to_string(Stats.Diameter) +
                    "/" + std::to_string(Stats.AverageDistance) +
                    " != single-source " + std::to_string(Expected.Diameter) +
                    "/" + std::to_string(Expected.AverageDistance));
  for (size_t P = 0; P + 1 < First.Points.size(); ++P)
    if (!monotone(First.Points[P], First.Points[P + 1]))
      Out.fail(1, "campaign curve not monotone at rate " +
                      std::to_string(First.Points[P + 1].Rate));
  if (First.Points.empty() || First.Points.front().RoutesAttempted == 0)
    Out.fail(1, "campaign attempted no routes");
  if (!Stable)
    Out.fail(Out.Attempted, "repetitions gave different results");

  reportTimes(Out, Times);
  Out.Report["diameter"] = Stats.Diameter;
  Out.Report["average_distance"] = Stats.AverageDistance;
  Out.Report["delivery_at_max_rate"] = First.Points.back().DeliveryFraction;
  if (!O.Trace)
    return Out;

  auto &M = Out.Metrics;
  MetricsRegistry Reg;
  MsSweepOptions SweepOpts;
  SweepOpts.Metrics = &Reg;
  FaultCampaignResult Traced;
  double Total = timeIt([&] {
    M["networks.build_s"] = T.span("networks.build", [&] {
      ExplicitScg Rebuilt(SweepNet);
      (void)Rebuilt;
    });
    std::optional<Csr> G;
    M["graph.to_csr_s"] =
        T.span("graph.to_csr", [&] { G.emplace(Sweep->toCsr()); });
    DistanceStats S;
    M["graph.sweep_s"] =
        T.span("graph.sweep", [&] { S = msAllPairsStats(*G, SweepOpts); });
    if (S.Diameter != Stats.Diameter)
      Out.fail(1, "traced sweep differs");
    M["routing.campaign_s"] = T.span("routing.campaign", [&] {
      Traced = runFaultCampaign(*Faulted, Campaign);
    });
  });
  if (!samePoints(Traced.Points, First.Points))
    Out.fail(1, "traced campaign differs");
  for (const char *Name : {"distance.push_words", "distance.pull_words",
                           "distance.direction_switches"})
    if (const Metric *C = Reg.find(Name))
      M[Name] = C->value();
  double Attempted = 0, Delivered = 0, PathsTried = 0;
  for (const FaultRatePoint &P : Traced.Points) {
    Attempted += double(P.RoutesAttempted);
    Delivered += double(P.RoutesDelivered);
    PathsTried += std::round(P.MeanPathsTried * double(P.RoutesAttempted));
  }
  M["routing.routes_attempted"] = Attempted;
  M["routing.routes_delivered"] = Delivered;
  M["routing.paths_tried"] = PathsTried;
  M["trace.overhead_s"] = Total - M["networks.build_s"] - RunTimes.front();
  return Out;
}

//===----------------------------------------------------------------------===//
// Driver.
//===----------------------------------------------------------------------===//

/// Renders \p S as a JSON string literal.
std::string quote(std::string_view S) { return '"' + jsonEscaped(S) + '"'; }

std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string provenanceJson(const Options &O) {
  const char *Threads = std::getenv("SCG_THREADS");
#ifdef NDEBUG
  const bool CrossCheck = false;
#else
  const bool CrossCheck = true;
#endif
  std::string J = "{";
  J += "\"commit\": " + quote(O.Commit);
  J += ", \"source_digest\": " + quote(O.SourceDigest);
  J += ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE);
  J += ", \"cxx_flags\": " + quote(PERFBENCH_CXX_FLAGS);
  // perfbench/CMakeLists.txt never adds -march=native.
  J += ", \"scg_native\": false";
  J += ", \"compiler\": " + quote(PERFBENCH_COMPILER);
  J += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  J += ", \"scg_threads_env\": " +
       (Threads ? quote(Threads) : std::string("null"));
  J += ", \"pool_threads\": " + std::to_string(effectiveThreadCount());
  J += ", \"ndebug_crosscheck_compiled\": " +
       std::string(CrossCheck ? "true" : "false");
  J += ", \"workload\": " + quote(O.Workload);
  J += ", \"seed\": " + std::to_string(O.Seed);
  J += ", \"seconds\": " + number(O.Seconds);
  J += ", \"size\": " + quote(O.Tiny ? "tiny" : "full");
  J += ", \"trace\": " + std::string(O.Trace ? "true" : "false");
  return J + "}";
}

void writeTrace(const Options &O, const Tracer &T, const std::string &Prov) {
  std::ofstream F(O.TraceOut);
  if (!F) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.TraceOut.c_str());
    return;
  }
  F << "{\"provenance\": " << Prov << ",\n \"spans\": [";
  const auto &Spans = T.spans();
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Tracer::Span &S = Spans[I];
    F << (I ? ",\n  " : "\n  ") << "{\"id\": " << I
      << ", \"name\": " << quote(S.Name) << ", \"parent\": " << S.Parent
      << ", \"begin_s\": " << number(S.Begin)
      << ", \"end_s\": " << number(S.End) << "}";
  }
  F << "],\n \"layer_self_s\": {";
  bool FirstLayer = true;
  for (const auto &[Layer, Self] : T.layerSelfTimes()) {
    F << (FirstLayer ? "" : ", ") << quote(Layer) << ": " << number(Self);
    FirstLayer = false;
  }
  F << "}}\n";
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "traffic-dense|traffic-sparse|query-serve|analysis --seed N "
               "--seconds S [--trace 0|1] [--size full|tiny] "
               "[--corrupt none|route|reply] [--trace-out FILE] "
               "[--commit SHA] [--source-digest HEX]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload")
      O.Workload = Value;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::strtod(Value.c_str(), &End);
    else if (Flag == "--trace")
      O.Trace = Value == "1";
    else if (Flag == "--size")
      O.Tiny = Value == "tiny";
    else if (Flag == "--corrupt")
      O.Corrupt = Value;
    else if (Flag == "--trace-out")
      O.TraceOut = Value;
    else if (Flag == "--commit")
      O.Commit = Value;
    else if (Flag == "--source-digest")
      O.SourceDigest = Value;
    else
      return usage(("unknown flag " + Flag).c_str());
    if (End && *End)
      return usage(("bad number " + Value).c_str());
  }
  if (!(O.Seconds > 0.0))
    return usage("--seconds must be positive");
  if (O.Corrupt != "none" && O.Corrupt != "route" && O.Corrupt != "reply")
    return usage("--corrupt takes none, route or reply");

  Tracer T;
  Outcome Out;
  if (O.Workload == "traffic-dense" || O.Workload == "traffic-sparse")
    Out = runTraffic(O, T);
  else if (O.Workload == "query-serve")
    Out = runQuery(O, T);
  else if (O.Workload == "analysis")
    Out = runAnalysis(O, T);
  else
    return usage(("unknown workload " + O.Workload).c_str());
  // Checks may fail the same operation twice; count it once.
  Out.Failed = std::min(Out.Failed, Out.Attempted);

  const std::string Prov = provenanceJson(O);
  std::printf("provenance %s\n", Prov.c_str());
  for (const auto &[Name, Value] : Out.Report)
    std::printf("report %s %s\n", Name.c_str(), number(Value).c_str());
  double FailedShare =
      Out.Attempted ? double(Out.Failed) / double(Out.Attempted) : 1.0;
  std::printf("report failed_share %s\n", number(FailedShare).c_str());
  for (const std::string &Why : Out.Failures)
    std::printf("check-failed %s\n", Why.c_str());
  if (O.Trace) {
    for (const auto &[Layer, Self] : T.layerSelfTimes())
      std::printf("layer-self %s %s s\n", Layer.c_str(), number(Self).c_str());
    if (!O.TraceOut.empty())
      writeTrace(O, T, Prov);
  }

  const bool Correct = Out.Failed == 0 && Out.Attempted != 0;
  std::string J = "{\"correct\": " + std::string(Correct ? "true" : "false");
  J += ", \"attempted\": " + std::to_string(Out.Attempted);
  J += ", \"failed\": " + std::to_string(Out.Failed);
  J += ", \"metrics\": {";
  bool First = true;
  auto Emit = [&](const MetricSpec &S) {
    J += std::string(First ? "" : ", ") + quote(S.Name) +
         ": {\"value\": " + number(Out.Metrics[S.Name]) +
         ", \"unit\": " + quote(S.Unit) + "}";
    First = false;
  };
  if (O.Trace)
    for (const MetricSpec &S : PerLayer)
      Emit(S);
  else
    for (const MetricSpec &S : EndToEnd)
      Emit(S);
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
