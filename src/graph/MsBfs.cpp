//===- graph/MsBfs.cpp - Bit-parallel multi-source BFS -------------------===//

#include "graph/MsBfs.h"

#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>

using namespace scg;

std::vector<uint8_t> scg::msBfsDistanceRow(const Csr &G, NodeId Source) {
  const NodeId N = G.numNodes();
  if (Source >= N)
    throw std::invalid_argument("distance row: source is not a node");
  std::vector<uint8_t> Row(N, MsBfsUnreachableByte);
  // One source needs no lanes: a flat FIFO (every node enters once) with
  // the byte row itself as the visited mark.
  std::vector<NodeId> Queue(N);
  const NodeId *Adj = G.adjacencyData();
  const uint64_t *Off = G.offsetsData();
  Row[Source] = 0;
  Queue[0] = Source;
  for (size_t Head = 0, Tail = 1; Head != Tail; ++Head) {
    NodeId V = Queue[Head];
    const unsigned Next = Row[V] + 1u;
    for (uint64_t E = Off[V], End = Off[V + 1]; E != End; ++E) {
      NodeId To = Adj[E];
      if (Row[To] == MsBfsUnreachableByte) {
        if (Next == MsBfsUnreachableByte)
          throw std::length_error(
              "distance row: a distance does not fit a byte");
        Row[To] = uint8_t(Next);
        Queue[Tail++] = To;
      }
    }
  }
  return Row;
}

namespace {

/// Order-independent group partial (AND / max / exact sums), identical in
/// shape to the scalar oracle's accumulator so both sweeps fold the same
/// integers into the same double at the end. Counters ride along as
/// more exact sums.
struct SweepAccum {
  bool AllConnected = true;
  uint32_t Diameter = 0;
  uint64_t DistanceSum = 0;
  MsBfsCounters Counters;
};

SweepAccum mergeSweep(SweepAccum A, const SweepAccum &B) {
  A.AllConnected = A.AllConnected && B.AllConnected;
  A.Diameter = std::max(A.Diameter, B.Diameter);
  A.DistanceSum += B.DistanceSum;
  A.Counters += B.Counters;
  return A;
}

} // namespace

DistanceStats scg::msAllPairsStats(const Csr &G, const MsSweepOptions &Opts) {
  DistanceStats Stats;
  const uint64_t N = G.numNodes();
  if (N == 0)
    return Stats;
  const bool Counted = Opts.Metrics != nullptr;
  // The pull pass needs the reverse graph; identical to G (up to row
  // order) for the undirected families, but built generically so directed
  // graphs pull from true in-neighbors. One O(V + E) build per sweep.
  const Csr GT = G.transpose();
  // Each task runs one 512-source group (one lane cache line per node).
  // Sweep statistics are per-(source, node) sums / maxima, so the
  // grouping cannot change any result bit.
  const uint64_t NumGroups = (N + MsBfsGroupLanes - 1) / MsBfsGroupLanes;
  // Group g owns sources [g * MsBfsGroupLanes, ...); groups are independent
  // (each worker thread reuses its own scratch), and the early-out flag
  // can only make a doomed sweep cheaper, never change its result.
  std::atomic<bool> Disconnected{false};
  SweepAccum Acc = ThreadPool::global().parallelMapReduce<SweepAccum>(
      0, NumGroups, SweepAccum{},
      [&](uint64_t Group) {
        SweepAccum One;
        if (Disconnected.load(std::memory_order_relaxed)) {
          One.AllConnected = false;
          return One;
        }
        NodeId Begin = NodeId(Group * MsBfsGroupLanes);
        NodeId End = NodeId(std::min<uint64_t>(N, Begin + MsBfsGroupLanes));
        MsBfsScratch &Scratch = threadScratch<MsBfsScratch>();
        Scratch.Sources.resize(End - Begin);
        std::iota(Scratch.Sources.begin(), Scratch.Sources.end(), Begin);
        // The whole-sweep statistics need no per-lane bookkeeping: the
        // number of lanes arriving per level gives visits / distance sum /
        // diameter, and the group is fully connected iff lane-visits total
        // N per lane. The fused engine detects the level() member and
        // tallies popcounts branchlessly inside its commit loops.
        uint64_t Visits = 0;
        struct LevelTally {
          SweepAccum &One;
          uint64_t &Visits;
          void level(uint32_t Level, uint64_t NewVisits) {
            Visits += NewVisits;
            One.DistanceSum += uint64_t(Level) * NewVisits;
            One.Diameter = Level; // ascending levels, only fired when
                                  // NewVisits > 0: max wins.
          }
        } Sink{One, Visits};
        if (Counted)
          detail::msBfsFusedImpl<true>(G, GT, Scratch.Sources, Sink,
                                       &One.Counters, Scratch);
        else
          detail::msBfsFusedImpl<false>(G, GT, Scratch.Sources, Sink, nullptr,
                                        Scratch);
        if (Visits != N * Scratch.Sources.size()) {
          Disconnected.store(true, std::memory_order_relaxed);
          One = SweepAccum{};
          One.AllConnected = false;
        }
        return One;
      },
      mergeSweep);
  if (Counted) {
    // One publication per sweep, after the deterministic fold; on a
    // connected graph the totals are a pure function of the graph.
    MetricsRegistry &M = *Opts.Metrics;
    M.counter("distance.batches").add(Acc.Counters.Batches);
    M.counter("distance.push_levels").add(Acc.Counters.PushLevels);
    M.counter("distance.pull_levels").add(Acc.Counters.PullLevels);
    M.counter("distance.push_words").add(Acc.Counters.PushWords);
    M.counter("distance.pull_words").add(Acc.Counters.PullWords);
    M.counter("distance.direction_switches")
        .add(Acc.Counters.DirectionSwitches);
  }
  if (!Acc.AllConnected)
    return Stats; // Connected=false, zeroed metrics.
  Stats.Connected = true;
  Stats.Diameter = Acc.Diameter;
  uint64_t Pairs = N * (N - 1);
  Stats.AverageDistance = Pairs ? double(Acc.DistanceSum) / double(Pairs) : 0.0;
  return Stats;
}

DistanceStats scg::msAllPairsStats(const Csr &G) {
  return msAllPairsStats(G, MsSweepOptions{});
}
