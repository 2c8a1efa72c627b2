//===- tests/ReferenceMetrics.cpp - Scalar distance oracles --------------===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ReferenceMetrics.h"

#include "graph/Bfs.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

using namespace scg;

namespace {

/// Partial result of an all-pairs sweep: order-independent (AND / max / sum
/// over exact integers), so the parallel fold is byte-identical to serial.
struct SweepAccum {
  bool AllConnected = true;
  uint32_t Diameter = 0;
  uint64_t DistanceSum = 0;
};

SweepAccum mergeSweep(SweepAccum A, const SweepAccum &B) {
  A.AllConnected = A.AllConnected && B.AllConnected;
  A.Diameter = std::max(A.Diameter, B.Diameter);
  A.DistanceSum += B.DistanceSum;
  return A;
}

} // namespace

DistanceStats scg::scalarAllPairsStats(const Graph &G) {
  DistanceStats Stats;
  if (G.numNodes() == 0)
    return Stats;
  // One BFS per source, spread over the global pool. Each BFS owns its
  // distance buffers, so sources are fully independent; the only shared
  // state is the early-out flag, which can only turn a doomed sweep cheaper,
  // never change its result.
  std::atomic<bool> Disconnected{false};
  SweepAccum Acc = ThreadPool::global().parallelMapReduce<SweepAccum>(
      0, G.numNodes(), SweepAccum{},
      [&](uint64_t Source) {
        SweepAccum One;
        if (Disconnected.load(std::memory_order_relaxed)) {
          One.AllConnected = false;
          return One;
        }
        BfsResult R = bfs(G, NodeId(Source));
        if (R.NumReached != G.numNodes()) {
          Disconnected.store(true, std::memory_order_relaxed);
          One.AllConnected = false;
          return One;
        }
        One.Diameter = R.Eccentricity;
        One.DistanceSum = R.DistanceSum;
        return One;
      },
      mergeSweep);
  if (!Acc.AllConnected)
    return Stats; // Connected=false, zeroed metrics.
  Stats.Connected = true;
  Stats.Diameter = Acc.Diameter;
  uint64_t Pairs = uint64_t(G.numNodes()) * (G.numNodes() - 1);
  Stats.AverageDistance = Pairs ? double(Acc.DistanceSum) / double(Pairs) : 0.0;
  return Stats;
}

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
