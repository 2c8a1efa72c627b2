//===- graph/Faults.cpp - Fault injection and robustness -----------------===//

#include "graph/Faults.h"

#include "graph/MsBfs.h"
#include "support/Scratch.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <functional>
#include <span>
#include <stdexcept>

using namespace scg;

Graph scg::applyFaults(const Graph &G, const FaultSet &Faults) {
  Graph Out(G.numNodes());
  for (NodeId From = 0; From != G.numNodes(); ++From)
    for (NodeId To : G.neighbors(From))
      if (!Faults.linkFailed(From, To))
        Out.addEdge(From, To);
  return Out;
}

namespace {

/// Shared engine of the two analyses: every healthy node is a BFS source,
/// run 512 at a time through the fused direction-optimizing MS-BFS over
/// the surviving graph (failed nodes keep their ids but have no links, so
/// they are simply never reached). Groups run serially here: one analysis
/// is already one scenario / trial of a parallel sweep. With
/// \p StopAtFirstGap the loop ends at the first group that is not fully
/// connected, and ReachableOrderedPairs is then a partial count.
ReachabilityAnalysis sweepSurvivors(const Graph &G, const FaultSet &Faults,
                                    bool StopAtFirstGap) {
  ReachabilityAnalysis Analysis;
  std::vector<NodeId> Healthy;
  Healthy.reserve(G.numNodes());
  for (NodeId Node = 0; Node != G.numNodes(); ++Node)
    if (!Faults.nodeFailed(Node))
      Healthy.push_back(Node);
  Analysis.HealthyNodes = Healthy.size();
  if (Healthy.empty())
    return Analysis;

  // The pull pass gathers from true in-neighbours: the rotator-style
  // families fail single arcs, so the surviving graph is not symmetric.
  // One O(V + E) transpose per evaluation, ~1% of the sweep.
  const Csr Surviving(applyFaults(G, Faults));
  const Csr Reverse = Surviving.transpose();
  MsBfsScratch &Scratch = threadScratch<MsBfsScratch>();
  Analysis.Connected = true;
  uint32_t MaxEccentricity = 0;
  for (size_t Begin = 0; Begin < Healthy.size(); Begin += MsBfsGroupLanes) {
    std::span<const NodeId> Group = std::span(Healthy).subspan(
        Begin, std::min<size_t>(MsBfsGroupLanes, Healthy.size() - Begin));
    // Per-level lane arrivals are all either analysis needs: visits count
    // every lane's source too, so a group reaches Visits - |Group| ordered
    // pairs, is fully connected iff every lane saw every healthy node, and
    // its largest eccentricity is the last level with arrivals.
    struct LevelTally {
      uint64_t Visits = 0;
      uint32_t LastLevel = 0;
      void level(uint32_t Level, uint64_t NewVisits) {
        Visits += NewVisits;
        LastLevel = Level; // ascending levels, fired only on arrivals.
      }
    } Tally;
    detail::msBfsFusedImpl<false>(Surviving, Reverse, Group, Tally, nullptr,
                                  Scratch);
    Analysis.ReachableOrderedPairs += Tally.Visits - Group.size();
    MaxEccentricity = std::max(MaxEccentricity, Tally.LastLevel);
    if (Tally.Visits != Group.size() * Analysis.HealthyNodes) {
      Analysis.Connected = false;
      if (StopAtFirstGap)
        break;
    }
  }
  // The diameter is a measurement only when the survivors are mutually
  // connected; never leak a partial maximum.
  Analysis.Diameter = Analysis.Connected ? MaxEccentricity : 0;
  return Analysis;
}

} // namespace

FaultAnalysis scg::analyzeUnderFaults(const Graph &G,
                                      const FaultSet &Faults) {
  ReachabilityAnalysis Reach =
      sweepSurvivors(G, Faults, /*StopAtFirstGap=*/true);
  FaultAnalysis Analysis;
  Analysis.Connected = Reach.Connected;
  Analysis.Diameter = Reach.Diameter;
  Analysis.HealthyNodes = Reach.HealthyNodes;
  return Analysis;
}

ReachabilityAnalysis
scg::analyzeReachabilityUnderFaults(const Graph &G, const FaultSet &Faults) {
  return sweepSurvivors(G, Faults, /*StopAtFirstGap=*/false);
}

namespace {

/// Order-independent reduction over fault scenarios (AND / max), so the
/// parallel sweep matches the serial one byte for byte. Disconnected
/// scenarios do not contribute to WorstDiameter, mirroring the serial loop.
struct SweepOutcome {
  bool AlwaysConnected = true;
  uint32_t WorstDiameter = 0;
};

/// Evaluates NumScenarios single-fault scenarios in parallel on the global
/// pool; each scenario runs one full analyzeUnderFaults (its own surviving
/// graph and BFS buffers), so scenarios share nothing but G.
SweepOutcome evaluateScenarios(const Graph &G, uint64_t NumScenarios,
                               const std::function<FaultSet(uint64_t)> &Make) {
  return ThreadPool::global().parallelMapReduce<SweepOutcome>(
      0, NumScenarios, SweepOutcome{},
      [&](uint64_t I) {
        FaultAnalysis Analysis = analyzeUnderFaults(G, Make(I));
        SweepOutcome One;
        if (!Analysis.Connected)
          One.AlwaysConnected = false;
        else
          One.WorstDiameter = Analysis.Diameter;
        return One;
      },
      [](SweepOutcome A, const SweepOutcome &B) {
        A.AlwaysConnected = A.AlwaysConnected && B.AlwaysConnected;
        A.WorstDiameter = std::max(A.WorstDiameter, B.WorstDiameter);
        return A;
      });
}

} // namespace

SingleFaultSweep scg::sweepSingleLinkFaults(const Graph &G,
                                            unsigned Stride) {
  if (Stride == 0)
    throw std::invalid_argument("single-fault sweep stride must be positive");
  SingleFaultSweep Sweep;
  Sweep.FaultFreeDiameter = analyzeUnderFaults(G, FaultSet()).Diameter;

  // Enumerate the strided scenario list deterministically up front, then
  // evaluate scenarios in parallel.
  std::vector<std::pair<NodeId, NodeId>> Links;
  uint64_t Index = 0;
  for (NodeId From = 0; From != G.numNodes(); ++From)
    for (NodeId To : G.neighbors(From)) {
      if (From > To)
        continue; // one scenario per undirected link.
      if (Index++ % Stride != 0)
        continue;
      Links.push_back({From, To});
    }

  SweepOutcome Outcome =
      evaluateScenarios(G, Links.size(), [&](uint64_t I) {
        FaultSet Faults;
        Faults.failLink(Links[I].first, Links[I].second);
        return Faults;
      });
  // The reduction identity is AlwaysConnected = true, so an empty scenario
  // list (edgeless graph) would otherwise certify robustness vacuously.
  Sweep.AlwaysConnected = !Links.empty() && Outcome.AlwaysConnected;
  Sweep.WorstDiameter = Outcome.WorstDiameter;
  Sweep.ScenariosTried = Links.size();
  return Sweep;
}

SingleFaultSweep scg::sweepSingleNodeFaults(const Graph &G,
                                            unsigned Stride) {
  if (Stride == 0)
    throw std::invalid_argument("single-fault sweep stride must be positive");
  SingleFaultSweep Sweep;
  Sweep.FaultFreeDiameter = analyzeUnderFaults(G, FaultSet()).Diameter;

  std::vector<NodeId> Nodes;
  for (NodeId Node = 0; Node < G.numNodes(); Node += Stride)
    Nodes.push_back(Node);

  SweepOutcome Outcome =
      evaluateScenarios(G, Nodes.size(), [&](uint64_t I) {
        FaultSet Faults;
        Faults.failNode(Nodes[I]);
        return Faults;
      });
  // Zero scenarios (empty graph) must not read as always-connected.
  Sweep.AlwaysConnected = !Nodes.empty() && Outcome.AlwaysConnected;
  Sweep.WorstDiameter = Outcome.WorstDiameter;
  Sweep.ScenariosTried = Nodes.size();
  return Sweep;
}
