//===- comm/PermutationRouting.cpp - Permutation traffic -----------------===//

#include "comm/PermutationRouting.h"

#include "comm/LiftedRoutes.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <stdexcept>

using namespace scg;

TrafficPattern scg::randomTraffic(const ExplicitScg &Net, uint64_t Seed) {
  // Fisher-Yates with the deterministic RNG.
  TrafficPattern Pattern(Net.numNodes());
  for (NodeId U = 0; U != Net.numNodes(); ++U)
    Pattern[U] = U;
  SplitMix64 Rng(Seed);
  for (NodeId U = Net.numNodes(); U-- > 1;)
    std::swap(Pattern[U], Pattern[Rng.nextBelow(U + 1)]);
  return Pattern;
}

TrafficPattern scg::reversalTraffic(const ExplicitScg &Net) {
  TrafficPattern Pattern(Net.numNodes());
  for (NodeId U = 0; U != Net.numNodes(); ++U)
    Pattern[U] = Net.numNodes() - 1 - U;
  return Pattern;
}

TrafficPattern scg::translationTraffic(const ExplicitScg &Net, GenIndex G) {
  if (G >= Net.degree())
    throw std::invalid_argument("generator " + std::to_string(G) +
                                " is out of range for degree " +
                                std::to_string(Net.degree()));
  TrafficPattern Pattern(Net.numNodes());
  for (NodeId U = 0; U != Net.numNodes(); ++U)
    Pattern[U] = Net.next(U, G);
  return Pattern;
}

PermutationRoutingResult
scg::simulatePermutationRouting(const ExplicitScg &Net,
                                const TrafficPattern &Pattern,
                                CommModel Model,
                                const std::vector<SimObserver *> &Observers) {
  const NodeId Count = Net.numNodes();
  if (Pattern.size() != Count)
    throw std::invalid_argument("pattern has " +
                                std::to_string(Pattern.size()) +
                                " entries for " + std::to_string(Count) +
                                " nodes");
  for (NodeId Dst : Pattern)
    if (Dst >= Count)
      throw std::invalid_argument("pattern entry " + std::to_string(Dst) +
                                  " is not a node");

  // One lifted route per moving node, in node order.
  std::vector<NodeId> Srcs;
  std::vector<Permutation> Rels;
  for (NodeId U = 0; U != Count; ++U) {
    if (Pattern[U] == U)
      continue;
    Srcs.push_back(U);
    Rels.push_back(Net.label(U).inverse().compose(Net.label(Pattern[U])));
  }
  RouteArena Routes = liftedRoutes(Net.network(), Rels);

  PermutationRoutingResult Result;
  NetworkSimulator Sim(Net, Model);
  for (SimObserver *O : Observers)
    Sim.addObserver(O);
  std::vector<uint64_t> Load(size_t(Count) * Net.degree(), 0);
  unsigned Longest = 0;
  for (size_t I = 0; I != Srcs.size(); ++I) {
    std::span<const GenIndex> Route = Routes.route(I);
    NodeId At = Srcs[I];
    for (GenIndex G : Route) {
      Result.MaxLinkLoad =
          std::max(Result.MaxLinkLoad, ++Load[size_t(At) * Net.degree() + G]);
      At = Net.next(At, G);
    }
    Longest = std::max(Longest, Routes.length(I));
    Sim.injectPacket(Srcs[I], {Route.begin(), Route.end()});
  }

  SimulationResult Run =
      Sim.run(/*MaxSteps=*/uint64_t(Net.numNodes()) * Net.degree() * 8);
  assert(Run.Completed && "permutation routing did not complete");
  Result.Steps = Run.Steps;
  Result.LowerBound = std::max<uint64_t>(Longest, Result.MaxLinkLoad);
  Result.Ratio = Result.LowerBound
                     ? double(Result.Steps) / double(Result.LowerBound)
                     : 0.0;
  Result.AverageRouteLength =
      Srcs.empty() ? 0.0 : double(Routes.Hops.size()) / double(Srcs.size());
  return Result;
}

std::vector<PermutationRoutingResult>
scg::simulatePermutationRoutingBatch(const ExplicitScg &Net,
                                     const std::vector<TrafficPattern> &Patterns,
                                     CommModel Model) {
  // Each pattern gets its own NetworkSimulator and load vector; the shared
  // ExplicitScg is read-only after construction, so instances are
  // independent. One chunk per pattern: a whole simulation is coarse work.
  std::vector<PermutationRoutingResult> Results(Patterns.size());
  ThreadPool::global().parallelFor(
      0, Patterns.size(),
      [&](uint64_t I) {
        Results[I] = simulatePermutationRouting(Net, Patterns[I], Model);
      },
      /*ChunkSize=*/1);
  return Results;
}
