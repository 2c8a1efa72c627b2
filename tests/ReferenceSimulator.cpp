//===- tests/ReferenceSimulator.cpp - Full-scan simulator oracle ----------===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ReferenceSimulator.h"

#include "comm/SimObserver.h"
#include "emulation/ScgRouter.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

using namespace scg;

ReferenceSimulator::ReferenceSimulator(const ExplicitScg &Net, CommModel Model)
    : Net(Net), Model(Model), Context(Net, Model),
      Queues(size_t(Net.numNodes()) * Net.degree()),
      Busy(size_t(Net.numNodes()) * Net.degree()),
      PortPointer(Net.numNodes(), 0), NodeBusyUntil(Net.numNodes(), 0) {
  for (GenIndex G = 0; G != Net.degree(); ++G)
    DimensionCycle.push_back(G);
}

uint32_t ReferenceSimulator::addPacket(NodeId Src, uint32_t Begin,
                                       uint32_t Len, unsigned FlitCount) {
  Packets.push_back({Src, 0, FlitCount, Begin, Len});
  return uint32_t(Packets.size() - 1);
}

void ReferenceSimulator::injectPacket(NodeId Src, std::vector<GenIndex> Route,
                                      unsigned FlitCount) {
  uint32_t Begin = uint32_t(RoutePool.size());
  RoutePool.insert(RoutePool.end(), Route.begin(), Route.end());
  uint32_t Id = addPacket(Src, Begin, uint32_t(Route.size()), FlitCount);
  if (Route.empty()) {
    DeliveredAtInject.push_back(Id);
    return;
  }
  Queues[queueIndex(Src, Route.front())].push_back(Id);
  ++Pending;
}

uint32_t ReferenceSimulator::scheduleInjection(uint64_t Step, NodeId Src,
                                               std::vector<GenIndex> Route,
                                               unsigned FlitCount) {
  uint32_t Begin = uint32_t(RoutePool.size());
  RoutePool.insert(RoutePool.end(), Route.begin(), Route.end());
  uint32_t Id = addPacket(Src, Begin, uint32_t(Route.size()), FlitCount);
  Injections.push_back({Step, Id});
  return Id;
}

uint32_t ReferenceSimulator::addSharedRoute(std::span<const GenIndex> Route) {
  SharedRoutes.push_back({uint32_t(RoutePool.size()), uint32_t(Route.size())});
  RoutePool.insert(RoutePool.end(), Route.begin(), Route.end());
  return uint32_t(SharedRoutes.size() - 1);
}

uint32_t ReferenceSimulator::scheduleInjectionShared(uint64_t Step,
                                                     NodeId Src,
                                                     uint32_t RouteHandle,
                                                     unsigned FlitCount) {
  auto [Begin, Len] = SharedRoutes.at(RouteHandle);
  uint32_t Id = addPacket(Src, Begin, Len, FlitCount);
  Injections.push_back({Step, Id});
  return Id;
}

SimulationResult ReferenceSimulator::run(uint64_t MaxSteps) {
  std::stable_sort(Injections.begin(), Injections.end(),
                   [](const TimedInjection &A, const TimedInjection &B) {
                     return A.Step < B.Step;
                   });
  DeliveryStep.assign(Packets.size(), NetworkSimulator::NotDelivered);
  for (uint32_t Id : DeliveredAtInject)
    DeliveryStep[Id] = 0;
  return Observers.empty() ? runImpl<false>(MaxSteps)
                           : runImpl<true>(MaxSteps);
}

template <bool Collect>
SimulationResult ReferenceSimulator::runImpl(uint64_t MaxSteps) {
  SimulationResult Result;
  Result.Delivered = DeliveredAtInject.size();
  unsigned Degree = Net.degree();
  std::vector<uint32_t> Moved;

  StepEvents Events;
  if constexpr (Collect) {
    Events.Model = Model;
    for (SimObserver *O : Observers)
      O->onRunBegin(Context);
  }

  std::deque<TimedInjection> Deferred;
  constexpr uint64_t NeverStep = ~uint64_t(0);
  std::vector<uint64_t> BlockedAt(ClosedLoopMaxQueue ? Net.numNodes() : 0,
                                  NeverStep);
  auto NodeQueueDepth = [&](NodeId U) {
    size_t Depth = 0;
    for (GenIndex G = 0; G != Net.degree(); ++G)
      Depth += Queues[queueIndex(U, G)].size();
    return Depth;
  };
  auto Deliver = [&](uint32_t Id, uint64_t Step) {
    ++Result.Delivered;
    DeliveryStep[Id] = Step;
    if constexpr (Collect)
      Events.Deliveries.push_back(Id);
  };

  size_t InjCursor = 0;
  while ((Pending != 0 || InjCursor != Injections.size() ||
          !Deferred.empty()) &&
         Result.Steps != MaxSteps) {
    uint64_t Step = Result.Steps++;
    Moved.clear();
    if constexpr (Collect) {
      Events.clear();
      Events.Step = Step;
    }

    auto TryAdmit = [&](const TimedInjection &Inj) {
      const Packet &P = Packets[Inj.Id];
      if (ClosedLoopMaxQueue && P.RouteLen != 0) {
        if (BlockedAt[P.At] == Step ||
            NodeQueueDepth(P.At) >= ClosedLoopMaxQueue) {
          BlockedAt[P.At] = Step;
          return false;
        }
      }
      if (Step != Inj.Step) {
        ++Result.DeferredInjections;
        Result.DeferredSteps += Step - Inj.Step;
      }
      if (P.RouteLen == 0) {
        Deliver(Inj.Id, Step);
        return true;
      }
      Queues[queueIndex(P.At, routeHop(P, 0))].push_back(Inj.Id);
      ++Pending;
      return true;
    };
    for (size_t I = 0, E = Deferred.size(); I != E; ++I) {
      TimedInjection Inj = Deferred.front();
      Deferred.pop_front();
      if (!TryAdmit(Inj))
        Deferred.push_back(Inj);
    }
    while (InjCursor != Injections.size() &&
           Injections[InjCursor].Step <= Step) {
      const TimedInjection &Inj = Injections[InjCursor++];
      if (!TryAdmit(Inj))
        Deferred.push_back(Inj);
    }

    // Sample queue occupancy before transmissions.
    for (const auto &Queue : Queues) {
      Result.MaxQueueLength =
          std::max<uint64_t>(Result.MaxQueueLength, Queue.size());
      QueuedSum += Queue.size();
      if constexpr (Collect) {
        Events.QueuedPackets += Queue.size();
        Events.MaxQueueDepth =
            std::max<uint64_t>(Events.MaxQueueDepth, Queue.size());
      }
    }

    // Phase 0: in-flight multi-flit occupancy and arrivals.
    for (size_t Q = 0; Q != Busy.size(); ++Q) {
      InFlight &F = Busy[Q];
      if (!F.Active || F.DoneStep < Step)
        continue;
      ++Result.BusyLinkSteps;
      if constexpr (Collect)
        Events.Active.push_back({NodeId(Q / Degree), GenIndex(Q % Degree),
                                 F.Id, Packets[F.Id].Flits, false});
      if (F.DoneStep != Step)
        continue;
      Packet &P = Packets[F.Id];
      P.At = Net.next(P.At, routeHop(P, P.NextHop));
      ++P.NextHop;
      Moved.push_back(F.Id);
      ++Result.Transmissions;
    }

    // Phase 1: select one packet per permitted, idle link.
    auto SelectLink = [&](NodeId Node, GenIndex Link) {
      size_t Q = queueIndex(Node, Link);
      if (Busy[Q].Active && Busy[Q].DoneStep >= Step)
        return false;
      auto &Queue = Queues[Q];
      if (Queue.empty())
        return false;
      uint32_t Id = Queue.front();
      Queue.pop_front();
      Packet &P = Packets[Id];
      assert(P.At == Node && routeHop(P, P.NextHop) == Link &&
             "queue corruption");
      ++Result.BusyLinkSteps;
      if constexpr (Collect)
        Events.Active.push_back({Node, Link, Id, P.Flits, true});
      if (P.Flits > 1) {
        Busy[Q] = {Id, Step + P.Flits - 1, true};
        NodeBusyUntil[Node] = Step + P.Flits;
        return true;
      }
      P.At = Net.next(Node, Link);
      ++P.NextHop;
      Moved.push_back(Id);
      ++Result.Transmissions;
      return true;
    };

    switch (Model) {
    case CommModel::AllPort:
      for (NodeId Node = 0; Node != Net.numNodes(); ++Node)
        for (GenIndex G = 0; G != Degree; ++G)
          SelectLink(Node, G);
      break;
    case CommModel::SinglePort:
      for (NodeId Node = 0; Node != Net.numNodes(); ++Node) {
        if (NodeBusyUntil[Node] > Step)
          continue;
        for (unsigned Offset = 0; Offset != Degree; ++Offset) {
          GenIndex G = (PortPointer[Node] + Offset) % Degree;
          if (SelectLink(Node, G)) {
            PortPointer[Node] = (G + 1) % Degree;
            break;
          }
        }
      }
      break;
    case CommModel::SingleDimension: {
      GenIndex G = DimensionCycle[Step % DimensionCycle.size()];
      if constexpr (Collect) {
        Events.ScheduledLink = G;
        Events.HasScheduledLink = true;
      }
      for (NodeId Node = 0; Node != Net.numNodes(); ++Node)
        SelectLink(Node, G);
      break;
    }
    }

    // Phase 2: re-enqueue or deliver the moved packets.
    for (uint32_t Id : Moved) {
      Packet &P = Packets[Id];
      if (P.NextHop == P.RouteLen) {
        --Pending;
        Deliver(Id, Step);
        continue;
      }
      Queues[queueIndex(P.At, routeHop(P, P.NextHop))].push_back(Id);
    }

    if constexpr (Collect) {
      Events.Arrivals = Moved;
      for (SimObserver *O : Observers)
        O->onStep(Context, Events);
    }
  }

  Result.Completed =
      (Pending == 0 && InjCursor == Injections.size() && Deferred.empty());
  uint64_t LinkSteps = uint64_t(Net.numNodes()) * Degree * Result.Steps;
  Result.LinkUtilization =
      LinkSteps ? double(Result.BusyLinkSteps) / double(LinkSteps) : 0.0;
  Result.TouchedWork = fullScanWork(Net, Model, Result.Steps);
  if constexpr (Collect) {
    for (SimObserver *O : Observers)
      O->onRunEnd(Context, Result);
  }
  return Result;
}

uint64_t scg::fullScanWork(const ExplicitScg &Net, CommModel Model,
                           uint64_t Steps) {
  uint64_t Links = uint64_t(Net.numNodes()) * Net.degree();
  return Steps * (2 * Links + (Model == CommModel::AllPort
                                   ? Links
                                   : uint64_t(Net.numNodes())));
}

TrafficLoadResult scg::referenceTrafficLoad(const ExplicitScg &Net,
                                            CommModel Model,
                                            const WorkloadSpec &Spec,
                                            uint64_t Steps,
                                            uint64_t ClosedLoopMaxQueue) {
  std::vector<TrafficEvent> Trace = WorkloadGenerator(Net, Spec).generate(Steps);
  ReferenceSimulator Sim(Net, Model);
  Sim.setClosedLoop(ClosedLoopMaxQueue);
  std::vector<unsigned> Hops;
  std::set<NodeId> Labels;
  for (const TrafficEvent &E : Trace) {
    std::vector<GenIndex> Route;
    if (E.Src != E.Dst) {
      Route = routeViaStarEmulation(Net.network(), Net.label(E.Src),
                                    Net.label(E.Dst))
                  .hops();
      Labels.insert(
          Net.rankOf(Net.label(E.Src).inverse().compose(Net.label(E.Dst))));
    }
    Hops.push_back(unsigned(Route.size()));
    Sim.scheduleInjection(E.Step, E.Src, std::move(Route), Spec.FlitCount);
  }

  TrafficLoadResult R;
  R.Sim = Sim.run(Steps);
  R.Offered = Trace.size();
  double NodeSteps = double(Net.numNodes()) * double(Steps ? Steps : 1);
  R.OfferedRate = double(R.Offered) / NodeSteps;
  R.DeliveredRate = double(R.Sim.Delivered) / NodeSteps;
  R.DistinctLabels = Labels.size();
  R.DedupFactor =
      Labels.empty() ? 0.0 : double(Trace.size()) / double(Labels.size());

  std::vector<uint64_t> Latencies;
  uint64_t HopSum = 0, LatencySum = 0;
  for (size_t I = 0; I != Trace.size(); ++I) {
    uint64_t At = Sim.deliverySteps()[I];
    if (At == NetworkSimulator::NotDelivered)
      continue;
    uint64_t Latency = Hops[I] ? At - Trace[I].Step + 1 : 0;
    Latencies.push_back(Latency);
    LatencySum += Latency;
    HopSum += Hops[I];
  }
  if (!Latencies.empty()) {
    R.MeanHops = double(HopSum) / double(Latencies.size());
    R.MeanLatency = double(LatencySum) / double(Latencies.size());
    std::sort(Latencies.begin(), Latencies.end());
    R.P50Latency = Latencies[(Latencies.size() - 1) * 50 / 100];
    R.P99Latency = Latencies[(Latencies.size() - 1) * 99 / 100];
  }
  if (R.Sim.Steps)
    R.MeanQueued = double(Sim.queuedPacketSum()) / double(R.Sim.Steps);
  return R;
}

PermutationRoutingResult
scg::referencePermutationRouting(const ExplicitScg &Net,
                                 const TrafficPattern &Pattern,
                                 CommModel Model) {
  ReferenceSimulator Sim(Net, Model);
  PermutationRoutingResult R;
  std::map<std::pair<NodeId, GenIndex>, uint64_t> Load;
  uint64_t HopTotal = 0, Injected = 0;
  unsigned Longest = 0;
  for (NodeId U = 0; U != Net.numNodes(); ++U) {
    if (Pattern[U] == U)
      continue;
    GeneratorPath Path = routeViaStarEmulation(Net.network(), Net.label(U),
                                               Net.label(Pattern[U]));
    NodeId At = U;
    for (GenIndex G : Path.hops()) {
      R.MaxLinkLoad = std::max(R.MaxLinkLoad, ++Load[{At, G}]);
      At = Net.next(At, G);
    }
    HopTotal += Path.length();
    Longest = std::max(Longest, Path.length());
    Sim.injectPacket(U, Path.hops());
    ++Injected;
  }
  R.Steps = Sim.run(uint64_t(Net.numNodes()) * Net.degree() * 8).Steps;
  R.LowerBound = std::max<uint64_t>(Longest, R.MaxLinkLoad);
  R.Ratio = R.LowerBound ? double(R.Steps) / double(R.LowerBound) : 0.0;
  R.AverageRouteLength =
      Injected ? double(HopTotal) / double(Injected) : 0.0;
  return R;
}

TeResult scg::referenceTotalExchange(const ExplicitScg &Net,
                                     CommModel Model) {
  const uint64_t N = Net.numNodes();
  ReferenceSimulator Sim(Net, Model);
  uint64_t HopTotal = 0;
  // The driver's injection order: source-major, then relative label rank
  // (destination label(S) o label(Rel)).
  for (NodeId S = 0; S != N; ++S)
    for (NodeId Rel = 1; Rel != N; ++Rel) {
      Permutation Dst = Net.label(S).compose(Net.label(Rel));
      GeneratorPath Path =
          routeViaStarEmulation(Net.network(), Net.label(S), Dst);
      HopTotal += Path.length();
      Sim.injectPacket(S, Path.hops());
    }
  SimulationResult Run = Sim.run(N * 64);
  TeResult R;
  R.Steps = Run.Steps;
  R.Packets = N * (N - 1);
  R.LowerBound = teLowerBound(Net);
  R.Ratio = R.LowerBound ? double(R.Steps) / double(R.LowerBound) : 0.0;
  R.LinkUtilization = Run.LinkUtilization;
  R.AverageRouteLength = double(HopTotal) / double(N * (N - 1));
  return R;
}
