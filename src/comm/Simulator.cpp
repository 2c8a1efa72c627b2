//===- comm/Simulator.cpp - Packet-level network simulator ----------------===//
//
// One globally synchronous engine on flat per-link FIFOs. A step runs the
// phases of the original full-scan loop (kept in tests/ as the reference)
// in the same order -- injections, occupancy sample, in-flight arrivals,
// selection, re-enqueue -- but each phase visits only the links that have
// work, found by scanning bitmaps word by word in ascending link id. Link
// order is all the full scan's results depend on, so they are unchanged.
//
//===----------------------------------------------------------------------===//

#include "comm/Simulator.h"

#include "comm/SimObserver.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <deque>
#include <stdexcept>

using namespace scg;

std::string scg::commModelName(CommModel Model) {
  switch (Model) {
  case CommModel::AllPort:
    return "all-port";
  case CommModel::SinglePort:
    return "single-port";
  case CommModel::SingleDimension:
    return "single-dimension";
  }
  assert(false && "unknown model");
  return "?";
}

std::string scg::simEngineName(SimEngine Engine) {
  switch (Engine) {
  case SimEngine::Step:
    return "step";
  case SimEngine::Event:
    return "event";
  }
  assert(false && "unknown engine");
  return "?";
}

NetworkSimulator::NetworkSimulator(const ExplicitScg &Net, CommModel Model)
    : Net(Net), Model(Model) {
  for (GenIndex G = 0; G != Net.degree(); ++G)
    DimensionCycle.push_back(G);
}

void NetworkSimulator::checkSource(NodeId Src, unsigned FlitCount) const {
  if (Src >= Net.numNodes())
    throw std::invalid_argument("source node " + std::to_string(Src) +
                                " is not below the node count " +
                                std::to_string(Net.numNodes()));
  if (FlitCount == 0)
    throw std::invalid_argument("a message carries at least one flit");
}

void NetworkSimulator::checkRoute(std::span<const GenIndex> Route) const {
  for (GenIndex G : Route)
    if (G >= Net.degree())
      throw std::invalid_argument("route hop g" + std::to_string(G) +
                                  " is not below the degree " +
                                  std::to_string(Net.degree()));
}

std::pair<uint32_t, uint32_t>
NetworkSimulator::appendRoute(std::span<const GenIndex> Route) {
  checkRoute(Route);
  if (RoutePool.size() + Route.size() > ~uint32_t(0))
    throw std::length_error("route pool exceeds 32-bit indexing");
  uint32_t Begin = uint32_t(RoutePool.size());
  RoutePool.insert(RoutePool.end(), Route.begin(), Route.end());
  return {Begin, uint32_t(Route.size())};
}

void NetworkSimulator::injectPacket(NodeId Src, std::vector<GenIndex> Route,
                                    unsigned FlitCount) {
  checkSource(Src, FlitCount);
  auto [Begin, Len] = appendRoute(Route);
  PreRun.push_back(uint32_t(Packets.size()));
  Packets.push_back({Src, 0, FlitCount, Begin, Len});
}

uint32_t NetworkSimulator::scheduleInjection(uint64_t Step, NodeId Src,
                                             std::vector<GenIndex> Route,
                                             unsigned FlitCount) {
  checkSource(Src, FlitCount);
  auto [Begin, Len] = appendRoute(Route);
  uint32_t Id = uint32_t(Packets.size());
  Packets.push_back({Src, 0, FlitCount, Begin, Len});
  Injections.push_back({Step, Id});
  return Id;
}

uint32_t NetworkSimulator::addSharedRoute(std::span<const GenIndex> Route) {
  SharedRoutes.push_back(appendRoute(Route));
  return uint32_t(SharedRoutes.size() - 1);
}

uint32_t NetworkSimulator::scheduleInjectionShared(uint64_t Step, NodeId Src,
                                                   uint32_t RouteHandle,
                                                   unsigned FlitCount) {
  checkSource(Src, FlitCount);
  if (RouteHandle >= SharedRoutes.size())
    throw std::invalid_argument("unknown shared route handle " +
                                std::to_string(RouteHandle));
  auto [Begin, Len] = SharedRoutes[RouteHandle];
  uint32_t Id = uint32_t(Packets.size());
  Packets.push_back({Src, 0, FlitCount, Begin, Len});
  Injections.push_back({Step, Id});
  return Id;
}

void NetworkSimulator::setDimensionCycle(std::vector<GenIndex> Cycle) {
  if (Cycle.empty())
    throw std::invalid_argument("dimension cycle must be nonempty");
  checkRoute(Cycle);
  DimensionCycle = std::move(Cycle);
}

void NetworkSimulator::addObserver(SimObserver *Observer) {
  if (!Observer)
    throw std::invalid_argument("null observer");
  Observers.push_back(Observer);
}

SimulationResult NetworkSimulator::run(uint64_t MaxSteps) {
  if (Ran)
    throw std::logic_error("a NetworkSimulator runs once");
  Ran = true;
  // Scheduled injections enter their queues in (step, call order); the sort
  // is stable so same-step packets keep their scheduling order.
  std::stable_sort(Injections.begin(), Injections.end(),
                   [](const TimedInjection &A, const TimedInjection &B) {
                     return A.Step < B.Step;
                   });
  // One dispatch on entry: the uninstrumented loop contains no observer
  // code at all, so observability is free when no observer is attached.
  return Observers.empty() ? runImpl<false>(MaxSteps)
                           : runImpl<true>(MaxSteps);
}

namespace {

constexpr uint32_t NoPacket = ~uint32_t(0);

/// Calls \p Fn(I) for every set bit I of \p Bits in [Begin, End), in
/// ascending order, reading each word once and counting it in \p Work.
/// Each word is copied before its bits are visited, so \p Fn may clear
/// bits (its own or earlier ones) without disturbing the scan.
template <typename FnT>
void forEachSetBit(const std::vector<uint64_t> &Bits, size_t Begin,
                   size_t End, uint64_t &Work, FnT &&Fn) {
  if (Begin >= End)
    return;
  const size_t First = Begin / 64, Last = (End - 1) / 64;
  for (size_t I = First; I <= Last; ++I) {
    ++Work;
    uint64_t W = Bits[I];
    if (I == First)
      W &= ~uint64_t(0) << (Begin % 64);
    if (I == Last && End % 64)
      W &= ~uint64_t(0) >> (64 - End % 64);
    for (; W; W &= W - 1)
      Fn(I * 64 + size_t(std::countr_zero(W)));
  }
}

void setBit(std::vector<uint64_t> &Bits, size_t I) {
  Bits[I / 64] |= uint64_t(1) << (I % 64);
}

void clearBit(std::vector<uint64_t> &Bits, size_t I) {
  Bits[I / 64] &= ~(uint64_t(1) << (I % 64));
}

} // namespace

template <bool Observed>
SimulationResult NetworkSimulator::runImpl(uint64_t MaxSteps) {
  SimulationResult Result;
  const unsigned D = Net.degree();
  const NodeId N = Net.numNodes();
  const size_t Links = size_t(N) * D;
  const NodeId *NextNode = Net.nextTable().data(); ///< by link id.
  const bool Sdc = Model == CommModel::SingleDimension;
  // Multi-flit state is only touched when some message needs it.
  const bool MultiFlit =
      std::any_of(Packets.begin(), Packets.end(),
                  [](const Packet &P) { return P.Flits > 1; });

  // Per-link intrusive FIFOs: packets chain through NextInQueue.
  struct LinkQueue {
    uint32_t Head = NoPacket, Tail = NoPacket, Len = 0;
  };
  std::vector<LinkQueue> Queue(Links);
  std::vector<uint32_t> NextInQueue(Packets.size());
  // Non-empty queues, by bit index: the link id, except under
  // single-dimension where generator-major order (G * N + node) makes
  // each step's permitted links one contiguous bit range.
  std::vector<uint64_t> NonEmpty((Links + 63) / 64, 0);
  auto BitOf = [&](size_t Q) { return Sdc ? (Q % D) * N + Q / D : Q; };
  auto LinkOfBit = [&](size_t B) { return Sdc ? (B % N) * D + B / N : B; };
  // Multi-flit links in flight (by link id): the in-flight message, and
  // the first step the link may start another transmission.
  std::vector<uint64_t> InFlight(MultiFlit ? NonEmpty.size() : 0, 0);
  std::vector<uint32_t> FlightId(MultiFlit ? Links : 0);
  std::vector<uint64_t> LinkFreeAt(MultiFlit ? Links : 0, 0);
  uint64_t InFlightCount = 0;
  // Single-port state: the first step a node's port is free again after a
  // multi-flit transmission, and the round-robin pointer per node.
  const bool SinglePort = Model == CommModel::SinglePort;
  std::vector<uint64_t> NodeBusyUntil(SinglePort && MultiFlit ? N : 0, 0);
  std::vector<GenIndex> PortPointer(SinglePort ? N : 0, 0);
  // Closed-loop admission reads per-node queued counts.
  std::vector<uint32_t> NodeQueued(ClosedLoopMaxQueue ? N : 0, 0);
  uint64_t TotalQueued = 0;
  uint64_t Work = 0;
  /// Appends packet \p Id to queue \p Q; returns the new queue length.
  auto Push = [&](size_t Q, uint32_t Id) {
    LinkQueue &L = Queue[Q];
    if (L.Len == 0) {
      L.Head = Id;
      setBit(NonEmpty, BitOf(Q));
    } else {
      NextInQueue[L.Tail] = Id;
    }
    L.Tail = Id;
    ++TotalQueued;
    if (ClosedLoopMaxQueue)
      ++NodeQueued[Q / D];
    return uint64_t(++L.Len);
  };
  auto Pop = [&](size_t Q) {
    LinkQueue &L = Queue[Q];
    uint32_t Id = L.Head;
    L.Head = NextInQueue[Id]; // stale when the queue empties; never read.
    if (--L.Len == 0)
      clearBit(NonEmpty, BitOf(Q));
    --TotalQueued;
    if (ClosedLoopMaxQueue)
      --NodeQueued[Q / D];
    return Id;
  };
  auto QueueOf = [&](const Packet &P) {
    return size_t(P.At) * D + RoutePool[size_t(P.RouteBegin) + P.NextHop];
  };

  DeliveryStep.assign(Packets.size(), NotDelivered);
  uint64_t Pending = 0; ///< admitted packets not yet delivered.
  // Queue lengths from pushes since the last occupancy sample: the full
  // scan samples at the start of each step, so a push is counted in
  // MaxQueueLength iff a later step runs.
  uint64_t PendingMax = 0;
  for (uint32_t Id : PreRun) {
    if (Packets[Id].RouteLen == 0) {
      // Already at its destination: delivered traffic, even though there
      // is nothing to simulate.
      ++Result.Delivered;
      DeliveryStep[Id] = 0;
      continue;
    }
    PendingMax = std::max(PendingMax, Push(QueueOf(Packets[Id]), Id));
    ++Pending;
  }

  StepEvents Events;
  if constexpr (Observed) {
    Events.Model = Model;
    for (SimObserver *O : Observers)
      O->onRunBegin(*this);
  }

  // Closed-loop admission state: deferred injections retried FIFO each
  // step, and a per-node "already blocked this step" stamp -- admissions
  // only deepen queues within a step, so one failed depth test per node
  // per step is exact, not an approximation.
  std::deque<TimedInjection> Deferred;
  std::vector<uint64_t> BlockedAt(ClosedLoopMaxQueue ? N : 0, ~uint64_t(0));
  // Packets that completed a hop this step, with the queue of their next
  // hop (NoQueue once delivered), in the order the full scan moves them.
  struct Move {
    uint32_t Id;
    size_t NextQueue;
  };
  constexpr size_t NoQueue = ~size_t(0);
  std::vector<Move> Moved;
  /// Moves packet \p Id across link \p Q and records where it goes next.
  auto Hop = [&](uint32_t Id, size_t Q) {
    Packet &P = Packets[Id];
    P.At = NextNode[Q];
    ++P.NextHop;
    Moved.push_back({Id, P.NextHop == P.RouteLen ? NoQueue : QueueOf(P)});
    ++Result.Transmissions;
  };
  size_t InjCursor = 0;
  uint64_t Step = 0;

  while ((Pending != 0 || InjCursor != Injections.size() ||
          !Deferred.empty()) &&
         Step < MaxSteps) {
    if (Pending == 0 && Deferred.empty()) {
      // Nothing queued, in flight or deferred: the steps before the next
      // injection would move nothing and sample empty queues.
      Step = std::max(Step, Injections[InjCursor].Step);
      if (Step >= MaxSteps) {
        Step = MaxSteps;
        break;
      }
    }
    Result.MaxQueueLength = std::max(Result.MaxQueueLength, PendingMax);
    PendingMax = 0;
    Moved.clear();
    if constexpr (Observed) {
      Events.clear();
      Events.Step = Step;
    }

    // Scheduled injections enter their queues at the start of their step,
    // before the occupancy sample. Zero-hop injections deliver on the
    // spot. Under closed loop an injection whose source node is at the
    // queue depth limit is deferred instead; deferred injections retry
    // first (they were scheduled earliest), in FIFO order.
    auto TryAdmit = [&](const TimedInjection &Inj) {
      ++Work;
      const Packet &P = Packets[Inj.Id];
      if (ClosedLoopMaxQueue && P.RouteLen != 0) {
        if (BlockedAt[P.At] == Step ||
            NodeQueued[P.At] >= ClosedLoopMaxQueue) {
          BlockedAt[P.At] = Step;
          return false;
        }
      }
      if (Step != Inj.Step) {
        ++Result.DeferredInjections;
        Result.DeferredSteps += Step - Inj.Step;
      }
      if (P.RouteLen == 0) {
        ++Result.Delivered;
        DeliveryStep[Inj.Id] = Step;
        if constexpr (Observed)
          Events.Deliveries.push_back(Inj.Id);
        return true;
      }
      Result.MaxQueueLength =
          std::max(Result.MaxQueueLength, Push(QueueOf(P), Inj.Id));
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

    QueuedSum += TotalQueued;
    if constexpr (Observed) {
      Events.QueuedPackets = TotalQueued;
      uint64_t Uncounted = 0; // observer-only scan: not engine work.
      forEachSetBit(NonEmpty, 0, Links, Uncounted, [&](size_t B) {
        Events.MaxQueueDepth =
            std::max<uint64_t>(Events.MaxQueueDepth, Queue[LinkOfBit(B)].Len);
      });
    }

    // Phase 0: account in-flight multi-flit occupancy and complete the
    // transmissions whose last flit lands this step.
    if (InFlightCount != 0)
      forEachSetBit(InFlight, 0, Links, Work, [&](size_t Q) {
        ++Work;
        uint32_t Id = FlightId[Q];
        // Occupied this step by a transmission selected earlier (its
        // selection step was counted at selection time).
        ++Result.BusyLinkSteps;
        if constexpr (Observed)
          Events.Active.push_back({NodeId(Q / D), GenIndex(Q % D), Id,
                                   Packets[Id].Flits, false});
        if (LinkFreeAt[Q] != Step + 1)
          return;
        // The last flit lands. The link stays occupied through this step
        // (LinkFreeAt), so phase 1 cannot reuse it until the next one.
        Hop(Id, Q);
        clearBit(InFlight, Q);
        --InFlightCount;
      });

    // Phase 1: select one packet per permitted, idle link and start its
    // transmission. Popping inside the scan is safe: forEachSetBit copies
    // each word before visiting its bits.
    auto LinkBusy = [&](size_t Q) {
      return MultiFlit && LinkFreeAt[Q] > Step;
    };
    auto Transmit = [&](size_t Q) {
      uint32_t Id = Pop(Q);
      Packet &P = Packets[Id];
      assert(QueueOf(P) == Q && "queue corruption");
      // The link is occupied from this step on (one step for a unit
      // packet, Flits steps for a store-and-forward message).
      ++Result.BusyLinkSteps;
      if constexpr (Observed)
        Events.Active.push_back(
            {NodeId(Q / D), GenIndex(Q % D), Id, P.Flits, true});
      if (P.Flits > 1) {
        // Arrival in phase 0 of step Step + Flits - 1; link and node port
        // free again at Step + Flits.
        FlightId[Q] = Id;
        LinkFreeAt[Q] = Step + P.Flits;
        setBit(InFlight, Q);
        ++InFlightCount;
        if (SinglePort)
          NodeBusyUntil[Q / D] = Step + P.Flits;
        return;
      }
      Hop(Id, Q);
    };
    switch (Model) {
    case CommModel::AllPort:
      forEachSetBit(NonEmpty, 0, Links, Work, [&](size_t Q) {
        ++Work;
        if (!LinkBusy(Q))
          Transmit(Q);
      });
      break;
    case CommModel::SinglePort: {
      // One selection per node, round-robin over its links so no queue
      // starves; a node's bits are contiguous, so it is visited once.
      NodeId Last = ~NodeId(0);
      forEachSetBit(NonEmpty, 0, Links, Work, [&](size_t Bit) {
        ++Work;
        NodeId Node = NodeId(Bit / D);
        if (Node == Last)
          return;
        Last = Node;
        // A port mid-way through a multi-flit transmission transmits
        // nothing else until the occupancy ends.
        if (MultiFlit && NodeBusyUntil[Node] > Step)
          return;
        for (unsigned Offset = 0; Offset != D; ++Offset) {
          ++Work;
          GenIndex G = GenIndex((PortPointer[Node] + Offset) % D);
          size_t Q = size_t(Node) * D + G;
          if (Queue[Q].Len == 0 || LinkBusy(Q))
            continue;
          PortPointer[Node] = GenIndex((G + 1) % D);
          Transmit(Q);
          break;
        }
      });
      break;
    }
    case CommModel::SingleDimension: {
      GenIndex G = DimensionCycle[Step % DimensionCycle.size()];
      if constexpr (Observed) {
        Events.ScheduledLink = G;
        Events.HasScheduledLink = true;
      }
      forEachSetBit(NonEmpty, size_t(G) * N, size_t(G + 1) * N, Work,
                    [&](size_t Bit) {
                      ++Work;
                      size_t Q = LinkOfBit(Bit);
                      if (!LinkBusy(Q))
                        Transmit(Q);
                    });
      break;
    }
    }

    // Phase 2: re-enqueue or deliver the moved packets. Two-phase keeps a
    // packet from hopping twice in one step.
    for (const Move &M : Moved) {
      if (M.NextQueue == NoQueue) {
        ++Result.Delivered;
        --Pending;
        DeliveryStep[M.Id] = Step;
        if constexpr (Observed)
          Events.Deliveries.push_back(M.Id);
        continue;
      }
      PendingMax = std::max(PendingMax, Push(M.NextQueue, M.Id));
    }

    if constexpr (Observed) {
      for (const Move &M : Moved)
        Events.Arrivals.push_back(M.Id);
      for (SimObserver *O : Observers)
        O->onStep(*this, Events);
    }
    ++Step;
  }

  Result.Steps = Step;
  Result.Completed =
      Pending == 0 && InjCursor == Injections.size() && Deferred.empty();
  uint64_t LinkSteps = uint64_t(Links) * Result.Steps;
  Result.LinkUtilization =
      LinkSteps ? double(Result.BusyLinkSteps) / double(LinkSteps) : 0.0;
  Result.TouchedWork = Work;
  if constexpr (Observed) {
    for (SimObserver *O : Observers)
      O->onRunEnd(*this, Result);
  }
  return Result;
}
