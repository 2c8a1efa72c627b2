//===- tests/ReferenceSimulator.h - Full-scan simulator oracle -*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The original globally synchronous simulator loop, kept as the oracle
/// for NetworkSimulator (comm/Simulator.h). It implements the same
/// semantics with none of the engine's machinery: one std::deque per
/// directed link, and every step samples every queue, scans every
/// in-flight slot and sweeps every node or link for selection. The
/// differential tests and the traffic bench's smoke gates hold the engine
/// to this loop field for field.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_TESTS_REFERENCESIMULATOR_H
#define SCG_TESTS_REFERENCESIMULATOR_H

#include "comm/PermutationRouting.h"
#include "comm/Simulator.h"
#include "comm/TotalExchange.h"
#include "comm/Workload.h"

#include <deque>
#include <span>
#include <vector>

namespace scg {

/// The reference loop, with NetworkSimulator's injection and run API.
/// Observers receive a configuration-only NetworkSimulator over the same
/// network and model as their context (net() and model() are all the
/// standard observers read).
class ReferenceSimulator {
public:
  ReferenceSimulator(const ExplicitScg &Net, CommModel Model);

  void injectPacket(NodeId Src, std::vector<GenIndex> Route,
                    unsigned FlitCount = 1);
  uint32_t scheduleInjection(uint64_t Step, NodeId Src,
                             std::vector<GenIndex> Route,
                             unsigned FlitCount = 1);
  uint32_t addSharedRoute(std::span<const GenIndex> Route);
  uint32_t scheduleInjectionShared(uint64_t Step, NodeId Src,
                                   uint32_t RouteHandle,
                                   unsigned FlitCount = 1);
  void setClosedLoop(uint64_t MaxNodeQueue) {
    ClosedLoopMaxQueue = MaxNodeQueue;
  }
  void setDimensionCycle(std::vector<GenIndex> Cycle) {
    DimensionCycle = std::move(Cycle);
  }
  void addObserver(SimObserver *Observer) { Observers.push_back(Observer); }

  /// Runs every step in full. TouchedWork is the loop's analytic slot
  /// count, fullScanWork(Net, Model, Steps).
  SimulationResult run(uint64_t MaxSteps);

  std::span<const uint64_t> deliverySteps() const { return DeliveryStep; }
  uint64_t queuedPacketSum() const { return QueuedSum; }

private:
  struct Packet {
    NodeId At;
    uint32_t NextHop;
    unsigned Flits;
    uint32_t RouteBegin;
    uint32_t RouteLen;
  };
  struct InFlight {
    uint32_t Id = 0;
    uint64_t DoneStep = 0;
    bool Active = false;
  };
  struct TimedInjection {
    uint64_t Step;
    uint32_t Id;
  };

  size_t queueIndex(NodeId Node, GenIndex Link) const {
    return size_t(Node) * Net.degree() + Link;
  }
  GenIndex routeHop(const Packet &P, uint32_t Hop) const {
    return RoutePool[size_t(P.RouteBegin) + Hop];
  }
  uint32_t addPacket(NodeId Src, uint32_t Begin, uint32_t Len,
                     unsigned FlitCount);
  template <bool Collect> SimulationResult runImpl(uint64_t MaxSteps);

  const ExplicitScg &Net;
  CommModel Model;
  NetworkSimulator Context;
  uint64_t ClosedLoopMaxQueue = 0;
  std::vector<GenIndex> RoutePool;
  std::vector<std::pair<uint32_t, uint32_t>> SharedRoutes;
  std::vector<Packet> Packets;
  std::vector<std::deque<uint32_t>> Queues;
  std::vector<InFlight> Busy;
  std::vector<TimedInjection> Injections;
  std::vector<GenIndex> DimensionCycle;
  std::vector<GenIndex> PortPointer;
  std::vector<uint64_t> NodeBusyUntil;
  std::vector<uint64_t> DeliveryStep;
  uint64_t Pending = 0;
  std::vector<uint32_t> DeliveredAtInject; ///< zero-hop injectPacket ids.
  uint64_t QueuedSum = 0;
  std::vector<SimObserver *> Observers;
};

/// Slots the full-scan loop touches over \p Steps steps: every queue is
/// sampled and every in-flight slot scanned each step, plus the selection
/// sweep (per link under all-port, per node otherwise).
uint64_t fullScanWork(const ExplicitScg &Net, CommModel Model,
                      uint64_t Steps);

/// simulateTrafficLoad replayed on the reference loop: the same trace,
/// routes from the scalar per-pair router (routeViaStarEmulation on the
/// absolute labels, with no label dedup or query engine), and latency and
/// occupancy statistics recomputed from the reference's delivery steps.
/// Every field is filled except SetupSeconds; Sim.TouchedWork is the
/// reference loop's own.
TrafficLoadResult referenceTrafficLoad(const ExplicitScg &Net,
                                       CommModel Model,
                                       const WorkloadSpec &Spec,
                                       uint64_t Steps,
                                       uint64_t ClosedLoopMaxQueue = 0);

/// simulatePermutationRouting replayed on the reference loop: one scalar
/// routeViaStarEmulation call per moving node on the absolute labels, link
/// loads counted in a (node, generator) map, every result field recomputed.
PermutationRoutingResult
referencePermutationRouting(const ExplicitScg &Net,
                            const TrafficPattern &Pattern, CommModel Model);

/// simulateTotalExchange replayed on the reference loop: one scalar
/// routeViaStarEmulation call per (source, destination) pair on the
/// absolute labels, injected in the driver's order, every result field
/// recomputed (LowerBound through teLowerBound).
TeResult referenceTotalExchange(const ExplicitScg &Net, CommModel Model);

} // namespace scg

#endif // SCG_TESTS_REFERENCESIMULATOR_H
