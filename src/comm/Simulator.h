//===- comm/Simulator.h - Packet-level network simulator -------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A packet-level network simulator over an explicit super Cayley graph,
/// implementing the paper's three communication models:
///
///   all-port          every directed link moves one packet per step
///   single-port       every node transmits on at most one link per step
///   single-dimension  all nodes use links of one generator per step (the
///                     SDC model of Section 3), cycling a dimension
///                     schedule
///
/// Packets carry fixed source routes (generator words). Per-link FIFO
/// queues, two-phase step execution (select transmissions, then apply), and
/// completion/utilization statistics.
///
/// One globally synchronous engine executes every model. Per-link FIFOs
/// are intrusive lists in flat arrays (head, tail and length per link, one
/// next-pointer per packet), so a simulator costs a few bytes per link and
/// nothing per idle queue. Each step scans a bitmap of non-empty queues
/// (and one of multi-flit links in flight) word by word in ascending link
/// id, which is the order the original full-scan loop visited links in, so
/// results are byte-identical to it -- pinned by
/// tests/SimulatorDifferentialTest.cpp against that loop, kept in tests/ as
/// the reference. Steps where nothing is queued, in flight or deferred are
/// skipped up to the next scheduled injection; they would hold no traffic.
///
/// Traffic can be injected up front (injectPacket) or scheduled for a
/// future step (scheduleInjection), which is how the open-loop workload
/// driver offers load at a configurable injection rate. After run(), the
/// delivery step of every packet and the summed queue occupancy are read
/// straight off the simulator (deliverySteps, queuedPacketSum).
///
/// Public entry points validate their input and throw
/// std::invalid_argument on a source node, hop, flit count, route handle
/// or dimension cycle the network cannot carry.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_COMM_SIMULATOR_H
#define SCG_COMM_SIMULATOR_H

#include "networks/Explicit.h"

#include <cstdint>
#include <span>
#include <vector>

namespace scg {

/// The communication models of Sections 3 and 4.
enum class CommModel { AllPort, SinglePort, SingleDimension };

/// Returns a display name ("all-port", ...).
std::string commModelName(CommModel Model);

/// Historical engine selector. There is one engine now; both values run
/// it and give identical results. Kept so existing callers compile.
enum class SimEngine { Step, Event };

/// Returns a display name ("step", "event").
std::string simEngineName(SimEngine Engine);

/// Outcome of a simulation run.
struct SimulationResult {
  bool Completed = false; ///< all packets delivered within the step cap.
  uint64_t Steps = 0;     ///< steps executed until completion (or cap).
  uint64_t Delivered = 0; ///< packets delivered, including zero-hop packets
                          ///< injected with an empty route.
  /// Message-hops: one per (message, link) transmission regardless of the
  /// message's flit count. A 3-flit message crossing 2 links contributes 2.
  uint64_t Transmissions = 0;
  /// Link occupancy in link-steps: a FlitCount-flit message-hop holds its
  /// link for FlitCount steps and contributes all of them. This, not
  /// Transmissions, is what utilization is computed from.
  uint64_t BusyLinkSteps = 0;
  uint64_t MaxQueueLength = 0;
  double LinkUtilization = 0.0; ///< BusyLinkSteps / (links * steps).
  /// Engine-work diagnostic: bitmap words scanned plus queue and link
  /// slots touched (selection visits, in-flight visits, injection
  /// attempts). Deterministic and identical with or without observers; a
  /// full-scan loop would touch Steps * (3 * links) slots under all-port.
  uint64_t TouchedWork = 0;
  /// Closed-loop admission control (setClosedLoop): scheduled injections
  /// that were admitted later than their scheduled step, and the total
  /// admission delay in steps summed over them. Both zero under open loop
  /// (injections still deferred when the run ends are counted in neither).
  uint64_t DeferredInjections = 0;
  uint64_t DeferredSteps = 0;
};

class SimObserver;

/// The simulator. Inject packets, then run() once. Optionally attach
/// SimObservers (comm/SimObserver.h) first; with none attached run()
/// executes an uninstrumented loop, so observability is free when off and
/// results are identical either way.
class NetworkSimulator {
public:
  NetworkSimulator(const ExplicitScg &Net, CommModel Model);

  const ExplicitScg &net() const { return Net; }
  CommModel model() const { return Model; }

  /// No-op: every SimEngine value runs the one engine.
  void setEngine(SimEngine) {}

  /// No-op: the engine is serial, so results are trivially identical at
  /// every shard and thread count.
  void setEventShards(unsigned) {}

  /// Injects a packet at \p Src that will follow \p Route hop by hop.
  /// \p FlitCount > 1 models a store-and-forward message: each link
  /// transmission occupies the link for FlitCount consecutive steps (the
  /// whole message is buffered per hop). Pipelined (cut-through/wormhole)
  /// transfers are modeled by injecting FlitCount unit packets instead.
  /// Packets injected here enter their queues before step 0, ahead of any
  /// scheduled injection; zero-hop ones count as delivered at step 0.
  void injectPacket(NodeId Src, std::vector<GenIndex> Route,
                    unsigned FlitCount = 1);

  /// Schedules a packet to be injected at the start of step \p Step (so it
  /// is eligible to transmit during that step). Open-loop traffic at a
  /// configurable injection rate is built from these. Returns the packet
  /// id, which indexes deliverySteps() and StepEvents::Deliveries. Packets
  /// scheduled for the same step are injected in call order.
  uint32_t scheduleInjection(uint64_t Step, NodeId Src,
                             std::vector<GenIndex> Route,
                             unsigned FlitCount = 1);

  /// Registers \p Route once in the simulator's flat route pool and
  /// returns a handle; any number of injections can then share it via
  /// scheduleInjectionShared. On a vertex-transitive network a route is a
  /// function of the relative label only, so the batched traffic setup
  /// stores one route per distinct label here instead of one owned
  /// std::vector per packet. The route is validated here, once.
  uint32_t addSharedRoute(std::span<const GenIndex> Route);

  /// scheduleInjection following the previously registered shared route
  /// \p RouteHandle (an addSharedRoute return value). Returns the packet
  /// id; ids are shared with the owned-route overload and stay contiguous
  /// in call order.
  uint32_t scheduleInjectionShared(uint64_t Step, NodeId Src,
                                   uint32_t RouteHandle,
                                   unsigned FlitCount = 1);

  /// Closed-loop admission control for scheduled injections: when
  /// \p MaxNodeQueue is nonzero, an injection is admitted at the first
  /// step >= its scheduled step at which the total queued packets across
  /// its source node's output queues is below the limit; otherwise it is
  /// deferred and retried (FIFO among deferred injections, which are
  /// always retried before that step's newly scheduled ones). Zero-hop
  /// packets occupy no queue and are never throttled. 0 (the default)
  /// restores open-loop behavior.
  void setClosedLoop(uint64_t MaxNodeQueue) {
    ClosedLoopMaxQueue = MaxNodeQueue;
  }

  /// For the single-dimension model: the generator used at step t is
  /// Cycle[t % Cycle.size()]. Defaults to cycling all generators in order.
  /// Throws std::invalid_argument on an empty cycle or a generator the
  /// network does not have.
  void setDimensionCycle(std::vector<GenIndex> Cycle);

  /// Attaches a step observer (non-owning; must outlive run()). Observers
  /// fire in attachment order at the end of every processed step. Steps
  /// skipped because nothing was queued, in flight or deferred fire no
  /// onStep (there is nothing to report: no link is busy, no packet
  /// moves, every queue is empty).
  void addObserver(SimObserver *Observer);

  /// Runs until every packet (including scheduled injections) is delivered
  /// or \p MaxSteps elapse. A simulator runs once; a second call throws
  /// std::logic_error.
  SimulationResult run(uint64_t MaxSteps);

  /// deliverySteps() value of a packet still in the network (or never
  /// admitted) when run() returned.
  static constexpr uint64_t NotDelivered = ~uint64_t(0);

  /// After run(): the step each packet was delivered in, indexed by packet
  /// id (injection call order), or NotDelivered.
  std::span<const uint64_t> deliverySteps() const { return DeliveryStep; }

  /// After run(): the queued-packet count sampled at the start of every
  /// step (after that step's injections), summed over the run's steps.
  /// Skipped steps hold zero packets, so QueuedSum / Steps is the mean
  /// occupancy over the whole run.
  uint64_t queuedPacketSum() const { return QueuedSum; }

private:
  /// Packets hold views into RoutePool (begin + length) instead of owned
  /// vectors: shared routes are registered once and referenced by every
  /// packet on the same relative label, and per-packet state is a flat
  /// record with no heap indirection on the hot path.
  struct Packet {
    NodeId At;
    uint32_t NextHop;
    unsigned Flits;
    uint32_t RouteBegin; ///< first hop's index in RoutePool.
    uint32_t RouteLen;   ///< number of hops.
  };

  /// A scheduled future injection: Packets[Id] enters its first queue at
  /// the start of step Step.
  struct TimedInjection {
    uint64_t Step;
    uint32_t Id;
  };

  /// Throws std::invalid_argument unless \p Src is a node and \p FlitCount
  /// is at least one.
  void checkSource(NodeId Src, unsigned FlitCount) const;

  /// Throws std::invalid_argument unless every hop is a generator index.
  void checkRoute(std::span<const GenIndex> Route) const;

  /// Appends a validated \p Route to RoutePool and returns (begin, length).
  std::pair<uint32_t, uint32_t> appendRoute(std::span<const GenIndex> Route);

  /// The engine loop. Instantiated twice: Observed = false is the hot loop
  /// with no event collection (selected whenever no observer is
  /// attached); Observed = true builds a StepEvents record per processed
  /// step.
  template <bool Observed> SimulationResult runImpl(uint64_t MaxSteps);

  const ExplicitScg &Net;
  CommModel Model;
  uint64_t ClosedLoopMaxQueue = 0; ///< 0 = open loop (no admission control).
  std::vector<GenIndex> RoutePool; ///< every route, flat; packets index in.
  /// Shared routes by handle: (begin, length) into RoutePool.
  std::vector<std::pair<uint32_t, uint32_t>> SharedRoutes;
  std::vector<Packet> Packets;
  std::vector<uint32_t> PreRun; ///< injectPacket ids with a nonempty route.
  std::vector<TimedInjection> Injections; ///< future injections, by Step.
  std::vector<GenIndex> DimensionCycle;
  std::vector<SimObserver *> Observers;
  bool Ran = false;
  std::vector<uint64_t> DeliveryStep; ///< filled by run().
  uint64_t QueuedSum = 0;             ///< filled by run().
};

} // namespace scg

#endif // SCG_COMM_SIMULATOR_H
