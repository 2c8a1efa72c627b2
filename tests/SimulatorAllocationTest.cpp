//===- tests/SimulatorAllocationTest.cpp - Simulator memory footprint ----===//
//
// Pins the simulator's heap footprint with a byte-counting operator new
// (the interposer pattern of tests/MsBfsTest.cpp). The per-link
// queues are flat arrays sized in run(), so constructing a simulator
// allocates almost nothing per link, and a run allocates a few words per
// link and per packet -- never a container per queue.
//
//===----------------------------------------------------------------------===//

#include "comm/Simulator.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

using namespace scg;

static std::atomic<uint64_t> GHeapBytes{0};

void *operator new(std::size_t Size) {
  GHeapBytes += Size;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
// std::stable_sort's scratch buffer comes from the nothrow form; it must
// pair with the free() below too.
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  GHeapBytes += Size;
  return std::malloc(Size ? Size : 1);
}
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

TEST(SimulatorAllocation, ConstructionCostsAtMostSixteenBytesPerLink) {
  ExplicitScg Net(SuperCayleyGraph::star(7));
  const uint64_t Links = uint64_t(Net.numNodes()) * Net.degree();
  for (CommModel Model : {CommModel::AllPort, CommModel::SinglePort,
                          CommModel::SingleDimension}) {
    uint64_t Before = GHeapBytes.load();
    NetworkSimulator Sim(Net, Model);
    uint64_t Bytes = GHeapBytes.load() - Before;
    EXPECT_LE(Bytes, 16 * Links)
        << commModelName(Model) << ": " << Bytes << " bytes for " << Links
        << " links";
  }
}

TEST(SimulatorAllocation, RunCostsAFewWordsPerLinkAndPacket) {
  ExplicitScg Net(SuperCayleyGraph::star(7));
  const uint64_t Links = uint64_t(Net.numNodes()) * Net.degree();
  for (CommModel Model : {CommModel::AllPort, CommModel::SinglePort,
                          CommModel::SingleDimension}) {
    NetworkSimulator Sim(Net, Model);
    SplitMix64 Rng(3);
    const uint64_t Packets = 20000;
    for (uint64_t P = 0; P != Packets; ++P) {
      std::vector<GenIndex> Route;
      for (unsigned H = 0; H != 4; ++H)
        Route.push_back(GenIndex(Rng.nextBelow(Net.degree())));
      Sim.scheduleInjection(P / 400, NodeId(Rng.nextBelow(Net.numNodes())),
                            Route, P % 3 ? 1 : 3);
    }
    uint64_t Before = GHeapBytes.load();
    SimulationResult R = Sim.run(100000);
    uint64_t Bytes = GHeapBytes.load() - Before;
    ASSERT_TRUE(R.Completed) << commModelName(Model);
    // Queue head/tail/length and in-flight state per link; next pointer,
    // delivery step and moved-list slot per packet.
    EXPECT_LE(Bytes, 32 * Links + 32 * Packets)
        << commModelName(Model) << ": " << Bytes << " bytes";
  }
}
