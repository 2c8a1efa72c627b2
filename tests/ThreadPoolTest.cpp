//===- tests/ThreadPoolTest.cpp - Thread-pool property tests -------------===//
//
// Property-based coverage of the deterministic chunked parallel engine:
// randomized task counts and chunk sizes (deterministic SplitMix64),
// exactly-once execution, exception propagation, nested and empty
// submissions without deadlock, and parallelMapReduce == serial fold --
// byte-identical, including for floating-point reductions.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Format.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>

using namespace scg;

namespace {

/// Temporarily forces a SCG_THREADS value; restores the old state on exit.
class ScopedEnvThreads {
public:
  explicit ScopedEnvThreads(const char *Value) {
    const char *Old = std::getenv("SCG_THREADS");
    HadOld = Old != nullptr;
    if (HadOld)
      OldValue = Old;
    if (Value)
      setenv("SCG_THREADS", Value, /*overwrite=*/1);
    else
      unsetenv("SCG_THREADS");
  }
  ~ScopedEnvThreads() {
    if (HadOld)
      setenv("SCG_THREADS", OldValue.c_str(), 1);
    else
      unsetenv("SCG_THREADS");
  }

private:
  bool HadOld = false;
  std::string OldValue;
};

} // namespace

TEST(ThreadPool, RandomizedForExecutesEveryIndexExactlyOnce) {
  SplitMix64 Rng(0xC0FFEE);
  for (unsigned Trial = 0; Trial != 24; ++Trial) {
    uint64_t N = Rng.nextBelow(400);
    uint64_t Chunk = Rng.nextBelow(17); // 0 = default chunking.
    unsigned Threads = 1 + unsigned(Rng.nextBelow(8));
    ThreadPool Pool(Threads);
    ASSERT_EQ(Pool.numThreads(), Threads);

    std::vector<uint32_t> Hits(N, 0); // one writer per index.
    std::atomic<uint64_t> Total{0};
    Pool.parallelFor(
        0, N,
        [&](uint64_t I) {
          ++Hits[I];
          Total.fetch_add(1, std::memory_order_relaxed);
        },
        Chunk);
    EXPECT_EQ(Total.load(), N) << "trial " << Trial;
    for (uint64_t I = 0; I != N; ++I)
      ASSERT_EQ(Hits[I], 1u) << "trial " << Trial << " index " << I;
  }
}

TEST(ThreadPool, ChunksPartitionTheRange) {
  SplitMix64 Rng(42);
  for (unsigned Trial = 0; Trial != 16; ++Trial) {
    uint64_t Begin = Rng.nextBelow(50);
    uint64_t N = Rng.nextBelow(300);
    uint64_t Chunk = 1 + Rng.nextBelow(31);
    ThreadPool Pool(1 + unsigned(Rng.nextBelow(6)));
    std::vector<uint32_t> Hits(N, 0);
    Pool.parallelForChunks(Begin, Begin + N, Chunk,
                           [&](uint64_t B, uint64_t E) {
                             ASSERT_LT(B, E);
                             ASSERT_LE(E - B, Chunk);
                             ASSERT_EQ((B - Begin) % Chunk, 0u);
                             for (uint64_t I = B; I != E; ++I)
                               ++Hits[I - Begin];
                           });
    for (uint64_t I = 0; I != N; ++I)
      ASSERT_EQ(Hits[I], 1u);
  }
}

TEST(ThreadPool, EmptySubmissionsAreNoOps) {
  ThreadPool Pool(4);
  unsigned Calls = 0;
  Pool.parallelFor(5, 5, [&](uint64_t) { ++Calls; });
  Pool.parallelFor(7, 3, [&](uint64_t) { ++Calls; });
  Pool.parallelForChunks(0, 0, 8, [&](uint64_t, uint64_t) { ++Calls; });
  EXPECT_EQ(Calls, 0u);
  // And the pool still works afterwards.
  std::atomic<unsigned> Ran{0};
  Pool.parallelFor(0, 10, [&](uint64_t) { ++Ran; });
  EXPECT_EQ(Ran.load(), 10u);
}

TEST(ThreadPool, NestedSubmissionsRunInlineWithoutDeadlock) {
  ThreadPool Pool(4);
  std::atomic<uint64_t> Inner{0};
  Pool.parallelFor(0, 8, [&](uint64_t) {
    // Nested region on the same pool: must run inline, not deadlock.
    Pool.parallelFor(0, 5, [&](uint64_t) {
      Inner.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(Inner.load(), 8u * 5u);
}

TEST(ThreadPool, DoublyNestedOnGlobalPool) {
  setGlobalThreadCount(3);
  std::atomic<uint64_t> Count{0};
  ThreadPool::global().parallelFor(0, 4, [&](uint64_t) {
    ThreadPool::global().parallelFor(0, 3, [&](uint64_t) {
      ThreadPool::global().parallelFor(0, 2, [&](uint64_t) {
        Count.fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  setGlobalThreadCount(0);
  EXPECT_EQ(Count.load(), 4u * 3u * 2u);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  for (unsigned Threads : {1u, 2u, 8u}) {
    ThreadPool Pool(Threads);
    EXPECT_THROW(Pool.parallelFor(0, 100,
                                  [&](uint64_t I) {
                                    if (I == 37)
                                      throw std::runtime_error("boom");
                                  },
                                  /*ChunkSize=*/4),
                 std::runtime_error)
        << Threads << " threads";
    // The pool is reusable after a failed region.
    std::atomic<unsigned> Ran{0};
    Pool.parallelFor(0, 50, [&](uint64_t) {
      Ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(Ran.load(), 50u);
  }
}

TEST(ThreadPool, MapReduceMatchesSerialFold) {
  SplitMix64 Rng(2026);
  for (unsigned Trial = 0; Trial != 12; ++Trial) {
    uint64_t N = 1 + Rng.nextBelow(700);
    std::vector<uint64_t> Values(N);
    for (uint64_t &V : Values)
      V = Rng.nextBelow(1000000);
    uint64_t Expected = std::accumulate(Values.begin(), Values.end(),
                                        uint64_t(0));
    for (unsigned Threads : {1u, 2u, 5u}) {
      ThreadPool Pool(Threads);
      uint64_t Got = Pool.parallelMapReduce<uint64_t>(
          0, N, 0, [&](uint64_t I) { return Values[I]; },
          [](uint64_t A, uint64_t B) { return A + B; },
          Rng.nextBelow(2) ? 0 : 1 + Rng.nextBelow(64));
      EXPECT_EQ(Got, Expected) << "trial " << Trial;
    }
  }
}

TEST(ThreadPool, FloatingPointReductionIsByteIdenticalAcrossThreadCounts) {
  // The determinism contract: with the chunk size held fixed (here the
  // default, a function of N only), even a non-associative double sum must
  // come out bit-for-bit equal at every thread count.
  SplitMix64 Rng(7);
  uint64_t N = 1000;
  std::vector<double> Values(N);
  for (double &V : Values)
    V = double(Rng.next() % 100000) / 7.0;
  auto SumWith = [&](unsigned Threads) {
    ThreadPool Pool(Threads);
    return Pool.parallelMapReduce<double>(
        0, N, 0.0, [&](uint64_t I) { return Values[I]; },
        [](double A, double B) { return A + B; });
  };
  double Serial = SumWith(1);
  for (unsigned Threads : {2u, 3u, 8u}) {
    double Parallel = SumWith(Threads);
    EXPECT_EQ(std::memcmp(&Serial, &Parallel, sizeof(double)), 0)
        << Threads << " threads";
  }
}

TEST(ThreadPool, DefaultChunkSizeDependsOnlyOnRangeLength) {
  EXPECT_EQ(ThreadPool::defaultChunkSize(1), 1u);
  EXPECT_EQ(ThreadPool::defaultChunkSize(63), 1u);
  EXPECT_EQ(ThreadPool::defaultChunkSize(640), 10u);
  EXPECT_EQ(ThreadPool::defaultChunkSize(1u << 30), 1024u);
}

TEST(ThreadPool, ScgThreadsEnvControlsGlobalPool) {
  setGlobalThreadCount(0);
  {
    ScopedEnvThreads Env("1"); // forced serial mode.
    EXPECT_EQ(effectiveThreadCount(), 1u);
    EXPECT_EQ(ThreadPool::global().numThreads(), 1u);
  }
  {
    ScopedEnvThreads Env("3");
    EXPECT_EQ(threadCountFromEnv(), 3u);
    EXPECT_EQ(ThreadPool::global().numThreads(), 3u);
  }
  {
    ScopedEnvThreads Env("not-a-number");
    EXPECT_EQ(threadCountFromEnv(), 0u);
  }
  // Explicit override beats the environment.
  {
    ScopedEnvThreads Env("3");
    setGlobalThreadCount(2);
    EXPECT_EQ(effectiveThreadCount(), 2u);
    EXPECT_EQ(ThreadPool::global().numThreads(), 2u);
    setGlobalThreadCount(0);
  }
}

TEST(ThreadPool, OneJobPerChunkResultsComeBackInSubmissionOrder) {
  // The coarse-job pattern (bench inventory rows): one job per chunk, each
  // writing its own slot, read back in submission order whatever order
  // the workers ran them in.
  ThreadPool Pool(4);
  std::vector<uint64_t> Results(100);
  Pool.parallelFor(
      0, Results.size(), [&](uint64_t I) { Results[I] = I * I; },
      /*ChunkSize=*/1);
  for (uint64_t I = 0; I != 100; ++I)
    EXPECT_EQ(Results[I], I * I);
  // A throwing job propagates its exception out of the region.
  EXPECT_THROW(Pool.parallelFor(
                   0, Results.size(),
                   [&](uint64_t I) {
                     if (I == 63)
                       throw std::runtime_error("job 63");
                   },
                   /*ChunkSize=*/1),
               std::runtime_error);
}
