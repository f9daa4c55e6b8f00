#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/pin.hpp"

namespace zc {
namespace {

TEST(PaddedCounter, StartsAtZeroAndAdds) {
  PaddedCounter c;
  EXPECT_EQ(c.load(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.load(), 42u);
}

TEST(PaddedCounter, IsCacheLinePadded) {
  EXPECT_EQ(alignof(PaddedCounter) % 64, 0u);
  EXPECT_GE(sizeof(PaddedCounter), 64u);
}

TEST(PaddedCounter, ConcurrentAddsAreLossless) {
  PaddedCounter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&c] {
        for (int i = 0; i < kPerThread; ++i) c.add();
      });
    }
  }
  EXPECT_EQ(c.load(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ShardedCounter, StartsAtZeroAndAdds) {
  ShardedCounter c;
  EXPECT_EQ(c.load(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.load(), 42u);
}

TEST(ShardedCounter, HasASlotPerCpu) {
  const unsigned slots = ShardedCounter::slot_count();
  EXPECT_TRUE(std::has_single_bit(slots)) << slots;
  EXPECT_GE(slots, host_logical_cpus());
}

// Threads outnumber CPUs, so several share a CPU's slot in turn and
// migrate between slots mid-run: the sum must still be exact.
TEST(ShardedCounter, MoreThreadsThanCpusSumExactly) {
  ShardedCounter c;
  const unsigned threads = std::min(4 * host_logical_cpus() + 1, 33u);
  constexpr std::uint64_t kAdds = 20'000;
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&c, t] {
        for (std::uint64_t i = 0; i < kAdds; ++i) c.add(t + 1);
      });
    }
  }
  const std::uint64_t n = threads;
  EXPECT_EQ(c.load(), kAdds * n * (n + 1) / 2);
}

TEST(ShardedCounter, LoadIsLiveWhileThreadsAdd) {
  ShardedCounter c;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> added{0};
  std::jthread adder([&] {
    std::uint64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      c.add();
      ++n;
    }
    added.store(n, std::memory_order_release);
  });
  // Each read sees the adds made so far: the level climbs past successive
  // marks while the adder is still running.
  std::uint64_t last = 0;
  for (const std::uint64_t mark : {1'000u, 10'000u, 100'000u}) {
    while (c.load() < mark) std::this_thread::yield();
    const std::uint64_t now = c.load();
    EXPECT_GE(now, last);
    last = now;
  }
  stop.store(true, std::memory_order_relaxed);
  adder.join();
  EXPECT_EQ(c.load(), added.load(std::memory_order_acquire));
}

// A gauge: raised on one thread (and CPU), lowered on another.  Its slots
// hold +n and -n modulo 2^64 and the level sums back to 0.
TEST(ShardedGauge, RaisedAndLoweredOnDifferentThreadsReturnsToZero) {
  ShardedGauge level;
  const unsigned cpus = host_logical_cpus();
  constexpr std::uint64_t kCalls = 50'000;
  std::atomic<std::uint64_t> raised{0};
  std::jthread raiser([&] {
    pin_current_thread(0);
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      level.add();
      raised.store(i + 1, std::memory_order_release);
    }
  });
  std::jthread lowerer([&] {
    pin_current_thread(cpus > 1 ? 1 : 0);
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      while (raised.load(std::memory_order_acquire) <= i) {
        std::this_thread::yield();
      }
      level.sub();
    }
  });
  raiser.join();
  lowerer.join();
  EXPECT_EQ(level.load(), 0u);
}

// A load() racing a caller that changed CPU can see its sub() without its
// add(): such a sum lies below zero and reads 0, never ~2^64.  The slots
// keep the deficit, so the level is exact again once the add() lands.
TEST(ShardedGauge, SumBelowZeroReadsZero) {
  ShardedGauge level;
  level.sub(3);
  EXPECT_EQ(level.load(), 0u);
  level.add(3);
  EXPECT_EQ(level.load(), 0u);
  level.add(2);
  EXPECT_EQ(level.load(), 2u);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, KnownMoments) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, SingleSampleHasZeroVariance) {
  RunningStat s;
  s.add(3.25);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean(), 3.25);
}

TEST(RunningStat, ResetClears) {
  RunningStat s;
  s.add(1.0);
  s.add(2.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(RunningStat, HandlesNegativeValues) {
  RunningStat s;
  s.add(-10.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -10.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(SampleSeries, PercentileOfEmptyThrows) {
  SampleSeries s;
  EXPECT_THROW(s.percentile(50), std::logic_error);
}

TEST(SampleSeries, PercentileOutOfRangeThrows) {
  SampleSeries s;
  s.add(1.0);
  EXPECT_THROW(s.percentile(-1), std::invalid_argument);
  EXPECT_THROW(s.percentile(101), std::invalid_argument);
}

TEST(SampleSeries, NearestRankPercentiles) {
  SampleSeries s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.median(), 50.0);
}

TEST(SampleSeries, MeanAndSum) {
  SampleSeries s;
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(SampleSeries, MeanOfEmptyIsZero) {
  SampleSeries s;
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(SampleSeries, ClearEmpties) {
  SampleSeries s;
  s.add(1.0);
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(SampleSeries, PercentileDoesNotMutateOrder) {
  SampleSeries s;
  s.add(3.0);
  s.add(1.0);
  s.add(2.0);
  (void)s.median();
  EXPECT_EQ(s.raw()[0], 3.0);
  EXPECT_EQ(s.raw()[1], 1.0);
  EXPECT_EQ(s.raw()[2], 2.0);
}

}  // namespace
}  // namespace zc
