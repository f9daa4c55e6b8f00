// CompletionGate: the shared caller-wait primitive — spin/yield/futex/
// condvar policies, spurious-wake robustness, stop-while-blocked, and the
// counter wiring the backends rely on for caller_yields/sleeps/wakeups.
#include "common/completion_gate.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "sgx/backend.hpp"

namespace zc {
namespace {

using namespace std::chrono_literals;

constexpr std::chrono::microseconds kNoSpin{0};

struct CountedGate {
  std::atomic<std::uint32_t> word{0};
  CompletionGate gate;
  BackendStats stats;

  GateCounters counters() {
    return GateCounters{&stats.caller_yields, &stats.caller_sleeps,
                        &stats.caller_wakeups};
  }
};

TEST(CompletionGateTest, PolicyStringsRoundTrip) {
  for (const GateWaitPolicy policy :
       {GateWaitPolicy::kSpin, GateWaitPolicy::kYield, GateWaitPolicy::kFutex,
        GateWaitPolicy::kCondvar}) {
    GateWaitPolicy parsed;
    ASSERT_TRUE(gate_policy_from_string(to_string(policy), parsed))
        << to_string(policy);
    EXPECT_EQ(parsed, policy);
  }
  GateWaitPolicy out;
  EXPECT_FALSE(gate_policy_from_string("banana", out));
  EXPECT_FALSE(gate_policy_from_string("", out));
  EXPECT_TRUE(gate_can_sleep(GateWaitPolicy::kFutex));
  EXPECT_TRUE(gate_can_sleep(GateWaitPolicy::kCondvar));
  EXPECT_FALSE(gate_can_sleep(GateWaitPolicy::kSpin));
  EXPECT_FALSE(gate_can_sleep(GateWaitPolicy::kYield));
}

TEST(CompletionGateTest, SatisfiedPredicateReturnsWithoutBlocking) {
  CountedGate g;
  g.word.store(7);
  for (const GateWaitPolicy policy :
       {GateWaitPolicy::kSpin, GateWaitPolicy::kYield, GateWaitPolicy::kFutex,
        GateWaitPolicy::kCondvar}) {
    g.gate.await(
        g.word, [](std::uint32_t v) { return v == 7; }, policy, kNoSpin,
        g.counters());
  }
  EXPECT_EQ(g.stats.caller_yields.load(), 0u);
  EXPECT_EQ(g.stats.caller_sleeps.load(), 0u);
  EXPECT_EQ(g.stats.caller_wakeups.load(), 0u);
}

TEST(CompletionGateTest, SpinPhaseCatchesAFastCompletion) {
  // A completion inside the spin budget never yields or sleeps, whatever
  // the policy — the paper's pure completion spin is the common fast path.
  for (const GateWaitPolicy policy :
       {GateWaitPolicy::kYield, GateWaitPolicy::kFutex,
        GateWaitPolicy::kCondvar}) {
    CountedGate g;
    std::jthread setter([&] { g.word.store(1, std::memory_order_seq_cst); });
    g.gate.await(
        g.word, [](std::uint32_t v) { return v == 1; }, policy,
        std::chrono::microseconds{200'000}, g.counters());
    setter.join();
    EXPECT_EQ(g.stats.caller_sleeps.load(), 0u) << to_string(policy);
  }
}

TEST(CompletionGateTest, YieldPolicyCountsYields) {
  CountedGate g;
  std::jthread waiter([&] {
    g.gate.await(
        g.word, [](std::uint32_t v) { return v == 1; },
        GateWaitPolicy::kYield, kNoSpin, g.counters());
  });
  // Publish only once the waiter has polled and yielded at least once, so
  // a late-starting waiter cannot find the word already set.
  while (g.stats.caller_yields.load() == 0) std::this_thread::yield();
  g.word.store(1, std::memory_order_seq_cst);
  // Yielding waiters poll; no notify required.
  waiter.join();
  EXPECT_GT(g.stats.caller_yields.load(), 0u);
  EXPECT_EQ(g.stats.caller_sleeps.load(), 0u);
}

class CompletionGateSleepTest
    : public ::testing::TestWithParam<GateWaitPolicy> {};

TEST_P(CompletionGateSleepTest, BlockedWaiterSleepsAndWakes) {
  CountedGate g;
  std::atomic<bool> done{false};
  std::jthread waiter([&] {
    g.gate.await(
        g.word, [](std::uint32_t v) { return v == 1; }, GetParam(), kNoSpin,
        g.counters());
    done.store(true, std::memory_order_seq_cst);
  });
  // Wait until the waiter has committed to sleeping.
  while (g.stats.caller_sleeps.load() == 0) std::this_thread::yield();
  EXPECT_FALSE(done.load());
  g.word.store(1, std::memory_order_seq_cst);
  g.gate.notify(g.word);
  waiter.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(g.stats.caller_sleeps.load(), 1u);
  EXPECT_EQ(g.stats.caller_wakeups.load(), 1u);
}

TEST_P(CompletionGateSleepTest, SpuriousNotifyDoesNotRelease) {
  // A notify without the word change re-evaluates the predicate and goes
  // back to sleep — the same robustness the kernel demands for spurious
  // futex returns.
  CountedGate g;
  std::atomic<bool> done{false};
  std::jthread waiter([&] {
    g.gate.await(
        g.word, [](std::uint32_t v) { return v == 2; }, GetParam(), kNoSpin,
        g.counters());
    done.store(true, std::memory_order_seq_cst);
  });
  while (g.stats.caller_sleeps.load() == 0) std::this_thread::yield();
  g.gate.notify(g.word);                   // word still 0: spurious
  g.word.store(1, std::memory_order_seq_cst);  // wrong value: still blocked
  g.gate.notify(g.word);
  std::this_thread::sleep_for(5ms);
  EXPECT_FALSE(done.load());
  g.word.store(2, std::memory_order_seq_cst);
  g.gate.notify(g.word);
  waiter.join();
  EXPECT_TRUE(done.load());
}

TEST_P(CompletionGateSleepTest, StopFlagReleasesABlockedWaiter) {
  // The stop-while-blocked shape every backend needs: the predicate also
  // watches a stop flag, and the stopping thread flips it + notifies.
  CountedGate g;
  std::atomic<bool> stop{false};
  std::atomic<bool> done{false};
  std::jthread waiter([&] {
    g.gate.await(
        g.word,
        [&](std::uint32_t v) {
          return v == 1 || stop.load(std::memory_order_seq_cst);
        },
        GetParam(), kNoSpin, g.counters());
    done.store(true, std::memory_order_seq_cst);
  });
  while (g.stats.caller_sleeps.load() == 0) std::this_thread::yield();
  stop.store(true, std::memory_order_seq_cst);
  g.gate.notify(g.word);
  waiter.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(g.word.load(), 0u);  // released by the flag, not the word
}

TEST_P(CompletionGateSleepTest, ManySleepersAllWake) {
  CountedGate g;
  std::atomic<unsigned> done{0};
  {
    std::vector<std::jthread> waiters;
    for (int t = 0; t < 4; ++t) {
      waiters.emplace_back([&] {
        g.gate.await(
            g.word, [](std::uint32_t v) { return v == 1; }, GetParam(),
            kNoSpin, g.counters());
        done.fetch_add(1);
      });
    }
    while (g.stats.caller_sleeps.load() < 4) std::this_thread::yield();
    g.word.store(1, std::memory_order_seq_cst);
    g.gate.notify(g.word);
  }
  EXPECT_EQ(done.load(), 4u);
  EXPECT_EQ(g.stats.caller_wakeups.load(), 4u);
}

INSTANTIATE_TEST_SUITE_P(FutexAndCondvar, CompletionGateSleepTest,
                         ::testing::Values(GateWaitPolicy::kFutex,
                                           GateWaitPolicy::kCondvar),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

#if defined(__linux__)
TEST(CompletionGateTest, FutexIsAvailableOnLinux) {
  EXPECT_TRUE(CompletionGate::futex_available());
}
#endif

TEST(CompletionGateTest, SpinCheckScheduleRampsThenStrides) {
  // The clock-read ramp: 1, 2, 4, ..., 64, then a flat 64-poll stride.
  // Before the ramp existed the first check happened at poll 64, so a
  // 1-2 µs budget overshot by a whole pause block on a loaded host.
  EXPECT_EQ(gate_spin_next_check(1), 2u);
  EXPECT_EQ(gate_spin_next_check(2), 4u);
  EXPECT_EQ(gate_spin_next_check(4), 8u);
  EXPECT_EQ(gate_spin_next_check(32), 64u);
  EXPECT_EQ(gate_spin_next_check(63), 126u);
  EXPECT_EQ(gate_spin_next_check(64), 128u);
  EXPECT_EQ(gate_spin_next_check(128), 192u);
  EXPECT_EQ(gate_spin_next_check(640), 704u);
  // Walking the schedule from the first check: monotonic, and the early
  // checks land within the first handful of polls.
  std::uint32_t at = 1;
  unsigned checks_before_poll_16 = 0;
  for (int i = 0; i < 1000 && at < 100'000; ++i) {
    if (at < 16) ++checks_before_poll_16;
    const std::uint32_t next = gate_spin_next_check(at);
    ASSERT_GT(next, at);
    at = next;
  }
  EXPECT_GE(checks_before_poll_16, 4u);  // checks at 1, 2, 4, 8 at least
}

TEST(CompletionGateTest, TinySpinBudgetStillReachesTheSleepPhase) {
  // A 1 µs budget must expire after a few polls — not spin a whole 64-pause
  // block first — so wait=futex with a tiny spin_us actually sleeps when
  // the completion is slow.
  CountedGate g;
  std::atomic<bool> done{false};
  std::jthread waiter([&] {
    g.gate.await(
        g.word, [](std::uint32_t v) { return v == 1; }, GateWaitPolicy::kFutex,
        std::chrono::microseconds{1}, g.counters());
    done.store(true, std::memory_order_seq_cst);
  });
  while (g.stats.caller_sleeps.load() == 0) std::this_thread::yield();
  EXPECT_FALSE(done.load());
  g.word.store(1, std::memory_order_seq_cst);
  g.gate.notify(g.word);
  waiter.join();
  EXPECT_EQ(g.stats.caller_sleeps.load(), 1u);
}

// --- Coalesced wakes (await_coalesced / notify_batch) ---------------------

class CompletionGateCoalesceTest
    : public ::testing::TestWithParam<GateWaitPolicy> {};

TEST_P(CompletionGateCoalesceTest, OneBatchNotifyReleasesEverySleeper) {
  // The batched-flush shape: N callers each wait on a *private* state word
  // through one shared gate; the worker completes all N words and issues a
  // single notify_batch().  Every sleeper must wake exactly once.
  constexpr unsigned kWaiters = 6;
  CompletionGate gate;
  BackendStats stats;
  GateCounters counters{&stats.caller_yields, &stats.caller_sleeps,
                        &stats.caller_wakeups};
  std::array<std::atomic<std::uint32_t>, kWaiters> words{};
  std::atomic<unsigned> done{0};
  {
    std::vector<std::jthread> waiters;
    for (unsigned t = 0; t < kWaiters; ++t) {
      waiters.emplace_back([&, t] {
        gate.await_coalesced(
            words[t], [](std::uint32_t v) { return v == 1; }, GetParam(),
            kNoSpin, counters);
        done.fetch_add(1);
      });
    }
    while (stats.caller_sleeps.load() < kWaiters) std::this_thread::yield();
    EXPECT_EQ(done.load(), 0u);
    for (auto& w : words) w.store(1, std::memory_order_seq_cst);
    gate.notify_batch();  // ONE wake for the whole batch
  }
  EXPECT_EQ(done.load(), kWaiters);
  // Exactly once each: every blocked wait slept once and returned once.
  EXPECT_EQ(stats.caller_sleeps.load(), kWaiters);
  EXPECT_EQ(stats.caller_wakeups.load(), kWaiters);
}

TEST_P(CompletionGateCoalesceTest, UnsatisfiedSleeperReparksOnNewEpoch) {
  // Partial batch: a notify_batch that completes only caller A must not
  // release caller B — B re-checks its predicate and parks on the bumped
  // epoch until a later batch completes it.
  CompletionGate gate;
  BackendStats stats;
  GateCounters counters{&stats.caller_yields, &stats.caller_sleeps,
                        &stats.caller_wakeups};
  std::atomic<std::uint32_t> word_a{0};
  std::atomic<std::uint32_t> word_b{0};
  std::atomic<bool> done_a{false};
  std::atomic<bool> done_b{false};
  std::jthread ta([&] {
    gate.await_coalesced(
        word_a, [](std::uint32_t v) { return v == 1; }, GetParam(), kNoSpin,
        counters);
    done_a.store(true, std::memory_order_seq_cst);
  });
  std::jthread tb([&] {
    gate.await_coalesced(
        word_b, [](std::uint32_t v) { return v == 1; }, GetParam(), kNoSpin,
        counters);
    done_b.store(true, std::memory_order_seq_cst);
  });
  while (stats.caller_sleeps.load() < 2) std::this_thread::yield();
  word_a.store(1, std::memory_order_seq_cst);
  gate.notify_batch();
  ta.join();
  EXPECT_TRUE(done_a.load());
  std::this_thread::sleep_for(5ms);
  EXPECT_FALSE(done_b.load());  // woke spuriously, re-parked
  word_b.store(1, std::memory_order_seq_cst);
  gate.notify_batch();
  tb.join();
  EXPECT_TRUE(done_b.load());
}

TEST_P(CompletionGateCoalesceTest, BatchCompletedBeforeSleepNeverBlocks) {
  // The publish/park race: the word is already complete when the waiter
  // arrives — await_coalesced must return without sleeping (the epoch
  // observed-before-predicate ordering makes the sleep a kernel-side
  // no-op even if notify_batch has already run).
  CompletionGate gate;
  BackendStats stats;
  GateCounters counters{&stats.caller_yields, &stats.caller_sleeps,
                        &stats.caller_wakeups};
  std::atomic<std::uint32_t> word{1};
  gate.notify_batch();
  gate.await_coalesced(
      word, [](std::uint32_t v) { return v == 1; }, GetParam(), kNoSpin,
      counters);
  EXPECT_EQ(stats.caller_sleeps.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(FutexAndCondvar, CompletionGateCoalesceTest,
                         ::testing::Values(GateWaitPolicy::kFutex,
                                           GateWaitPolicy::kCondvar),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(CompletionGateTest, EnumWordsWork) {
  // The backends wait on 32-bit enum-class state words; the gate must take
  // them directly (the futex sleeps on the word's own address).
  enum class State : std::uint32_t { kIdle = 0, kDone = 1 };
  std::atomic<State> word{State::kIdle};
  CompletionGate gate;
  std::jthread setter([&] {
    std::this_thread::sleep_for(1ms);
    word.store(State::kDone, std::memory_order_seq_cst);
    gate.notify(word);
  });
  gate.await(
      word, [](State s) { return s == State::kDone; }, GateWaitPolicy::kFutex,
      kNoSpin, GateCounters{});
  EXPECT_EQ(word.load(), State::kDone);
}

}  // namespace
}  // namespace zc
