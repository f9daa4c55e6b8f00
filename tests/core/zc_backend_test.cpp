#include "core/zc_backend.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/cycles.hpp"

namespace zc {
namespace {

using namespace std::chrono_literals;

struct IncArgs {
  int x = 0;
};

struct SpinArgs {
  std::uint64_t cycles = 0;
};

class ZcBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimConfig sim;
    sim.tes_cycles = 5'000;
    sim.logical_cpus = 8;
    enclave_ = Enclave::create(sim);
    inc_id_ = enclave_->ocalls().register_fn("inc", [](MarshalledCall& call) {
      static_cast<IncArgs*>(call.args)->x += 1;
    });
    spin_id_ =
        enclave_->ocalls().register_fn("spin", [](MarshalledCall& call) {
          burn_cycles(static_cast<SpinArgs*>(call.args)->cycles);
        });
  }

  ZcBackend* install(ZcConfig cfg) {
    auto backend = std::make_unique<ZcBackend>(*enclave_, cfg);
    auto* raw = backend.get();
    enclave_->set_backend(std::move(backend));
    return raw;
  }

  ZcConfig manual(unsigned workers) {
    ZcConfig cfg;
    cfg.scheduler_enabled = false;
    cfg.with_initial_workers(workers);
    return cfg;
  }

  std::unique_ptr<Enclave> enclave_;
  std::uint32_t inc_id_ = 0;
  std::uint32_t spin_id_ = 0;
};

TEST_F(ZcBackendTest, AnyOcallIsSwitchlessWhenWorkerIdle) {
  auto* backend = install(manual(2));
  IncArgs args;
  // No static selection: the id was never "configured" anywhere.
  EXPECT_EQ(enclave_->ocall(inc_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(args.x, 1);
  EXPECT_EQ(backend->stats().switchless_calls.load(), 1u);
  EXPECT_EQ(enclave_->transitions().eexit_count(), 0u);
}

TEST_F(ZcBackendTest, ZeroActiveWorkersFallsBackImmediately) {
  auto* backend = install(manual(0));
  IncArgs args;
  // Warm up thread-local state (scratch arena, lazy calibrations) so the
  // measurement isolates the fallback path itself.
  enclave_->ocall(inc_id_, args);
  const std::uint64_t t0 = rdtsc();
  EXPECT_EQ(enclave_->ocall(inc_id_, args), CallPath::kFallback);
  const std::uint64_t elapsed = rdtsc() - t0;
  EXPECT_EQ(args.x, 2);
  EXPECT_EQ(backend->stats().fallback_calls.load(), 2u);
  // "Immediately falls back ... without any busy waiting": the only cost is
  // the transition itself (plus marshalling). Budget 10x Tes.
  EXPECT_LT(elapsed, 50'000u);
}

TEST_F(ZcBackendTest, BusyWorkersCauseImmediateFallback) {
  auto* backend = install(manual(1));
  std::atomic<bool> started{false};
  std::jthread occupier([&] {
    SpinArgs args;
    args.cycles = 200'000'000;  // ~50 ms
    started.store(true);
    enclave_->ocall(spin_id_, args);
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);

  IncArgs args;
  EXPECT_EQ(enclave_->ocall(inc_id_, args), CallPath::kFallback);
  EXPECT_EQ(args.x, 1);
  EXPECT_GE(backend->stats().fallback_calls.load(), 1u);
}

TEST_F(ZcBackendTest, ManyCallsAllExecuteExactlyOnce) {
  auto* backend = install(manual(4));
  std::atomic<int> executed{0};
  const auto count_id = enclave_->ocalls().register_fn(
      "count", [&executed](MarshalledCall&) { executed.fetch_add(1); });

  constexpr int kThreads = 8;
  constexpr int kPerThread = 1'000;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        IncArgs args;
        for (int i = 0; i < kPerThread; ++i) enclave_->ocall(count_id, args);
      });
    }
  }
  EXPECT_EQ(executed.load(), kThreads * kPerThread);
  EXPECT_EQ(backend->stats().total_calls(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // With 8 hammering threads and 4 workers, both paths must have been used.
  EXPECT_GT(backend->stats().switchless_calls.load(), 0u);
}

TEST_F(ZcBackendTest, PayloadRoundTripThroughWorker) {
  install(manual(1));
  const auto rev_id = enclave_->ocalls().register_fn(
      "reverse", [](MarshalledCall& call) {
        auto* p = static_cast<char*>(call.payload);
        std::reverse(p, p + call.payload_size);
      });
  IncArgs args;
  std::string in = "abcdef";
  std::string out(in.size(), '\0');
  CallDesc desc;
  desc.fn_id = rev_id;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.in_payload = in.data();
  desc.in_size = in.size();
  desc.out_payload = out.data();
  desc.out_size = out.size();
  EXPECT_EQ(enclave_->ocall(desc), CallPath::kSwitchless);
  EXPECT_EQ(out, "fedcba");
}

TEST_F(ZcBackendTest, OversizedRequestFallsBack) {
  ZcConfig cfg = manual(1);
  cfg.worker_pool_bytes = 1024;
  auto* backend = install(cfg);
  IncArgs args;
  std::vector<char> big(8192, 'x');
  EXPECT_EQ(enclave_->ocall_in(inc_id_, args, big.data(), big.size()),
            CallPath::kFallback);
  EXPECT_EQ(args.x, 1);
  EXPECT_GE(backend->stats().fallback_calls.load(), 1u);
}

TEST_F(ZcBackendTest, PoolResetsShowUpInStats) {
  ZcConfig cfg = manual(1);
  cfg.worker_pool_bytes = 2048;
  auto* backend = install(cfg);
  IncArgs args;
  for (int i = 0; i < 500; ++i) enclave_->ocall(inc_id_, args);
  EXPECT_GE(backend->stats().pool_resets.load(), 1u);
  EXPECT_EQ(args.x, 500);
}

TEST_F(ZcBackendTest, WorkScanPrefersLowWorkerIds) {
  auto* backend = install(manual(4));
  IncArgs args;
  for (int i = 0; i < 100; ++i) enclave_->ocall(inc_id_, args);
  const auto served = backend->per_worker_served();
  ASSERT_EQ(served.size(), 4u);
  // A single sequential caller always finds worker 0 idle.
  EXPECT_EQ(served[0], 100u);
  EXPECT_EQ(std::accumulate(served.begin(), served.end(), std::uint64_t{0}),
            100u);
}

TEST_F(ZcBackendTest, StoppedBackendRoutesRegular) {
  auto* backend = install(manual(2));
  backend->stop();
  IncArgs args;
  EXPECT_EQ(enclave_->ocall(inc_id_, args), CallPath::kRegular);
  EXPECT_EQ(args.x, 1);
  EXPECT_EQ(backend->stats().regular_calls.load(), 1u);
}

TEST_F(ZcBackendTest, StopIsIdempotent) {
  auto* backend = install(manual(2));
  backend->stop();
  backend->stop();
  EXPECT_EQ(backend->active_workers(), 0u);
}

TEST_F(ZcBackendTest, NameIsZc) {
  auto* backend = install(manual(1));
  EXPECT_STREQ(backend->name(), "zc");
}

TEST_F(ZcBackendTest, FallbackStillPaysTransition) {
  install(manual(0));
  IncArgs args;
  enclave_->ocall(inc_id_, args);
  EXPECT_EQ(enclave_->transitions().eexit_count(), 1u);
  EXPECT_EQ(enclave_->transitions().eenter_count(), 1u);
}

TEST_F(ZcBackendTest, SwitchlessPathNeverTransitions) {
  install(manual(2));
  IncArgs args;
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(enclave_->ocall(inc_id_, args), CallPath::kSwitchless);
  }
  EXPECT_EQ(enclave_->transitions().eexit_count(), 0u);
  EXPECT_EQ(enclave_->transitions().eenter_count(), 0u);
}

TEST_F(ZcBackendTest, HandlerExceptionReachesTheCallerBothWays) {
  // x < 0 makes the handler throw; otherwise it increments.
  const std::uint32_t id =
      enclave_->ocalls().register_fn("checked", [](MarshalledCall& call) {
        auto* args = static_cast<IncArgs*>(call.args);
        if (args->x < 0) throw std::runtime_error("handler failed");
        args->x += 1;
      });
  for (const unsigned workers : {1u, 0u}) {
    SCOPED_TRACE(workers);
    auto* backend = install(manual(workers));
    IncArgs bad;
    bad.x = -5;
    EXPECT_THROW(enclave_->ocall(id, bad), std::runtime_error);
    EXPECT_EQ(bad.x, -5);  // the throwing call is not unmarshalled
    const BackendStats& stats = backend->stats();
    EXPECT_EQ(stats.switchless_calls.load(), 0u);
    EXPECT_EQ(stats.fallback_calls.load(), 0u);
    EXPECT_EQ(stats.in_flight.load(), 0);

    // The next call on the same worker succeeds.
    IncArgs good;
    EXPECT_EQ(enclave_->ocall(id, good),
              workers != 0 ? CallPath::kSwitchless : CallPath::kFallback);
    EXPECT_EQ(good.x, 1);
    if (workers != 0) {
      EXPECT_EQ(backend->per_worker_served()[0], 2u);
    }
  }
}

TEST_F(ZcBackendTest, ThrowingHandlerFreesItsSlabFrame) {
  const std::uint32_t id =
      enclave_->ocalls().register_fn("throws", [](MarshalledCall&) {
        throw std::runtime_error("handler failed");
      });
  ZcConfig cfg = manual(1);
  cfg.pool = FramePoolKind::kSlab;
  auto* backend = install(cfg);
  IncArgs args;
  for (int i = 0; i < 100; ++i) {
    EXPECT_THROW(enclave_->ocall(id, args), std::runtime_error);
  }
  // Every frame went back to the slab: one growth served all 100 calls.
  EXPECT_EQ(backend->slab()->miss_count(), 1u);
  EXPECT_EQ(backend->per_worker_served()[0], 100u);
}

TEST_F(ZcBackendTest, MakeFactoryProducesWorkingBackend) {
  enclave_->set_backend(make_zc_backend(*enclave_, manual(1)));
  IncArgs args;
  EXPECT_EQ(enclave_->ocall(inc_id_, args), CallPath::kSwitchless);
}

}  // namespace
}  // namespace zc
