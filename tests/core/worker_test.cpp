#include "core/worker.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "core/zc_backend.hpp"
#include "sgx/marshal.hpp"

namespace zc {
namespace {

using namespace std::chrono_literals;

struct IncArgs {
  int x = 0;
};

class ZcWorkerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimConfig sim;
    sim.tes_cycles = 2'000;
    enclave_ = Enclave::create(sim);
    inc_id_ = enclave_->ocalls().register_fn("inc", [](MarshalledCall& call) {
      static_cast<IncArgs*>(call.args)->x += 1;
    });
    cfg_.worker_pool_bytes = 4096;
    worker_ = std::make_unique<ZcWorker>(*enclave_, cfg_, stats_, 0);
  }

  // Drives one full switchless call through the worker by hand.
  CallPath drive_call(IncArgs& args) {
    if (!worker_->try_reserve()) return CallPath::kFallback;
    CallDesc desc;
    desc.fn_id = inc_id_;
    desc.args = &args;
    desc.args_size = sizeof(args);
    void* mem = worker_->alloc_frame(frame_bytes(desc));
    if (mem == nullptr) {
      worker_->cancel_reservation();
      return CallPath::kFallback;
    }
    MarshalledCall call = marshal_into(mem, desc);
    worker_->submit(mem);
    EXPECT_EQ(worker_->wait_done(), nullptr);
    unmarshal_from(call, desc);
    worker_->release();
    return CallPath::kSwitchless;
  }

  bool wait_state(WorkerState s, std::chrono::milliseconds timeout = 2000ms) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (worker_->state() != s) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }

  std::unique_ptr<Enclave> enclave_;
  std::uint32_t inc_id_ = 0;
  ZcConfig cfg_;
  BackendStats stats_;
  std::unique_ptr<ZcWorker> worker_;
};

TEST_F(ZcWorkerTest, StartsUnused) {
  EXPECT_EQ(worker_->state(), WorkerState::kUnused);
  EXPECT_EQ(worker_->current_command(), SchedCmd::kRun);
}

TEST_F(ZcWorkerTest, ReserveIsExclusive) {
  EXPECT_TRUE(worker_->try_reserve());
  EXPECT_EQ(worker_->state(), WorkerState::kReserved);
  EXPECT_FALSE(worker_->try_reserve());  // already reserved
  worker_->cancel_reservation();
  EXPECT_EQ(worker_->state(), WorkerState::kUnused);
  EXPECT_TRUE(worker_->try_reserve());
  worker_->cancel_reservation();
}

TEST_F(ZcWorkerTest, FullCallCycleExecutesRequest) {
  worker_->start();
  IncArgs args;
  EXPECT_EQ(drive_call(args), CallPath::kSwitchless);
  EXPECT_EQ(args.x, 1);
  EXPECT_EQ(worker_->calls_served(), 1u);
  EXPECT_EQ(worker_->state(), WorkerState::kUnused);
  // No enclave transition was charged.
  EXPECT_EQ(enclave_->transitions().eexit_count(), 0u);
}

TEST_F(ZcWorkerTest, ServesManySequentialCalls) {
  worker_->start();
  IncArgs args;
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(drive_call(args), CallPath::kSwitchless);
  }
  EXPECT_EQ(args.x, 500);
  EXPECT_EQ(worker_->calls_served(), 500u);
}

TEST_F(ZcWorkerTest, PoolExhaustionResetsViaOcall) {
  worker_->start();
  IncArgs args;
  // 4 KiB pool, each frame is ~sizeof(header)+16, aligned to 64 -> 64 bytes;
  // after ~64 calls the pool must reset at least once.
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(drive_call(args), CallPath::kSwitchless);
  }
  EXPECT_GE(stats_.pool_resets.load(), 1u);
  // Each reset is "an ocall": one eexit+eenter pair, with no dispatch.
  EXPECT_EQ(enclave_->transitions().eexit_count(), stats_.pool_resets.load());
}

TEST_F(ZcWorkerTest, OversizedFrameReturnsNull) {
  worker_->start();
  ASSERT_TRUE(worker_->try_reserve());
  EXPECT_EQ(worker_->alloc_frame(1 << 20), nullptr);  // bigger than the pool
  worker_->cancel_reservation();
}

TEST_F(ZcWorkerTest, PauseParksTheWorker) {
  worker_->start();
  worker_->command(SchedCmd::kPause);
  ASSERT_TRUE(wait_state(WorkerState::kPaused));
  EXPECT_GE(stats_.worker_sleeps.load(), 1u);
  // Paused workers are not reservable.
  EXPECT_FALSE(worker_->try_reserve());
}

TEST_F(ZcWorkerTest, ResumeAfterPauseServesAgain) {
  worker_->start();
  worker_->command(SchedCmd::kPause);
  ASSERT_TRUE(wait_state(WorkerState::kPaused));
  // kPaused is set before the worker takes its park mutex: resume only
  // once it is about to wait, so the resume must count a wakeup.
  const auto deadline = std::chrono::steady_clock::now() + 2000ms;
  while (worker_->parks() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  worker_->command(SchedCmd::kRun);
  ASSERT_TRUE(wait_state(WorkerState::kUnused));
  EXPECT_GE(stats_.worker_wakeups.load(), 1u);
  IncArgs args;
  EXPECT_EQ(drive_call(args), CallPath::kSwitchless);
  EXPECT_EQ(args.x, 1);
}

TEST_F(ZcWorkerTest, PauseDoesNotInterruptReservedWorker) {
  worker_->start();
  ASSERT_TRUE(worker_->try_reserve());
  worker_->command(SchedCmd::kPause);
  // Paper: the worker pauses only "if ... no caller thread has reserved
  // (or is using) the worker".
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(worker_->state(), WorkerState::kReserved);

  // The in-flight call still completes.
  CallDesc desc;
  IncArgs args;
  desc.fn_id = inc_id_;
  desc.args = &args;
  desc.args_size = sizeof(args);
  void* mem = worker_->alloc_frame(frame_bytes(desc));
  ASSERT_NE(mem, nullptr);
  MarshalledCall call = marshal_into(mem, desc);
  worker_->submit(mem);
  EXPECT_EQ(worker_->wait_done(), nullptr);
  unmarshal_from(call, desc);
  worker_->release();
  EXPECT_EQ(args.x, 1);
  // ...and only then does the worker park.
  ASSERT_TRUE(wait_state(WorkerState::kPaused));
}

TEST_F(ZcWorkerTest, StateWalksFig6AcrossOneCall) {
  // A handler held at a gate shows the worker mid-call.
  std::atomic<bool> entered{false};
  std::atomic<bool> open{false};
  const std::uint32_t gated_id =
      enclave_->ocalls().register_fn("gated", [&](MarshalledCall& call) {
        entered.store(true);
        while (!open.load()) std::this_thread::yield();
        static_cast<IncArgs*>(call.args)->x += 1;
      });
  worker_->start();

  ASSERT_TRUE(worker_->try_reserve());
  EXPECT_EQ(worker_->state(), WorkerState::kReserved);
  IncArgs args;
  CallDesc desc;
  desc.fn_id = gated_id;
  desc.args = &args;
  desc.args_size = sizeof(args);
  void* mem = worker_->alloc_frame(frame_bytes(desc));
  ASSERT_NE(mem, nullptr);
  MarshalledCall call = marshal_into(mem, desc);
  worker_->submit(mem);
  EXPECT_EQ(worker_->state(), WorkerState::kProcessing);
  const auto deadline = std::chrono::steady_clock::now() + 2000ms;
  while (!entered.load()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  EXPECT_EQ(worker_->state(), WorkerState::kProcessing);

  open.store(true);
  ASSERT_TRUE(wait_state(WorkerState::kWaiting));
  EXPECT_EQ(worker_->wait_done(), nullptr);
  unmarshal_from(call, desc);
  EXPECT_EQ(worker_->state(), WorkerState::kWaiting);
  worker_->release();
  EXPECT_EQ(worker_->state(), WorkerState::kUnused);
  EXPECT_EQ(args.x, 1);
}

TEST_F(ZcWorkerTest, CallSubmittedBeforeTheThreadRunsIsServed) {
  // The worker starts from the done sequence, so a bell rung before its
  // thread exists is still answered.
  ASSERT_TRUE(worker_->try_reserve());
  IncArgs args;
  CallDesc desc;
  desc.fn_id = inc_id_;
  desc.args = &args;
  desc.args_size = sizeof(args);
  void* mem = worker_->alloc_frame(frame_bytes(desc));
  ASSERT_NE(mem, nullptr);
  MarshalledCall call = marshal_into(mem, desc);
  worker_->submit(mem);
  worker_->start();
  EXPECT_EQ(worker_->wait_done(), nullptr);
  unmarshal_from(call, desc);
  worker_->release();
  EXPECT_EQ(args.x, 1);
  EXPECT_EQ(worker_->calls_served(), 1u);
}

TEST_F(ZcWorkerTest, ExitFromPausedTerminates) {
  worker_->start();
  worker_->command(SchedCmd::kPause);
  ASSERT_TRUE(wait_state(WorkerState::kPaused));
  worker_->shutdown();
  EXPECT_EQ(worker_->state(), WorkerState::kExit);
}

TEST_F(ZcWorkerTest, ShutdownIsIdempotent) {
  worker_->start();
  worker_->shutdown();
  worker_->shutdown();
  EXPECT_EQ(worker_->state(), WorkerState::kExit);
}

TEST_F(ZcWorkerTest, StateNamesAreStable) {
  EXPECT_STREQ(to_string(WorkerState::kUnused), "UNUSED");
  EXPECT_STREQ(to_string(WorkerState::kReserved), "RESERVED");
  EXPECT_STREQ(to_string(WorkerState::kProcessing), "PROCESSING");
  EXPECT_STREQ(to_string(WorkerState::kWaiting), "WAITING");
  EXPECT_STREQ(to_string(WorkerState::kPaused), "PAUSED");
  EXPECT_STREQ(to_string(WorkerState::kExit), "EXIT");
}

TEST_F(ZcWorkerTest, ConcurrentReserveHasOneWinner) {
  worker_->start();
  std::atomic<int> winners{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&] {
        if (worker_->try_reserve()) winners.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(winners.load(), 1);
  worker_->cancel_reservation();
}

// Backend-level hand-off tests: the caller's scan over several workers.
class ZcWorkerScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimConfig sim;
    sim.tes_cycles = 2'000;
    sim.logical_cpus = 4;  // max_workers = 2
    enclave_ = Enclave::create(sim);
    inc_id_ = enclave_->ocalls().register_fn("inc", [](MarshalledCall& call) {
      static_cast<IncArgs*>(call.args)->x += 1;
    });
  }

  ZcBackend* install(unsigned workers) {
    ZcConfig cfg;
    cfg.scheduler_enabled = false;
    cfg.with_initial_workers(workers);
    auto backend = std::make_unique<ZcBackend>(*enclave_, cfg);
    auto* raw = backend.get();
    enclave_->set_backend(std::move(backend));
    return raw;
  }

  std::unique_ptr<Enclave> enclave_;
  std::uint32_t inc_id_ = 0;
};

struct MulArgs {
  std::uint64_t in = 0;
  std::uint64_t out = 0;
};

TEST_F(ZcWorkerScanTest, CallersAndWorkerChurnAccountForEveryCall) {
  const std::uint32_t mul_id =
      enclave_->ocalls().register_fn("mul", [](MarshalledCall& call) {
        auto* args = static_cast<MulArgs*>(call.args);
        args->out = args->in * 3 + 1;
      });
  auto* backend = install(2);
  constexpr unsigned kCallers = 4;
  constexpr std::uint64_t kCalls = 4'000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> wrong{0};
  {
    std::jthread churn([&] {
      unsigned m = 0;
      while (!stop.load()) {
        backend->set_active_workers(m);
        m = (m + 1) % 3;
        std::this_thread::sleep_for(100us);
      }
    });
    {
      std::vector<std::jthread> callers;
      for (unsigned c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
          for (std::uint64_t i = 0; i < kCalls; ++i) {
            MulArgs args;
            args.in = c * kCalls + i;
            enclave_->ocall(mul_id, args);
            if (args.out != args.in * 3 + 1) wrong.fetch_add(1);
          }
        });
      }
    }
    stop.store(true);
  }
  EXPECT_EQ(wrong.load(), 0u);
  const BackendStats& stats = backend->stats();
  EXPECT_EQ(stats.switchless_calls.load() + stats.fallback_calls.load(),
            kCallers * kCalls);
  const auto served = backend->per_worker_served();
  EXPECT_EQ(std::accumulate(served.begin(), served.end(), std::uint64_t{0}),
            stats.switchless_calls.load());
  EXPECT_EQ(stats.in_flight.load(), 0);
}

TEST_F(ZcWorkerScanTest, HintPastTheActiveCountRestartsAtWorkerZero) {
  std::atomic<bool> entered{false};
  std::atomic<bool> open{false};
  const std::uint32_t gated_id =
      enclave_->ocalls().register_fn("gated", [&](MarshalledCall&) {
        entered.store(true);
        while (!open.load()) std::this_thread::yield();
      });
  auto* backend = install(2);

  // Another thread holds worker 0, so this thread's call lands on worker
  // 1 and its hint points there.
  std::jthread holder([&] {
    IncArgs args;
    EXPECT_EQ(enclave_->ocall(gated_id, args), CallPath::kSwitchless);
  });
  const auto deadline = std::chrono::steady_clock::now() + 2000ms;
  while (!entered.load()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  IncArgs args;
  ASSERT_EQ(enclave_->ocall(inc_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(backend->per_worker_served()[1], 1u);
  open.store(true);
  holder.join();

  // Shrink past the hint: the next call still goes switchless, on 0.
  backend->set_active_workers(1);
  EXPECT_EQ(enclave_->ocall(inc_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(backend->per_worker_served()[0], 2u);
  EXPECT_EQ(backend->per_worker_served()[1], 1u);
  EXPECT_EQ(args.x, 2);
}

}  // namespace
}  // namespace zc
