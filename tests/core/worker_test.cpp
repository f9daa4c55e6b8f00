#include "core/worker.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

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
    worker_->wait_done();
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
  worker_->wait_done();
  unmarshal_from(call, desc);
  worker_->release();
  EXPECT_EQ(args.x, 1);
  // ...and only then does the worker park.
  ASSERT_TRUE(wait_state(WorkerState::kPaused));
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

}  // namespace
}  // namespace zc
