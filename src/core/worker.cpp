#include "core/worker.hpp"

#include <utility>

#include "common/cycles.hpp"
#include "common/pin.hpp"
#include "sgx/marshal.hpp"

namespace zc {

const char* to_string(WorkerState s) noexcept {
  switch (s) {
    case WorkerState::kUnused:
      return "UNUSED";
    case WorkerState::kReserved:
      return "RESERVED";
    case WorkerState::kProcessing:
      return "PROCESSING";
    case WorkerState::kWaiting:
      return "WAITING";
    case WorkerState::kPaused:
      return "PAUSED";
    case WorkerState::kExit:
      return "EXIT";
  }
  return "?";
}

ZcWorker::ZcWorker(Enclave& enclave, const ZcConfig& cfg, BackendStats& stats,
                   unsigned index)
    : enclave_(enclave),
      cfg_(cfg),
      stats_(stats),
      index_(index),
      pool_(cfg.worker_pool_bytes) {}

ZcWorker::~ZcWorker() { shutdown(); }

void ZcWorker::start() {
  if (thread_.joinable()) return;
  thread_ = std::jthread([this] { main(); });
}

void ZcWorker::shutdown() {
  if (!thread_.joinable()) return;
  command(SchedCmd::kExit);
  thread_.join();
}

WorkerState ZcWorker::state() const noexcept {
  const WorkerState s = status_.load(std::memory_order_acquire);
  if (s != WorkerState::kReserved ||
      !submitted_.load(std::memory_order_acquire)) {
    return s;
  }
  return bell_.load(std::memory_order_acquire) ==
                 done_.load(std::memory_order_acquire)
             ? WorkerState::kWaiting
             : WorkerState::kProcessing;
}

bool ZcWorker::try_reserve() noexcept {
  if (status_.load(std::memory_order_relaxed) != WorkerState::kUnused) {
    return false;
  }
  WorkerState expected = WorkerState::kUnused;
  return status_.compare_exchange_strong(expected, WorkerState::kReserved,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
}

void* ZcWorker::alloc_frame(std::size_t bytes) {
  void* mem = pool_.allocate(bytes, 64);
  if (mem == nullptr) {
    // Pool exhausted: free and re-allocate via an ocall (§IV-B). The
    // caller pays one full enclave transition; this is the source of the
    // latency spikes the paper observes in Fig. 8.
    enclave_.transitions().eexit();
    pool_.reset();
    enclave_.transitions().eenter();
    stats_.pool_resets.add();
    mem = pool_.allocate(bytes, 64);
  }
  return mem;
}

void ZcWorker::submit(void* frame) noexcept {
  request_ = frame;
  bell_.store(bell_.load(std::memory_order_relaxed) + 1,
              std::memory_order_release);
  // After the bell, so a state() that sees the flag also sees the bell.
  submitted_.store(true, std::memory_order_release);
}

std::exception_ptr ZcWorker::wait_done() noexcept {
  // The gate runs the paper's pure completion spin while the budget lasts
  // — the budget only expires when the host cannot run the worker
  // concurrently, where yielding (or, under wait=futex/condvar, sleeping
  // until the worker's notify) is what lets the worker finish at all.
  const std::uint32_t bell = bell_.load(std::memory_order_relaxed);
  done_gate_.await(
      done_, [bell](std::uint32_t done) { return done == bell; }, cfg_.wait,
      cfg_.spin,
      GateCounters{&stats_.caller_yields, &stats_.caller_sleeps,
                   &stats_.caller_wakeups});
  if (error_ == nullptr) return nullptr;
  return std::exchange(error_, nullptr);
}

void ZcWorker::release() noexcept {
  submitted_.store(false, std::memory_order_relaxed);
  status_.store(WorkerState::kUnused, std::memory_order_release);
}

void ZcWorker::cancel_reservation() noexcept {
  status_.store(WorkerState::kUnused, std::memory_order_release);
}

void ZcWorker::command(SchedCmd cmd) noexcept {
  // Only an actual transition needs the notify: the scheduler re-issues
  // the full command vector every probe and every quantum, so an
  // unconditional notify turned a paused worker into a spurious-wake
  // target many times per second (the same storm the batched/async
  // set_active_workers fix removes).
  if (cmd_.exchange(cmd, std::memory_order_acq_rel) == cmd) return;
  // Publish under the mutex so a worker between predicate check and wait
  // cannot miss the notification.
  {
    std::lock_guard lock(mu_);
  }
  cv_.notify_one();
}

void ZcWorker::serve(std::uint32_t bell) {
  // Execute the published request without any enclave transition.
  auto* header = static_cast<FrameHeader*>(request_);
  MarshalledCall call = frame_view(request_);
  const OcallTable& table = cfg_.direction == CallDirection::kOcall
                                ? enclave_.ocalls()
                                : enclave_.ecalls();
  try {
    table.dispatch(header->fn_id, call);
  } catch (...) {
    // A handler's failure crosses the boundary as a value: the caller
    // rethrows it, as it would have caught it on a regular ocall.
    error_ = std::current_exception();
  }
  served_.store(served_.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  done_.store(bell, std::memory_order_release);
  // Sleeping wait policies need the hand-off notify; the default
  // yield/spin callers poll, so their hot path stays fence-free.
  if (gate_can_sleep(cfg_.wait)) done_gate_.notify(done_);
}

bool ZcWorker::obey(SchedCmd cmd, std::size_t meter_slot) {
  // The paper pauses a worker only "if ... no caller thread has reserved
  // (or is using) the worker": the status word decides, and it is read
  // before the CAS so a held worker's line is not taken away.
  if (status_.load(std::memory_order_relaxed) != WorkerState::kUnused) {
    return true;
  }
  WorkerState expected = WorkerState::kUnused;
  const WorkerState next =
      cmd == SchedCmd::kExit ? WorkerState::kExit : WorkerState::kPaused;
  if (!status_.compare_exchange_strong(expected, next,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
    return true;
  }
  if (cmd == SchedCmd::kExit) {
    // Final cleanup (paper: workers free memory, then terminate).
    pool_.reset();
    return false;
  }
  stats_.worker_sleeps.add();
  if (cfg_.meter != nullptr) cfg_.meter->checkpoint(meter_slot);
  {
    std::unique_lock lock(mu_);
    // Count every resume — spurious ones included — so wake storms show
    // up in worker_wakeups, not just in syscall profiles.
    while (cmd_.load(std::memory_order_acquire) == SchedCmd::kPause) {
      parks_.fetch_add(1, std::memory_order_release);
      cv_.wait(lock);
      stats_.worker_wakeups.add();
    }
  }
  status_.store(WorkerState::kUnused, std::memory_order_release);
  return true;
}

void ZcWorker::main() {
  const SimConfig& sim = enclave_.config();
  if (sim.pin_threads) {
    pin_current_thread_to_window(sim.pin_base_cpu, sim.logical_cpus);
  }
  std::size_t meter_slot = 0;
  if (cfg_.meter != nullptr) {
    meter_slot = cfg_.meter->register_current_thread();
  }

  // Start from the done sequence, not the bell: a call submitted before
  // this thread ran has already rung the bell and must still be served.
  std::uint32_t answered = done_.load(std::memory_order_relaxed);
  std::uint64_t iterations = 0;
  for (;;) {
    const std::uint32_t bell = bell_.load(std::memory_order_acquire);
    if (bell != answered) {
      serve(bell);
      answered = bell;
      continue;
    }

    const SchedCmd cmd = cmd_.load(std::memory_order_acquire);
    if (cmd != SchedCmd::kRun && !obey(cmd, meter_slot)) break;

    // Busy-wait for work: this (or the caller's completion spin) is the
    // "exactly one thread busy-waiting per active worker" of §IV-A.  The
    // periodic yield is the batched worker's narrow-host courtesy: on a
    // host without a core per worker it lets publishers actually run;
    // with one it costs a syscall every 1024 pauses.
    cpu_pause();
    ++iterations;
    if ((iterations & 0x3FF) == 0) std::this_thread::yield();
    if (cfg_.meter != nullptr && (iterations & 0x3FFF) == 0) {
      cfg_.meter->checkpoint(meter_slot);
    }
  }

  if (cfg_.meter != nullptr) cfg_.meter->unregister_current_thread(meter_slot);
}

}  // namespace zc
