// ZC-Switchless worker thread and its shared buffer (paper §IV-B).
//
// Each worker owns a `buffer` with the four fields of the paper: a
// preallocated untrusted memory pool for requests, the most recent
// switchless request, a status word, and a scheduler-communication word.
// The buffer is laid out so that each cache line has one writer in steady
// state, which makes a hand-off cost one line transfer each way (the
// HotCalls layout, Weisse et al., ISCA'17):
//
//   caller line      status_ (UNUSED/RESERVED/PAUSED/EXIT), submitted_,
//                    pool_.  Written by the reserving caller; the worker
//                    CASes status_ only while cmd_ says pause or exit.
//   doorbell line    request_ and the submit sequence bell_.  Written by
//                    the caller on submit; the worker polls bell_.
//   completion line  the done sequence done_ and error_.  Written by the
//                    worker when the handler returns; the caller's
//                    CompletionGate waits on done_ (futex policies sleep
//                    on it).
//   command line     cmd_.  Written by the scheduler only.
//   worker line      served_, parks_.  Written by the worker only.
//
// The status word implements the reservation half of Fig. 6:
//
//        +-> RESERVED -> PROCESSING -> WAITING -+
//   UNUSED <------------------------------------+
//        +-> PAUSED (scheduler)   +-> EXIT (termination)
//
// Callers drive UNUSED->RESERVED and back; the worker drives UNUSED->PAUSED
// and ->EXIT on the scheduler's command.  The two hot-path stores of the
// paper's machine, RESERVED->PROCESSING (caller) and PROCESSING->WAITING
// (worker), are replaced by the caller ringing bell_ (submit sequence + 1)
// and the worker copying the rung sequence into done_; neither needs a
// reset.  state() derives all six states without a data race: RESERVED
// with a pending bell (bell_ != done_) reads as PROCESSING, RESERVED with
// an answered bell reads as WAITING.  Synchronisation is lock-free on the
// hot path (atomic CAS / release-acquire), with a condition variable only
// for PAUSED sleep.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>

#include "common/completion_gate.hpp"
#include "common/pool.hpp"
#include "core/zc_config.hpp"
#include "sgx/enclave.hpp"

namespace zc {

enum class WorkerState : std::uint32_t {
  kUnused = 0,   ///< idle, reservable by callers
  kReserved,     ///< a caller is marshalling its request
  kProcessing,   ///< the worker executes the request
  kWaiting,      ///< results ready, waiting for the caller to collect
  kPaused,       ///< deactivated by the scheduler (sleeping, no CPU)
  kExit,         ///< terminated
};

enum class SchedCmd : std::uint32_t {
  kRun = 0,  ///< serve calls
  kPause,    ///< park as soon as not reserved
  kExit,     ///< clean up and terminate
};

const char* to_string(WorkerState s) noexcept;

class ZcWorker {
 public:
  ZcWorker(Enclave& enclave, const ZcConfig& cfg, BackendStats& stats,
           unsigned index);
  ~ZcWorker();

  ZcWorker(const ZcWorker&) = delete;
  ZcWorker& operator=(const ZcWorker&) = delete;

  /// Spawns the worker thread (state stays UNUSED until commanded).
  void start();

  /// Asks the thread to exit and joins it.
  void shutdown();

  // --- caller side (enclave threads) --------------------------------------

  /// Attempts UNUSED -> RESERVED. Wait-free; a worker that is not UNUSED
  /// is refused on a plain load, without taking its line for a CAS.
  bool try_reserve() noexcept;

  /// Allocates frame memory from the worker's request pool.  When the pool
  /// is full it is freed and re-allocated via a (regular) ocall — the
  /// caller pays one enclave transition — then allocation is retried.
  /// Returns nullptr if `bytes` exceed the pool outright.
  void* alloc_frame(std::size_t bytes);

  /// Publishes the marshalled request and rings the doorbell
  /// (RESERVED -> PROCESSING).
  void submit(void* frame) noexcept;

  /// Waits until the worker has answered the doorbell (-> WAITING): spins
  /// for the configured budget, then yields or sleeps per ZcConfig::wait
  /// (CompletionGate).  Returns the exception the handler threw, or null.
  [[nodiscard]] std::exception_ptr wait_done() noexcept;

  /// Returns the buffer to UNUSED after unmarshalling (WAITING -> UNUSED).
  void release() noexcept;

  /// Abandons a reservation without submitting (RESERVED -> UNUSED).
  void cancel_reservation() noexcept;

  // --- scheduler side ------------------------------------------------------

  /// Posts a scheduler command and wakes the worker if parked.
  void command(SchedCmd cmd) noexcept;

  /// The Fig. 6 state, derived from the status word and the two sequences.
  WorkerState state() const noexcept;
  SchedCmd current_command() const noexcept {
    return cmd_.load(std::memory_order_acquire);
  }
  unsigned index() const noexcept { return index_; }

  /// Calls served by this worker (lifetime), throwing handlers included.
  std::uint64_t calls_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }

  /// Times the paused worker was about to block on its condition variable
  /// (bumped under the park mutex just before each wait).  Once a caller
  /// sees it rise, a command() that changes the command word is certain to
  /// wake the worker rather than race ahead of its wait.
  std::uint64_t parks() const noexcept {
    return parks_.load(std::memory_order_acquire);
  }

 private:
  void main();
  /// Runs the request of doorbell `bell` and answers it.
  void serve(std::uint32_t bell);
  /// Parks the worker or ends its loop per `cmd` (not kRun) once no caller
  /// holds it; false once it has exited.
  bool obey(SchedCmd cmd, std::size_t meter_slot);

  Enclave& enclave_;
  const ZcConfig& cfg_;
  BackendStats& stats_;
  unsigned index_;

  // Caller line: the reservation word and the request pool (§IV-B).
  alignas(64) std::atomic<WorkerState> status_{WorkerState::kUnused};
  std::atomic<bool> submitted_{false};  ///< the holder has rung the bell
  BumpPool pool_;

  // Doorbell line.
  alignas(64) void* request_ = nullptr;  ///< latest request; ordered by bell_
  std::atomic<std::uint32_t> bell_{0};   ///< submit sequence

  // Completion line.
  alignas(64) std::atomic<std::uint32_t> done_{0};  ///< last answered bell
  std::exception_ptr error_;  ///< the handler's exception; ordered by done_

  alignas(64) CompletionGate done_gate_;  ///< the caller's wait on done_

  // Command line.
  alignas(64) std::atomic<SchedCmd> cmd_{SchedCmd::kRun};

  // Worker line.
  alignas(64) std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> parks_{0};

  alignas(64) std::mutex mu_;
  std::condition_variable cv_;
  std::jthread thread_;
};

}  // namespace zc
