// CompletionGate: the one caller-wait primitive of the switchless planes.
//
// Every switchless backend ends with the same shape of wait: a caller has
// handed its request to a worker (a reserved ZC worker buffer, a batch
// slot, an async completion-table slot) and must now wait for a 32-bit
// state word to reach a completion value.  Before this class existed that
// wait was implemented three times (zc's wait_done, zc_batched's slot
// poll, zc_async's per-slot condvar), each with its own spin budget and
// sleep mechanism — which is why "futex waits on Linux hosts" stayed an
// open ROADMAP item: there was no single place to put them.
//
// The gate runs the wait in two phases:
//
//   1. spin:  poll the word with `pause` for at most `spin` microseconds.
//             The clock is read on a 1,2,4,...,64-poll ramp and every 64
//             polls thereafter (gate_spin_next_check), so the budget check
//             stays off the poll loop's critical path once warmed up while
//             a tiny budget (1-5 µs) still expires within a poll or two
//             instead of overshooting by a whole 64-poll block on a loaded
//             host.  This is the paper's pure completion spin while the
//             budget lasts; kSpin never leaves this phase (the hotcalls
//             baseline).
//   2. block: policy-dependent.
//        kYield   — yield between polls (one BackendStats::caller_yields
//                   per yield): the narrow-host default, unchanged from
//                   the pre-gate backends.
//        kFutex   — sleep in the kernel on the word itself
//                   (FUTEX_WAIT_PRIVATE); one syscall to sleep, one
//                   (by the waker) to wake.  Each sleep is bounded to
//                   100 ms, so a predicate that also reads state other
//                   than the word (a stop flag) re-checks it at least
//                   that often even if a notify() raced its sleep.  Falls
//                   back to kCondvar on non-Linux hosts behind the same
//                   API.
//        kCondvar — sleep on the gate's mutex+condition_variable (the
//                   portable fallback, and zc_async's historical wait).
//             Sleeps/wakes are counted in BackendStats::caller_sleeps /
//             caller_wakeups.
//
// Waker contract: update the state word first, then call notify(word).
// notify() starts with a seq_cst fence so a release-ordered word store
// still pairs with a sleeping waiter's seq_cst registration (the classic
// store-buffer pairing), and it elides all syscalls/locks while nobody is
// sleeping — with a non-sleeping policy the waker side can skip notify()
// entirely (gate_can_sleep()).  Predicates are re-evaluated after every
// wake-up, so spurious futex returns and condvar wake-ups are harmless.
//
// Wake coalescing: a worker that completes a whole batch at once (the
// batched flush, the async drain run) would pay one futex wake — ~2.2 µs
// measured by BM_GatePolicy — per slot under notify().  When several
// waiters share one gate via await_coalesced(), they sleep on the gate's
// own epoch word instead of their private state words, so a single
// notify_batch() (one futex wake / one condvar broadcast) releases every
// current sleeper; each re-checks its own predicate and the ones whose
// slots completed return while any others go back to sleep on the new
// epoch.  notify() and notify_batch() target disjoint sleeper sets (the
// futex address differs), so a gate must be used in one style at a time.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <thread>

#include "common/cpu_meter.hpp"  // wall_ns
#include "common/cycles.hpp"     // cpu_pause
#include "common/stats.hpp"      // PaddedCounter

namespace zc {

enum class GateWaitPolicy : std::uint8_t {
  kSpin,     ///< pure spin, never yields or sleeps (hotcalls-style)
  kYield,    ///< spin budget, then yield between polls (the default)
  kFutex,    ///< spin budget, then futex sleep (condvar off Linux)
  kCondvar,  ///< spin budget, then mutex+condvar sleep
};

const char* to_string(GateWaitPolicy policy) noexcept;

/// Parses "spin"/"yield"/"futex"/"condvar"; false on anything else.
bool gate_policy_from_string(std::string_view text,
                             GateWaitPolicy& out) noexcept;

/// True for policies whose blocked waiters need a notify() to make
/// progress; spinning/yielding waiters poll and never require one.
constexpr bool gate_can_sleep(GateWaitPolicy policy) noexcept {
  return policy == GateWaitPolicy::kFutex ||
         policy == GateWaitPolicy::kCondvar;
}

/// The spin phase's clock-read schedule: given that the check at poll
/// index `polls` (>= 1) found budget remaining, the poll index of the next
/// check.  Doubles from 1 up to 64, then stays at every-64 — so a 1 µs
/// budget is noticed within the first polls while the steady state keeps
/// the clock read off the hot loop.  Pure; unit-tested directly.
constexpr std::uint32_t gate_spin_next_check(std::uint32_t polls) noexcept {
  return polls < 64 ? polls * 2 : polls + 64;
}

/// Where the gate accounts its waiting: all pointers optional (benches and
/// tests pass {}).  Backends wire these to their BackendStats counters.
struct GateCounters {
  PaddedCounter* yields = nullptr;   ///< one per yield in the kYield phase
  PaddedCounter* sleeps = nullptr;   ///< one per wait that actually blocked
  PaddedCounter* wakeups = nullptr;  ///< one per blocked wait that returned
};

class CompletionGate {
 public:
  CompletionGate() = default;
  CompletionGate(const CompletionGate&) = delete;
  CompletionGate& operator=(const CompletionGate&) = delete;

  /// True when the kFutex policy really uses futexes on this platform
  /// (otherwise it silently behaves as kCondvar).
  static bool futex_available() noexcept;

  /// Blocks until `pred(word.load())` holds.  T must be a 32-bit word
  /// (the ZC-family state enums and plain uint32_t both qualify); the
  /// futex sleeps on the word's own address, so no shadow state can drift.
  template <typename T, typename Pred>
  void await(const std::atomic<T>& word, Pred&& pred, GateWaitPolicy policy,
             std::chrono::microseconds spin, const GateCounters& counters) {
    static_assert(sizeof(std::atomic<T>) == sizeof(std::uint32_t),
                  "CompletionGate waits on 32-bit state words");
    if (spin_phase(word, pred, policy, spin)) return;

    if (policy == GateWaitPolicy::kYield) {
      yield_phase(word, pred, counters);
      return;
    }

    // caller_sleeps counts waits that *actually block* (reach the futex
    // syscall / condvar wait), not every wait that merely entered this
    // phase — a completion racing the phase transition stays uncounted.
    bool slept = false;
    if (policy == GateWaitPolicy::kFutex && futex_available()) {
      // The seq_cst registration/load pair is the waiter's half of the
      // store-buffer pairing with notify()'s fence (see class comment);
      // futex_block itself re-checks the word in the kernel, so a wake
      // between the load and the syscall is never lost.
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      for (;;) {
        const T value = word.load(std::memory_order_seq_cst);
        if (pred(value)) break;
        if (!slept) {
          slept = true;
          if (counters.sleeps != nullptr) counters.sleeps->add();
        }
        futex_block(&word, static_cast<std::uint32_t>(value));
      }
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      condvar_sleep(word, pred, counters, slept);
    }
    if (slept && counters.wakeups != nullptr) counters.wakeups->add();
  }

  /// Coalesced-wake variant of await(): identical spin/yield behaviour,
  /// but a sleeping waiter parks on the *gate's* epoch word instead of
  /// `word`, so several waiters (each with their own state word and
  /// predicate) can share one gate and be released together by a single
  /// notify_batch().  Pair exclusively with notify_batch(): a plain
  /// notify(word) will not find these sleepers on the futex path.
  template <typename T, typename Pred>
  void await_coalesced(const std::atomic<T>& word, Pred&& pred,
                       GateWaitPolicy policy, std::chrono::microseconds spin,
                       const GateCounters& counters) {
    static_assert(sizeof(std::atomic<T>) == sizeof(std::uint32_t),
                  "CompletionGate waits on 32-bit state words");
    if (spin_phase(word, pred, policy, spin)) return;

    if (policy == GateWaitPolicy::kYield) {
      yield_phase(word, pred, counters);
      return;
    }

    bool slept = false;
    if (policy == GateWaitPolicy::kFutex && futex_available()) {
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      for (;;) {
        // Epoch before predicate: if the batch completes (word store, then
        // epoch bump) between these two loads, the kernel's atomic
        // epoch != observed re-check turns the sleep into an immediate
        // EAGAIN instead of a lost wakeup.
        const std::uint32_t observed =
            epoch_.load(std::memory_order_seq_cst);
        if (pred(word.load(std::memory_order_seq_cst))) break;
        if (!slept) {
          slept = true;
          if (counters.sleeps != nullptr) counters.sleeps->add();
        }
        futex_block(&epoch_, observed);
      }
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      // The condvar path is already coalesced by construction: every
      // sharer sleeps on this gate's one mutex+cv, and notify_batch()'s
      // broadcast is a single notify_all.
      condvar_sleep(word, pred, counters, slept);
    }
    if (slept && counters.wakeups != nullptr) counters.wakeups->add();
  }

  /// Waker side: call after storing the new word value.  No-ops (one fence
  /// + one relaxed load) while nobody is sleeping.
  template <typename T>
  void notify(const std::atomic<T>& word) noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_relaxed) == 0) return;
    wake_sleepers(&word);
  }

  /// Coalesced waker side: call once after storing *all* the word values
  /// of a completed batch.  One futex wake (or one condvar broadcast)
  /// releases every sleeper currently parked via await_coalesced(); the
  /// epoch bump (a seq_cst RMW, doubling as the notify fence) guarantees a
  /// waiter racing into its sleep observes either its completed word or
  /// the moved epoch.  Cheap when nobody sleeps: one RMW + one load.
  void notify_batch() noexcept {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_relaxed) == 0) return;
    wake_sleepers(&epoch_);
  }

 private:
  /// Phase 1: bounded spin, identical across policies; true when the
  /// predicate held before the budget expired.  kSpin never returns false.
  template <typename T, typename Pred>
  bool spin_phase(const std::atomic<T>& word, Pred& pred,
                  GateWaitPolicy policy, std::chrono::microseconds spin) {
    if (pred(word.load(std::memory_order_acquire))) return true;

    if (policy == GateWaitPolicy::kSpin) {
      while (!pred(word.load(std::memory_order_acquire))) cpu_pause();
      return true;
    }

    const std::uint64_t spin_ns =
        static_cast<std::uint64_t>(spin.count()) * 1'000;
    if (spin_ns == 0) return false;
    const std::uint64_t t0 = wall_ns();
    std::uint32_t polls = 0;
    std::uint32_t next_check = 1;
    for (;;) {
      cpu_pause();
      if (pred(word.load(std::memory_order_acquire))) return true;
      if (++polls >= next_check) {
        if (wall_ns() - t0 >= spin_ns) return false;
        next_check = gate_spin_next_check(polls);
      }
    }
  }

  /// Phase 2 for kYield: yield between polls, forever.
  template <typename T, typename Pred>
  void yield_phase(const std::atomic<T>& word, Pred& pred,
                   const GateCounters& counters) {
    for (;;) {
      if (counters.yields != nullptr) counters.yields->add();
      std::this_thread::yield();
      if (pred(word.load(std::memory_order_acquire))) return;
    }
  }

  /// Phase 2 for kCondvar (and the non-Linux kFutex fallback).
  template <typename T, typename Pred>
  void condvar_sleep(const std::atomic<T>& word, Pred& pred,
                     const GateCounters& counters, bool& slept) {
    std::unique_lock lock(mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    cv_.wait(lock, [&] {
      if (pred(word.load(std::memory_order_seq_cst))) return true;
      if (!slept) {
        slept = true;
        if (counters.sleeps != nullptr) counters.sleeps->add();
      }
      return false;
    });
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// One FUTEX_WAIT_PRIVATE on `addr` while it still reads `observed`.
  static void futex_block(const void* addr, std::uint32_t observed) noexcept;
  /// Broadcast: futex-wakes the word and notifies the condvar (a gate may
  /// host either kind of sleeper; both paths are cheap when empty).
  void wake_sleepers(const void* addr) noexcept;

  std::atomic<std::uint32_t> sleepers_{0};
  /// The shared sleep word of the coalesced path: await_coalesced waiters
  /// futex-sleep here, notify_batch() bumps it.  Monotonic; wrap is
  /// harmless (only equality against the observed value matters).
  std::atomic<std::uint32_t> epoch_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace zc
