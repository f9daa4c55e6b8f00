#include "common/completion_gate.hpp"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#include <ctime>
#endif

namespace zc {

const char* to_string(GateWaitPolicy policy) noexcept {
  switch (policy) {
    case GateWaitPolicy::kSpin:
      return "spin";
    case GateWaitPolicy::kYield:
      return "yield";
    case GateWaitPolicy::kFutex:
      return "futex";
    case GateWaitPolicy::kCondvar:
      return "condvar";
  }
  return "?";
}

bool gate_policy_from_string(std::string_view text,
                             GateWaitPolicy& out) noexcept {
  if (text == "spin") {
    out = GateWaitPolicy::kSpin;
  } else if (text == "yield") {
    out = GateWaitPolicy::kYield;
  } else if (text == "futex") {
    out = GateWaitPolicy::kFutex;
  } else if (text == "condvar") {
    out = GateWaitPolicy::kCondvar;
  } else {
    return false;
  }
  return true;
}

#if defined(__linux__)

bool CompletionGate::futex_available() noexcept { return true; }

void CompletionGate::futex_block(const void* addr,
                                 std::uint32_t observed) noexcept {
  // The kernel atomically re-checks *addr == observed before sleeping, so
  // a wake between the caller's load and this syscall returns EAGAIN
  // instead of being lost.  That re-check sees only *addr: a predicate
  // that also reads other state (a stop flag) can miss a notify() that
  // lands between its check and this syscall, so the sleep is bounded
  // and the caller's predicate loop re-checks at least every 100 ms
  // instead of sleeping forever.  Timeouts, EINTR and spurious returns
  // all go back to that loop.
  timespec bound{};
  bound.tv_nsec = 100'000'000;
  syscall(SYS_futex, addr, FUTEX_WAIT_PRIVATE, observed, &bound, nullptr, 0);
}

void CompletionGate::wake_sleepers(const void* addr) noexcept {
  syscall(SYS_futex, addr, FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
  // The empty lock/unlock orders this notify after a condvar waiter's
  // predicate evaluation (a waiter between its check and cv_.wait holds
  // the mutex), so the broadcast cannot land in that window and be lost.
  {
    std::lock_guard lock(mu_);
  }
  cv_.notify_all();
}

#else  // !__linux__

bool CompletionGate::futex_available() noexcept { return false; }

void CompletionGate::futex_block(const void*, std::uint32_t) noexcept {}

void CompletionGate::wake_sleepers(const void* /*addr*/) noexcept {
  {
    std::lock_guard lock(mu_);
  }
  cv_.notify_all();
}

#endif

}  // namespace zc
