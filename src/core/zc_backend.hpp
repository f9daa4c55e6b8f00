// ZC-Switchless call backend (paper §IV, Fig. 4).
//
// Any ocall is a switchless candidate: the caller scans the active workers
// for an UNUSED one (starting at the one it reserved last), reserves it,
// copies its request into the worker's buffer and busy-waits for the
// result.  If no worker is idle the call "immediately falls back to a
// regular ocall without any busy waiting" (§IV-C) — the property that
// shields ZC from the Intel rbf pathology in the OpenSSL experiment
// (Fig. 10).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/pool.hpp"
#include "core/scheduler.hpp"
#include "core/worker.hpp"
#include "core/zc_config.hpp"
#include "sgx/enclave.hpp"

namespace zc {

class ZcBackend final : public CallBackend {
 public:
  ZcBackend(Enclave& enclave, ZcConfig cfg);
  ~ZcBackend() override;

  void start() override;
  void stop() override;
  CallPath invoke(const CallDesc& desc) override;

  /// The switchless half of invoke(): reserves an idle active worker,
  /// runs `desc` through it and returns true, or returns false without
  /// side effects when nothing is idle (or the frame exceeds the pool).
  /// Never executes the regular fallback — the caller decides what a
  /// refusal means (plain invoke() falls back; the sharded router's
  /// steal path probes another shard first).  While the call is in
  /// flight, stats().in_flight is raised — the load signal the sharded
  /// load-aware selectors read.  A handler that throws on the worker
  /// has its exception rethrown here once the worker is released.
  bool try_invoke_switchless(const CallDesc& desc) override;
  const char* name() const noexcept override {
    return cfg_.direction == CallDirection::kOcall ? "zc" : "zc-ecall";
  }

  unsigned active_workers() const noexcept override {
    return active_count_.load(std::memory_order_acquire);
  }

  unsigned max_workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Manually applies a worker count (tests / scheduler-off ablations).
  void set_active_workers(unsigned m) override;

  const ZcConfig& config() const noexcept { return cfg_; }

  CopyMode copy_mode() const noexcept override { return cfg_.copy; }

  /// The shared frame slab when built with pool=slab (tests/diagnostics).
  SlabPool* slab() noexcept { return slab_.get(); }

  /// The feedback scheduler (valid between start() and stop()).
  ZcScheduler* scheduler() noexcept { return scheduler_.get(); }
  const ZcScheduler* scheduler() const noexcept { return scheduler_.get(); }

  /// Lifetime calls served per worker index (diagnostics).
  std::vector<std::uint64_t> per_worker_served() const;

 private:
  void execute_regular(const CallDesc& desc);
  CallPath fallback(const CallDesc& desc);

  Enclave& enclave_;
  ZcConfig cfg_;
  const std::uint64_t hint_key_;  ///< names this backend in callers' hints
  std::unique_ptr<SlabPool> slab_;  ///< frame slabs when pool=slab
  std::vector<std::unique_ptr<ZcWorker>> workers_;
  std::unique_ptr<ZcScheduler> scheduler_;
  std::atomic<unsigned> active_count_{0};
  std::atomic<bool> running_{false};
};

std::unique_ptr<ZcBackend> make_zc_backend(Enclave& enclave,
                                           ZcConfig cfg = {});

}  // namespace zc
