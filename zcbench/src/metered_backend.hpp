// Pass-through CallBackend the benchmark installs over the registry-built
// `zc`.  It forwards every call and getter to the real backend, counts the
// calls each thread issues (so the backend's own regular + switchless +
// fallback counters can be checked against them), and, on threads that are
// recording, times each invoke as a `core.invoke` span.
#pragma once

#include <array>
#include <memory>

#include "common/stats.hpp"
#include "sgx/backend.hpp"

namespace zcbench {

class MeteredBackend final : public zc::CallBackend {
 public:
  /// Thread slots: caller threads take 0..kMaxCallers-1, every other
  /// thread (set-up, teardown) shares the last one.
  static constexpr unsigned kMaxCallers = 4;

  explicit MeteredBackend(std::unique_ptr<zc::CallBackend> inner);

  /// Binds the calling thread to slot `caller` (< kMaxCallers).
  static void bind_caller(unsigned caller) noexcept;

  void start() override { inner_->start(); }
  void stop() override { inner_->stop(); }
  zc::CallPath invoke(const zc::CallDesc& desc) override;
  bool try_invoke_switchless(const zc::CallDesc& desc) override {
    return inner_->try_invoke_switchless(desc);
  }
  const char* name() const noexcept override { return inner_->name(); }
  zc::BackendStatsSnapshot stats_snapshot() const override {
    return inner_->stats_snapshot();
  }
  zc::CopyMode copy_mode() const noexcept override {
    return inner_->copy_mode();
  }
  unsigned layer_count() const noexcept override {
    return inner_->layer_count();
  }
  zc::BackendStatsSnapshot layer_snapshot(unsigned i) const override {
    return inner_->layer_snapshot(i);
  }
  const char* layer_name(unsigned i) const noexcept override {
    return inner_->layer_name(i);
  }
  unsigned active_workers() const noexcept override {
    return inner_->active_workers();
  }
  void set_active_workers(unsigned m) override { inner_->set_active_workers(m); }

  zc::CallBackend& inner() noexcept { return *inner_; }
  /// Calls issued through this backend so far, all threads.
  std::uint64_t calls_issued() const noexcept;

 private:
  std::unique_ptr<zc::CallBackend> inner_;
  std::array<zc::PaddedCounter, kMaxCallers + 1> issued_;
};

}  // namespace zcbench
