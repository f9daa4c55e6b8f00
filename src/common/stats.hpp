// Lightweight statistics used across the call backends and the benches.
#pragma once

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace zc {

/// Cache-line padded monotonically increasing counter (avoids false sharing
/// between caller/worker/scheduler threads).
struct alignas(64) PaddedCounter {
  std::atomic<std::uint64_t> value{0};

  void add(std::uint64_t n = 1) noexcept {
    value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t load() const noexcept {
    return value.load(std::memory_order_relaxed);
  }
  void store(std::uint64_t v) noexcept {
    value.store(v, std::memory_order_relaxed);
  }
};

/// The CPU the calling thread runs on (sched_getcpu(), which glibc >= 2.35
/// reads from its rseq area); 0 if that fails.
inline unsigned current_cpu_index() noexcept {
  const int cpu = sched_getcpu();
  return cpu < 0 ? 0u : static_cast<unsigned>(cpu);
}

/// A counter for the per-call path: many threads add, few read.  It keeps
/// one cache-line padded slot per CPU, and add() does a relaxed RMW on the
/// slot of the CPU the calling thread runs on (current_cpu_index()).
/// Threads running at the same time therefore never write the same line,
/// however many threads come and go; a thread migrated between reading
/// its CPU and the RMW only touches another CPU's slot, which stays exact
/// because every slot is atomic.  load() sums the slots modulo 2^64.  It
/// is live but not a snapshot: adds that race with it may or may not be
/// counted.
class ShardedCounter {
 public:
  ShardedCounter();

  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    slot().fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t load() const noexcept;

  /// Slots per counter: the configured CPU count rounded up to a power
  /// of two (CPU ids past it wrap, sharing a slot but staying exact).
  static unsigned slot_count() noexcept;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value{0};
  };

  std::atomic<std::uint64_t>& slot() noexcept {
    return slots_[current_cpu_index() & mask_].value;
  }

  std::unique_ptr<Slot[]> slots_;
  unsigned mask_;
};

/// A level (calls in flight) in ShardedCounter slots: add() raises it and
/// sub() lowers it on the caller's CPU slot, and the slots sum modulo 2^64,
/// so a level raised on one CPU and lowered on another nets out exactly.
/// load() reads the slots one after another; a thread that moves CPU
/// between its add() and sub() can let it see the sub() without the add(),
/// a sum below zero, which load() reads as 0.
class ShardedGauge {
 public:
  void add(std::uint64_t n = 1) noexcept { level_.add(n); }
  void sub(std::uint64_t n = 1) noexcept { level_.add(0 - n); }
  std::uint64_t load() const noexcept {
    const std::uint64_t sum = level_.load();
    return sum >> 63 ? 0 : sum;
  }

 private:
  ShardedCounter level_;
};

/// Welford online mean/variance with min/max. Single-writer.
class RunningStat {
 public:
  void add(double x) noexcept {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const noexcept { return std::sqrt(variance()); }
  double min() const noexcept {
    return n_ ? min_ : 0.0;
  }
  double max() const noexcept {
    return n_ ? max_ : 0.0;
  }

  void reset() noexcept { *this = RunningStat{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Reservoir of samples with percentile queries; used for latency series.
class SampleSeries {
 public:
  void add(double x) { samples_.push_back(x); }
  std::size_t size() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  /// p in [0,100]; nearest-rank on a sorted copy.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double mean() const;
  double sum() const;

  const std::vector<double>& raw() const noexcept { return samples_; }
  void clear() noexcept { samples_.clear(); }

 private:
  std::vector<double> samples_;
};

}  // namespace zc
