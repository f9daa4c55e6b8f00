#include "common/stats.hpp"

#include <unistd.h>

#include <bit>
#include <numeric>
#include <stdexcept>

namespace zc {

ShardedCounter::ShardedCounter()
    : slots_(std::make_unique<Slot[]>(slot_count())),
      mask_(slot_count() - 1) {}

std::uint64_t ShardedCounter::load() const noexcept {
  std::uint64_t sum = 0;
  for (unsigned i = 0; i <= mask_; ++i) {
    sum += slots_[i].value.load(std::memory_order_relaxed);
  }
  return sum;
}

unsigned ShardedCounter::slot_count() noexcept {
  static const unsigned count = [] {
    const long cpus = sysconf(_SC_NPROCESSORS_CONF);
    return std::bit_ceil(static_cast<unsigned>(cpus > 0 ? cpus : 1));
  }();
  return count;
}

double SampleSeries::percentile(double p) const {
  if (samples_.empty()) throw std::logic_error("percentile of empty series");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile out of range");
  std::vector<double> sorted(samples_);
  std::sort(sorted.begin(), sorted.end());
  if (p == 0.0) return sorted.front();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(rank, sorted.size()) - 1];
}

double SampleSeries::mean() const {
  if (samples_.empty()) return 0.0;
  return sum() / static_cast<double>(samples_.size());
}

double SampleSeries::sum() const {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

}  // namespace zc
