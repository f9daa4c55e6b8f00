// Host fingerprint and noise probe, reported with every run so two sets of
// numbers can be told apart by the machine that made them.
#pragma once

#include <string>

namespace zcbench {

struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string kernel;
  std::string compiler;
  std::string build_type;
  std::string git_sha;
};
HostInfo host_info(const std::string& git_sha);

/// A two-thread ping-pong over one cache line, timed before the workloads.
struct NoiseProbe {
  double rtt_ns_median = 0;  ///< median of the batch medians
  double rtt_ns_min = 0;
  double rtt_ns_max = 0;
  /// Slow (median over 2 µs) or erratic (max over 3x min across batches).
  bool unstable = false;
};
NoiseProbe ping_pong_probe();

}  // namespace zcbench
