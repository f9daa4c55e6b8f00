// The benchmark run: rounds of set-up plus measured phases on one
// workload, then the metrics.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace zcbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string out_dir;  ///< where a traced run writes its spans; "" = none
};

/// Runs the benchmark, printing a detail line and then the result line to
/// `out`.  Returns the process exit code.
int run_benchmark(const RunOptions& opt, std::ostream& out);

}  // namespace zcbench
