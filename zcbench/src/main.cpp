// zcbench: the repository's benchmark program.
//
//   zcbench --workload kv_store|sector_io|bulk_io|phased_load --seed N
//           --seconds S --trace 0|1 [--git-sha SHA] [--out-dir DIR]
//
// Prints a detail line (host fingerprint, noise probe, sample counts) and,
// last, the result line {"correct", "attempted", "failed", "metrics"}:
// end-to-end metrics when untraced, per-layer metrics when traced.
#include <malloc.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: zcbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA] [--out-dir DIR]\nworkloads:";
  for (const std::string& w : zcbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  // Pin glibc's allocation thresholds, which it otherwise moves with the
  // process's history: a block of 512 KB or more (the `zc` frame pools,
  // SimFs files) is mapped fresh unless a freed heap block fits, as in a
  // process's first set-up, and freed heap memory is kept.  Set-up time
  // and peak RSS then repeat from run to run.
  mallopt(M_MMAP_THRESHOLD, 512 * 1024);
  mallopt(M_TRIM_THRESHOLD, 256 * 1024 * 1024);
  zcbench::RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--git-sha") {
      opt.git_sha = value;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || opt.seconds <= 0) return usage();
  const int rc = zcbench::run_benchmark(opt, std::cout);
  return rc == 2 ? usage() : rc;
} catch (const std::exception& e) {
  std::cerr << "zcbench: " << e.what() << '\n';
  return 1;
}
