// Fig. 8 — kissdb: average latency of key/value SET commands for a varying
// number of 8-byte key/value pairs, under no_sl, zc, and the ten Intel
// switchless configurations (2 and 4 workers), each with the SDK's tlibc
// memcpy (intel) and the paper's (zc) marshalling every ocall.
//
// Paper shape: zc ≈1.22x faster than no_sl, faster than every single-call
// misconfiguration (i-fread/i-fwrite/i-fseeko/i-frw), slower than the
// well-configured i-all; occasional zc spikes from worker-pool resets.
#include <iostream>

#include "bench/bench_common.hpp"
#include "bench/kissdb_bench_shared.hpp"
#include "common/table.hpp"
#include "tlibc/memcpy.hpp"

using namespace zc;

int main(int argc, char** argv) try {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::reject_pipeline_flag(args);
  bench::reject_skew_flag(args);
  bench::JsonRows json(args);
  std::vector<std::uint64_t> key_counts;
  const std::uint64_t step = args.full ? 1'000 : 2'000;
  const std::uint64_t last = args.smoke ? step : 10'000;  // smoke: one cell
  for (std::uint64_t k = step; k <= last; k += step) key_counts.push_back(k);

  bench::print_header("Fig. 8", "kissdb SET latency (2 writers)", args);

  for (const tlibc::MemcpyKind memcpy_kind :
       {tlibc::MemcpyKind::kIntel, tlibc::MemcpyKind::kZc}) {
    const tlibc::ScopedMemcpy guard(memcpy_kind);
    const std::string memcpy_name = tlibc::to_string(memcpy_kind);
    for (const unsigned intel_workers :
         bench::smoke_first<unsigned>(args, {2u, 4u})) {
      const auto modes =
          bench::select_modes(args, bench::kissdb_modes(intel_workers));
      std::cout << "\n## (" << (intel_workers == 2 ? "a" : "b")
                << ") 2 writers, " << intel_workers
                << " workers-intel, memcpy=" << memcpy_name << "\n";
      std::vector<std::string> headers{"keys"};
      for (const auto& m : modes) headers.push_back(m.label + "[s]");
      Table table(headers);
      for (const std::uint64_t keys : key_counts) {
        std::vector<std::string> row{std::to_string(keys)};
        for (const auto& mode : modes) {
          double best = 1e99;
          for (unsigned rep = 0; rep < args.repetitions; ++rep) {
            best = std::min(best,
                            bench::run_kissdb_set(args, mode, keys).seconds);
          }
          row.push_back(Table::num(best, 3));
          json.add(bench::JsonRow()
                       .set("figure", "fig8")
                       .set("backend", bench::canonical_spec(mode.spec))
                       .set("memcpy", memcpy_name)
                       .set("intel_workers",
                            static_cast<std::uint64_t>(intel_workers))
                       .set("keys", keys)
                       .set("seconds", best));
        }
        table.add_row(std::move(row));
      }
      table.print(std::cout);
    }
  }
  return 0;
} catch (const zc::BackendSpecError& e) {
  // A --backend value or sl name that only fails when the backend
  // is built against the run's enclave.
  return zc::bench::backend_spec_exit(e);
}

