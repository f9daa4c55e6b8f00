// The benchmark's metric catalogue and the small statistics it reports
// with.  The names and units here are the ones BENCHMARK.json lists;
// `run.py` refuses a run whose metrics differ from that file.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace zcbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by untraced runs (`--trace 0`).  Each carries a bound in
/// BENCHMARK.json, so only figures that repeat across runs on a shared
/// host are here; the rest are reported unbounded with the traced run.
inline constexpr std::array<MetricDef, 4> kEndToEnd{{
    {"setup_s", "s"},
    {"write_p50_us", "us"},
    {"read_p50_us", "us"},
    {"peak_rss_mb", "MB"},
}};

/// Printed by traced runs (`--trace 1`): the layers, then end-to-end
/// figures too noisy on a shared host to carry a bound (`e2e.*`).
inline constexpr std::array<MetricDef, 29> kPerLayer{{
    {"apps.write_self_us.p50", "us"},
    {"apps.read_self_us.p50", "us"},
    {"apps.ocalls_per_op", "count"},
    {"core.invoke_us.p50", "us"},
    {"core.invoke_us.p99", "us"},
    {"core.switchless_share", "ratio"},
    {"core.fallback_share", "ratio"},
    {"core.caller_yields_per_call", "count"},
    {"core.pool_resets_per_kcall", "count"},
    {"core.workers_mean", "count"},
    {"core.config_phases_per_s", "1/s"},
    {"core.worker_sleeps_per_s", "1/s"},
    {"sgx.transitions_per_call", "count"},
    {"sgx.transition_share", "ratio"},
    {"sgx.marshal_ns", "ns"},
    {"tlibc.memcpy_gbps", "GB/s"},
    {"cpu.caller_ns_per_op", "ns"},
    {"cpu.backend_ns_per_op", "ns"},
    {"gen.late_p99_us", "us"},
    {"gen.idle_late_p50_us", "us"},
    {"gen.idle_late_p99_us", "us"},
    {"trace.overhead_pct", "%"},
    {"e2e.write_ops_per_s", "1/s"},
    {"e2e.read_ops_per_s", "1/s"},
    {"e2e.write_p99_us", "us"},
    {"e2e.read_p99_us", "us"},
    {"e2e.sojourn_p50_us", "us"},
    {"e2e.sojourn_p99_us", "us"},
    {"e2e.cpu_ns_per_op", "ns"},
}};

/// `[A-Za-z0-9_.-]+`, at most 64 characters, starting with a letter or
/// digit.
bool valid_metric_name(std::string_view name) noexcept;

/// Value at quantile `q` (0..1) by nearest rank; sorts `v`.  0 when empty.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Metric values by name, printed as the run's last line.
using MetricValues = std::map<std::string, double>;

/// Shortest decimal that reads back as exactly `v`.
std::string json_number(double v);

/// The result line: {"correct", "attempted", "failed", "metrics"}.  Only
/// the metrics `defs` names are printed, each with its unit.
template <std::size_t N>
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricValues& values,
                        const std::array<MetricDef, N>& defs) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    out += std::string(first ? "" : ", ") + "\"" + d.name +
           "\": {\"value\": " + json_number(v) + ", \"unit\": \"" + d.unit +
           "\"}";
    first = false;
  }
  return out + "}}";
}

}  // namespace zcbench
