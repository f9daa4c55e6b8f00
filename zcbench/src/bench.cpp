#include "bench.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>

#include "checks.hpp"
#include "common/cpu_meter.hpp"
#include "common/cycles.hpp"
#include "host.hpp"
#include "metrics.hpp"
#include "sgx/marshal.hpp"
#include "sgx/sim_fs.hpp"
#include "tlibc/memcpy.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace zcbench {

namespace {

// --- CallerPool -------------------------------------------------------------

/// The load generator's caller threads: run() hands one job to every
/// caller and returns when all have finished it.
class CallerPool {
 public:
  explicit CallerPool(unsigned callers);
  ~CallerPool();
  CallerPool(const CallerPool&) = delete;
  CallerPool& operator=(const CallerPool&) = delete;

  void run(const std::function<void(unsigned caller)>& job);

 private:
  void loop(unsigned caller);

  std::mutex mu_;
  std::condition_variable cv_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

CallerPool::CallerPool(unsigned callers) {
  for (unsigned c = 0; c < callers; ++c) {
    threads_.emplace_back([this, c] { loop(c); });
  }
}

CallerPool::~CallerPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void CallerPool::run(const std::function<void(unsigned)>& job) {
  std::unique_lock lock(mu_);
  job_ = &job;
  pending_ = static_cast<unsigned>(threads_.size());
  ++generation_;
  cv_.notify_all();
  cv_.wait(lock, [&] { return pending_ == 0; });
  job_ = nullptr;
}

void CallerPool::loop(unsigned caller) {
  MeteredBackend::bind_caller(caller);
  // Open-loop callers sleep until each call is due; the default 50 µs
  // timer slack would make every sleeping call late by that much.
  prctl(PR_SET_TIMERSLACK, 1'000UL, 0, 0, 0);
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(unsigned)>* job = nullptr;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    (*job)(caller);
    std::lock_guard lock(mu_);
    if (--pending_ == 0) cv_.notify_all();
  }
}

// --- Measurement state ------------------------------------------------------

/// Everything read from the program at a phase boundary.
struct Counters {
  std::uint64_t issued = 0;
  zc::BackendStatsSnapshot stats;
  std::uint64_t eexits = 0;
  std::uint64_t burned_cycles = 0;
  std::vector<std::uint64_t> occupancy_ns;
  std::uint64_t config_phases = 0;
  std::uint64_t process_cpu_ns = 0;
  std::uint64_t wall_ns = 0;
};

Counters read_counters(const Program& p) {
  Counters c;
  c.issued = p.backend->calls_issued();
  c.stats = p.backend->stats_snapshot();
  c.eexits = p.enclave->transitions().eexit_count();
  c.burned_cycles = p.enclave->transitions().burned_cycles();
  if (const zc::ZcScheduler* s = p.zc != nullptr ? p.zc->scheduler() : nullptr) {
    c.occupancy_ns = s->occupancy_ns();
    c.config_phases = s->config_phases();
  }
  c.process_cpu_ns = zc::process_cpu_ns();
  c.wall_ns = zc::wall_ns();
  return c;
}

/// Counter deltas summed over measured phases.
struct Totals {
  std::uint64_t ops = 0;
  std::uint64_t issued = 0;
  std::uint64_t switchless = 0;
  std::uint64_t fallback = 0;
  std::uint64_t yields = 0;
  std::uint64_t pool_resets = 0;
  std::uint64_t worker_sleeps = 0;
  std::uint64_t config_phases = 0;
  std::uint64_t eexits = 0;
  std::uint64_t burned_cycles = 0;
  double worker_ns = 0;     ///< Σ workers × time at that count
  double occupancy_ns = 0;  ///< Σ time
  std::uint64_t wall_ns = 0;
  std::uint64_t process_cpu_ns = 0;
  std::uint64_t caller_cpu_ns = 0;

  void add(const Counters& a, const Counters& b) {
    issued += b.issued - a.issued;
    switchless += b.stats.switchless_calls - a.stats.switchless_calls;
    fallback += b.stats.fallback_calls - a.stats.fallback_calls;
    yields += b.stats.caller_yields - a.stats.caller_yields;
    pool_resets += b.stats.pool_resets - a.stats.pool_resets;
    worker_sleeps += b.stats.worker_sleeps - a.stats.worker_sleeps;
    config_phases += b.config_phases - a.config_phases;
    eexits += b.eexits - a.eexits;
    burned_cycles += b.burned_cycles - a.burned_cycles;
    for (std::size_t i = 0; i < b.occupancy_ns.size() && i < a.occupancy_ns.size(); ++i) {
      const double d = static_cast<double>(b.occupancy_ns[i] - a.occupancy_ns[i]);
      worker_ns += static_cast<double>(i) * d;
      occupancy_ns += d;
    }
    wall_ns += b.wall_ns - a.wall_ns;
    process_cpu_ns += b.process_cpu_ns - a.process_cpu_ns;
  }

  Totals& operator+=(const Totals& o) {
    ops += o.ops;
    issued += o.issued;
    switchless += o.switchless;
    fallback += o.fallback;
    yields += o.yields;
    pool_resets += o.pool_resets;
    worker_sleeps += o.worker_sleeps;
    config_phases += o.config_phases;
    eexits += o.eexits;
    burned_cycles += o.burned_cycles;
    worker_ns += o.worker_ns;
    occupancy_ns += o.occupancy_ns;
    wall_ns += o.wall_ns;
    process_cpu_ns += o.process_cpu_ns;
    caller_cpu_ns += o.caller_cpu_ns;
    return *this;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Measurements of one class of rounds (untraced or traced).
struct Aggregate {
  std::size_t rounds = 0;
  /// One value per round, by metric name.  Reporting the median over
  /// rounds keeps a round that a host stall disturbed from moving a result.
  std::map<std::string, std::vector<double>> per_round;
  std::uint64_t samples[2] = {};  ///< timed ops, by CallKind
  Totals totals;
  std::vector<double> self_us[2];  ///< traced: op self time, by CallKind
  std::vector<double> invoke_us;   ///< traced: core.invoke durations
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  unsigned max_workers = 0;
};

CallKind kind_of(SpanName name) {
  switch (name) {
    case SpanName::kKvGet:
    case SpanName::kSectorRead:
    case SpanName::kFileRead:
    case SpanName::kCallRead:
      return CallKind::kRead;
    default:
      return CallKind::kWrite;
  }
}

void fold_spans(const std::vector<Span>& spans, Aggregate& agg) {
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name == SpanName::kInvoke) {
      agg.invoke_us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    } else {
      agg.self_us[static_cast<int>(kind_of(s.name))].push_back(
          static_cast<double>(self[i]) * 1e-3);
    }
  }
}

/// Spans kept for the end-of-run dump: the first ops of each caller and
/// phase of the first traced round.
constexpr std::size_t kDumpSpansPerPhase = 4'096;
using SpanDump = std::vector<std::vector<Span>>;

// --- One round --------------------------------------------------------------

/// Set-ups timed per round: the last one is measured, the others are torn
/// down at once, so even a workload with few rounds has hundreds of
/// samples, and their median is reported.
constexpr int kSetupsPerRound = 20;

void stop_program(Program& prog) {
  prog.libc.reset();
  prog.enclave.reset();  // stops and joins the backend's threads
  zc::SimFs::instance().clear();
}

void run_round(Workload& wl, CallerPool& pool, bool traced, Aggregate& agg,
               Outcome& outcome, SpanDump* dump) {
  Program prog;
  for (int i = 0; i < kSetupsPerRound; ++i) {
    if (i != 0) {
      wl.close();
      stop_program(prog);
    }
    const std::uint64_t t0 = zc::wall_ns();
    prog = start_program(wl);
    const bool opened = wl.open(prog);
    agg.per_round["setup_s"].push_back(static_cast<double>(zc::wall_ns() - t0) * 1e-9);
    if (!opened) {
      ++outcome.attempted;
      ++outcome.failed;
    }
  }
  if (prog.zc != nullptr) outcome.max_workers = prog.zc->max_workers();

  const std::vector<PhaseKind> phases = wl.phases();
  std::vector<double> latency[2];
  std::vector<double> sojourn;
  std::vector<double> late;
  std::uint64_t kind_wall[2] = {};
  Totals round;
  std::array<std::vector<Span>, kCallers> spans;
  const bool keep = traced && dump != nullptr && dump->empty();
  SpanDump kept;

  for (std::size_t p = 0; p < phases.size(); ++p) {
    std::array<OpLog, kCallers> logs;
    if (traced) {
      for (auto& s : spans) {
        s.clear();
        s.reserve(wl.spans_per_phase());
      }
    }
    const Counters before = read_counters(prog);
    const std::uint64_t origin = before.wall_ns + 1'000'000;
    pool.run([&](unsigned c) {
      trace_into(traced ? &spans[c] : nullptr);
      const std::uint64_t cpu0 = zc::thread_cpu_ns();
      wl.run(prog, p, c, origin, logs[c]);
      logs[c].cpu_ns = zc::thread_cpu_ns() - cpu0;
      trace_into(nullptr);
    });
    const Counters after = read_counters(prog);
    round.add(before, after);

    const std::uint64_t wall = after.wall_ns - before.wall_ns;
    for (int k = 0; k < 2; ++k) {
      const bool has = phases[p] == PhaseKind::kMixed ||
                       static_cast<int>(phases[p]) == k;
      if (has) kind_wall[k] += wall;
    }
    for (OpLog& log : logs) {
      outcome.attempted += log.attempted;
      outcome.failed += log.failed;
      round.ops += log.attempted;
      round.caller_cpu_ns += log.cpu_ns;
      for (int k = 0; k < 2; ++k) {
        latency[k].insert(latency[k].end(), log.latency_us[k].begin(),
                          log.latency_us[k].end());
      }
      sojourn.insert(sojourn.end(), log.sojourn_us.begin(), log.sojourn_us.end());
      late.insert(late.end(), log.late_us.begin(), log.late_us.end());
    }
    if (traced) {
      for (const auto& s : spans) {
        fold_spans(s, agg);
        if (keep) {
          kept.emplace_back(s.begin(),
                            s.begin() + static_cast<std::ptrdiff_t>(std::min(
                                            s.size(), kDumpSpansPerPhase)));
        }
      }
    }
  }

  if (!wl.close()) {
    ++outcome.attempted;
    ++outcome.failed;
  }
  // Every call issued must be accounted as regular, switchless or fallback.
  outcome.failed +=
      accounting_gap(prog.backend->calls_issued(), prog.backend->stats_snapshot());
  stop_program(prog);

  if (keep) *dump = std::move(kept);
  ++agg.rounds;
  auto& r = agg.per_round;
  for (int k = 0; k < 2; ++k) {
    const std::string kind = k == 0 ? "write" : "read";
    agg.samples[k] += latency[k].size();
    r[kind + "_ops_per_s"].push_back(
        ratio(static_cast<double>(latency[k].size()) * 1e9,
              static_cast<double>(kind_wall[k])));
    r[kind + "_p50_us"].push_back(quantile(latency[k], 0.50));
    r[kind + "_p99_us"].push_back(quantile(latency[k], 0.99));
  }
  if (!sojourn.empty()) {
    r["sojourn_p50_us"].push_back(quantile(sojourn, 0.50));
    r["sojourn_p99_us"].push_back(quantile(sojourn, 0.99));
    r["gen.late_p99_us"].push_back(quantile(late, 0.99));
  }
  r["cpu_ns_per_op"].push_back(ratio(static_cast<double>(round.process_cpu_ns),
                                     static_cast<double>(round.ops)));
  r["ops_per_s"].push_back(ratio(static_cast<double>(round.ops) * 1e9,
                                 static_cast<double>(round.wall_ns)));
  agg.totals += round;
}

// --- Layer probes -----------------------------------------------------------

std::size_t probe_iterations(std::size_t bytes) {
  return std::clamp<std::size_t>((std::size_t{8} << 20) / (bytes + 64), 64, 20'000);
}

/// ns per marshal_into + unmarshal_from pair on a frame with `payload`
/// bytes each way (median of batches).
double marshal_probe_ns(std::size_t payload) {
  zc::FreadArgs args;
  std::vector<std::uint8_t> in(payload, 0x5a);
  std::vector<std::uint8_t> out(payload);
  zc::CallDesc desc;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.in_payload = in.data();
  desc.in_size = payload;
  desc.out_payload = out.data();
  desc.out_size = payload;
  std::vector<std::uint8_t> frame(zc::frame_bytes(desc) + 64);
  void* mem = frame.data() + (64 - reinterpret_cast<std::uintptr_t>(frame.data()) % 64);
  const std::size_t n = probe_iterations(payload);
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const std::uint64_t t0 = zc::wall_ns();
    for (std::size_t i = 0; i < n; ++i) {
      const zc::MarshalledCall call = zc::marshal_into(mem, desc);
      zc::unmarshal_from(call, desc);
    }
    batches.push_back(static_cast<double>(zc::wall_ns() - t0) / static_cast<double>(n));
  }
  return median(batches);
}

/// GB/s of the active tlibc memcpy at `bytes` per copy.
double memcpy_probe_gbps(std::size_t bytes) {
  std::vector<std::uint8_t> src(bytes, 0x3c);
  std::vector<std::uint8_t> dst(bytes);
  const std::size_t n = probe_iterations(bytes) * 4;
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const std::uint64_t t0 = zc::wall_ns();
    for (std::size_t i = 0; i < n; ++i) {
      zc::tlibc::active_memcpy(dst.data(), src.data(), bytes);
    }
    const double ns = static_cast<double>(zc::wall_ns() - t0);
    batches.push_back(ratio(static_cast<double>(bytes * n), ns));
  }
  return median(batches);
}

// --- Metrics ----------------------------------------------------------------

MetricValues end_to_end(Aggregate& u) {
  MetricValues m;
  for (const auto& [name, values] : u.per_round) m[name] = median(values);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return m;
}

MetricValues per_layer(Aggregate& u, Aggregate& t, const Workload& wl,
                       std::vector<double>& idle_late) {
  const Totals& c = u.totals;
  const auto issued = static_cast<double>(c.issued);
  const auto ops = static_cast<double>(c.ops);
  const double wall_s = static_cast<double>(c.wall_ns) * 1e-9;
  MetricValues m;
  m["apps.write_self_us.p50"] = quantile(t.self_us[0], 0.50);
  m["apps.read_self_us.p50"] = quantile(t.self_us[1], 0.50);
  m["apps.ocalls_per_op"] = ratio(issued, ops);
  m["core.invoke_us.p50"] = quantile(t.invoke_us, 0.50);
  m["core.invoke_us.p99"] = quantile(t.invoke_us, 0.99);
  m["core.switchless_share"] = ratio(static_cast<double>(c.switchless), issued);
  m["core.fallback_share"] = ratio(static_cast<double>(c.fallback), issued);
  m["core.caller_yields_per_call"] = ratio(static_cast<double>(c.yields), issued);
  m["core.pool_resets_per_kcall"] =
      ratio(static_cast<double>(c.pool_resets) * 1e3, issued);
  m["core.workers_mean"] = ratio(c.worker_ns, c.occupancy_ns);
  m["core.config_phases_per_s"] = ratio(static_cast<double>(c.config_phases), wall_s);
  m["core.worker_sleeps_per_s"] = ratio(static_cast<double>(c.worker_sleeps), wall_s);
  m["sgx.transitions_per_call"] = ratio(static_cast<double>(c.eexits), issued);
  m["sgx.transition_share"] =
      ratio(zc::cycles_to_ns(c.burned_cycles), static_cast<double>(c.caller_cpu_ns));
  m["sgx.marshal_ns"] = marshal_probe_ns(wl.payload_bytes());
  m["tlibc.memcpy_gbps"] = memcpy_probe_gbps(wl.payload_bytes());
  m["cpu.caller_ns_per_op"] = ratio(static_cast<double>(c.caller_cpu_ns), ops);
  m["cpu.backend_ns_per_op"] = ratio(
      static_cast<double>(c.process_cpu_ns) - static_cast<double>(c.caller_cpu_ns), ops);
  m["gen.late_p99_us"] = median(u.per_round["gen.late_p99_us"]);
  m["gen.idle_late_p50_us"] = quantile(idle_late, 0.50);
  m["gen.idle_late_p99_us"] = quantile(idle_late, 0.99);
  for (const char* name : {"write_ops_per_s", "read_ops_per_s", "write_p99_us",
                           "read_p99_us", "sojourn_p50_us", "sojourn_p99_us",
                           "cpu_ns_per_op"}) {
    m[std::string("e2e.") + name] = median(u.per_round[name]);
  }
  const double plain = median(u.per_round["ops_per_s"]);
  m["trace.overhead_pct"] =
      ratio(plain - median(t.per_round["ops_per_s"]), plain) * 100.0;
  return m;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

void write_spans(const RunOptions& opt, const SpanDump& dump, std::string& path) {
  if (opt.out_dir.empty() || dump.empty()) return;
  std::filesystem::create_directories(opt.out_dir);
  path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
         std::to_string(opt.seed) + ".csv";
  std::ofstream f(path);
  f << "thread,index,name,parent,op,start_ns,end_ns\n";
  for (std::size_t i = 0; i < dump.size(); ++i) {
    write_spans_csv(f, static_cast<unsigned>(i), dump[i]);
  }
}

}  // namespace

int run_benchmark(const RunOptions& opt, std::ostream& out) {
  std::unique_ptr<Workload> wl = make_workload(opt.workload, opt.seed);
  if (wl == nullptr) return 2;
  // The whole run, probes and warm-up included, ends within --seconds.
  const auto deadline =
      zc::wall_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);

  const HostInfo host = host_info(opt.git_sha);
  const NoiseProbe noise = ping_pong_probe();

  CallerPool pool(kCallers);
  Outcome outcome;
  Aggregate warmup;
  Aggregate plain;
  Aggregate traced;
  SpanDump dump;

  // Host lateness alone: the open loop's schedule walked with no program
  // in the process, reported beside the lateness under load.
  std::array<std::vector<double>, kCallers> idle_late;
  const std::uint64_t idle_origin = zc::wall_ns() + 1'000'000;
  pool.run([&](unsigned c) { wl->calibrate(c, idle_origin, idle_late[c]); });
  std::vector<double> idle = idle_late[0];
  for (unsigned c = 1; c < kCallers; ++c) {
    idle.insert(idle.end(), idle_late[c].begin(), idle_late[c].end());
  }

  // One discarded round lets lazy set-up (TSC calibration, first-touch
  // page faults) finish before anything is timed; its checks still count.
  run_round(*wl, pool, false, warmup, outcome, nullptr);
  // Rounds run while the next one, taking as long as the last, still ends
  // by the deadline; at least one of each kind the run reports runs.
  for (std::size_t r = 0;; ++r) {
    const bool trace_round = opt.trace && r % 2 == 1;
    const std::uint64_t t0 = zc::wall_ns();
    run_round(*wl, pool, trace_round, trace_round ? traced : plain, outcome,
              &dump);
    const std::uint64_t now = zc::wall_ns();
    const bool enough = plain.rounds > 0 && (!opt.trace || traced.rounds > 0);
    if (enough && now + (now - t0) > deadline) break;
  }

  std::vector<std::string> flags;
  if (kCallers + outcome.max_workers > host.nproc) flags.push_back("oversubscribed");
  if (noise.unstable) flags.push_back("unstable_host");
  std::string spans_path;
  MetricValues values;
  if (opt.trace) {
    values = per_layer(plain, traced, *wl, idle);
    write_spans(opt, dump, spans_path);
  } else {
    values = end_to_end(plain);
  }

  std::string flag_list;
  for (const std::string& f : flags) flag_list += (flag_list.empty() ? "" : ", ") + quoted(f);
  out << "{\"zcbench\": {\"workload\": " << quoted(opt.workload)
      << ", \"seed\": " << opt.seed << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"spec\": \"zc\", \"callers\": " << kCallers
      << ", \"max_workers\": " << outcome.max_workers
      << ", \"rounds\": {\"untraced\": " << plain.rounds
      << ", \"traced\": " << traced.rounds << "}"
      << ", \"samples\": {\"setup\": " << plain.per_round["setup_s"].size()
      << ", \"write\": " << plain.samples[0]
      << ", \"read\": " << plain.samples[1]
      << ", \"self\": " << traced.self_us[0].size() + traced.self_us[1].size()
      << ", \"invoke\": " << traced.invoke_us.size() << "}"
      << ", \"host\": {\"nproc\": " << host.nproc
      << ", \"cpu\": " << quoted(host.cpu_model)
      << ", \"kernel\": " << quoted(host.kernel)
      << ", \"compiler\": " << quoted(host.compiler)
      << ", \"build_type\": " << quoted(host.build_type)
      << ", \"git_sha\": " << quoted(host.git_sha) << "}"
      << ", \"noise\": {\"rtt_ns_median\": " << json_number(noise.rtt_ns_median)
      << ", \"rtt_ns_min\": " << json_number(noise.rtt_ns_min)
      << ", \"rtt_ns_max\": " << json_number(noise.rtt_ns_max) << "}"
      << ", \"flags\": [" << flag_list << "]"
      << ", \"spans_file\": " << quoted(spans_path) << "}}\n";

  const bool correct = outcome.failed == 0;
  out << (opt.trace ? result_json(correct, outcome.attempted, outcome.failed,
                                  values, kPerLayer)
                    : result_json(correct, outcome.attempted, outcome.failed,
                                  values, kEndToEnd))
      << std::endl;
  return 0;
}

}  // namespace zcbench
