// Replay equivalence across the backend lattice: replaying the checked-in
// golden trace must produce the same result digest and call count under
// every registry family — including composed inner= planes and the ecall
// direction — and two replays of the same (trace, spec) must emit
// byte-identical deterministic JSONL rows.  The spec list is derived from
// the registry, so a newly registered family is replay-checked the moment
// it exists.
//
// The golden trace (tests/data/golden.trace) was synthesized once with
// synthesize_caller_churn:
//   seed=0x601de4, duration_ms=50, base_rate_hz=16000, callers=4,
//   generations=3, work_ns=2000, in/out=64/64,
//   names={trace_read, trace_write, trace_g}
// and its digest/count are pinned below.  It is the v1-format compatibility
// anchor: if the codec ever stops reading these bytes, that is a format
// break, not a test to update.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/backend_registry.hpp"
#include "tlibc/memcpy.hpp"
#include "workload/replay.hpp"
#include "workload/trace.hpp"

namespace zc {
namespace {

using workload::ReplayConfig;
using workload::ReplayMode;
using workload::ReplayResult;
using workload::Trace;

constexpr std::uint64_t kGoldenDigest = 9268081673815080785ull;
constexpr std::size_t kGoldenCalls = 791;
constexpr unsigned kGoldenCallers = 12;

Trace golden() { return Trace::load(ZC_TESTS_DATA_DIR "/golden.trace"); }

ReplayConfig replay_config(const std::string& spec) {
  ReplayConfig cfg;
  cfg.backend_spec = spec;
  cfg.work_scale = 0;     // differential testing wants the call mix, not
                          // 50 ms of burned pauses per replay
  cfg.time_scale = 0.02;  // open-loop replays run the schedule compressed
  cfg.sim.tes_cycles = 200;
  cfg.sim.logical_cpus = 8;
  return cfg;
}

/// The replay spec for each registry key: small planes so the switchless
/// machinery is exercised; intel pins its static set to the golden names.
std::string replay_spec(const std::string& key) {
  if (key == "intel") return "intel:sl=trace_read,trace_write;workers=1";
  if (key == "hotcalls") return "hotcalls:workers=1";
  if (key == "zc") return "zc:workers=2;quantum_us=5000";
  if (key == "zc_sharded") return "zc_sharded:shards=2;workers=1";
  if (key == "zc_batched") return "zc_batched:workers=1;batch=4;flush_us=100";
  if (key == "zc_async") return "zc_async:workers=1;queue=8";
  if (key == "record") return "record:inner=(zc:workers=1)";
  return key;
}

std::vector<std::string> lattice_specs() {
  std::vector<std::string> specs;
  for (const std::string& key : BackendRegistry::instance().keys()) {
    specs.push_back(replay_spec(key));
  }
  // Depth-2 composition (the acceptance bar names one) and the trusted-
  // worker plane: replay maps the whole trace onto whichever boundary the
  // spec serves.
  specs.push_back("zc_sharded:shards=2;inner=(zc_batched:workers=1;batch=4)");
  specs.push_back("zc:direction=ecall;workers=1");
  return specs;
}

TEST(ReplayEquivalence, GoldenTracePinsItsDigestAndShape) {
  const Trace trace = golden();
  EXPECT_EQ(trace.digest(), kGoldenDigest);
  EXPECT_EQ(trace.records.size(), kGoldenCalls);
  EXPECT_EQ(trace.caller_count(), kGoldenCallers);
  EXPECT_EQ(trace.seed, 0x601de4u);
  ASSERT_EQ(trace.names.size(), 3u);
  EXPECT_EQ(trace.names[0], "trace_read");
  // Round trip: the file bytes are the canonical encoding.
  EXPECT_EQ(Trace::decode(trace.encode().data(), trace.encode().size()),
            trace);
}

TEST(ReplayEquivalence, EveryRegistryFamilyHasAReplaySpec) {
  // If this fails a new family was registered without extending
  // replay_spec(); the default bare key keeps it covered, so this only
  // pins that the count keeps growing with the registry.
  EXPECT_GE(BackendRegistry::instance().keys().size(), 8u);
  for (const std::string& spec : lattice_specs()) {
    EXPECT_NO_THROW(BackendRegistry::instance().validate(spec)) << spec;
  }
}

TEST(ReplayEquivalence, IdenticalDigestsAcrossTheWholeLattice) {
  const Trace trace = golden();
  ReplayResult baseline;
  bool have_baseline = false;
  for (const std::string& spec : lattice_specs()) {
    SCOPED_TRACE(spec);
    const ReplayResult r = replay_trace(trace, replay_config(spec));
    EXPECT_EQ(r.calls, kGoldenCalls);
    EXPECT_EQ(r.trace_digest, kGoldenDigest);
    EXPECT_EQ(r.regular + r.switchless + r.fallbacks, r.calls);
    if (!have_baseline) {
      baseline = r;
      have_baseline = true;
      continue;
    }
    EXPECT_EQ(r.result_digest, baseline.result_digest);
  }
}

TEST(ReplayEquivalence, IdenticalDigestsUnderEveryMemcpyKind) {
  // The memcpy that marshals each call is invisible to the caller: the
  // default zc copy, the SDK baseline and the streaming kind agree.
  const Trace trace = golden();
  const std::uint64_t expected =
      replay_trace(trace, replay_config("no_sl")).result_digest;
  for (const tlibc::MemcpyKind kind :
       {tlibc::MemcpyKind::kIntel, tlibc::MemcpyKind::kZc,
        tlibc::MemcpyKind::kZcNt}) {
    const tlibc::ScopedMemcpy guard(kind);
    for (const std::string& spec : {std::string("no_sl"), replay_spec("zc")}) {
      SCOPED_TRACE(spec + " memcpy=" + tlibc::to_string(kind));
      const ReplayResult r = replay_trace(trace, replay_config(spec));
      EXPECT_EQ(r.calls, kGoldenCalls);
      EXPECT_EQ(r.result_digest, expected);
    }
  }
}

TEST(ReplayEquivalence, RerunsEmitByteIdenticalDeterministicRows) {
  const Trace trace = golden();
  for (const std::string& spec :
       {std::string("no_sl"), replay_spec("zc"),
        std::string("zc_sharded:shards=2;inner=(zc_batched:workers=1;"
                    "batch=4)")}) {
    SCOPED_TRACE(spec);
    const ReplayResult a = replay_trace(trace, replay_config(spec));
    const ReplayResult b = replay_trace(trace, replay_config(spec));
    EXPECT_EQ(a.deterministic_json(), b.deterministic_json());
    EXPECT_EQ(a.result_digest, b.result_digest);
  }
}

TEST(ReplayEquivalence, OpenLoopAgreesWithClosedLoop) {
  const Trace trace = golden();
  const ReplayResult closed =
      replay_trace(trace, replay_config("zc:workers=2"));
  ReplayConfig open = replay_config("zc:workers=2");
  open.mode = ReplayMode::kOpenLoop;
  const ReplayResult r = replay_trace(trace, open);
  EXPECT_EQ(r.result_digest, closed.result_digest);
  EXPECT_EQ(r.calls, closed.calls);
}

}  // namespace
}  // namespace zc
