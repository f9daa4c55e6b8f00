// Tests for the benchmark's own pieces: seeded inputs, output checks,
// span self-time arithmetic and the metric catalogue.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "checks.hpp"
#include "inputs.hpp"
#include "metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace zcbench {
namespace {

// --- Seeded inputs ----------------------------------------------------------

TEST(Inputs, SameSeedSameKvInputs) {
  const KvInputs a = make_kv_inputs(7, 0, 512);
  const KvInputs b = make_kv_inputs(7, 0, 512);
  EXPECT_EQ(a.keys, b.keys);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.put_order, b.put_order);
  EXPECT_EQ(a.get_order, b.get_order);
}

TEST(Inputs, DifferentSeedOrCallerDifferentKvInputs) {
  const KvInputs a = make_kv_inputs(7, 0, 512);
  EXPECT_NE(a.keys, make_kv_inputs(8, 0, 512).keys);
  EXPECT_NE(a.put_order, make_kv_inputs(8, 0, 512).put_order);
  EXPECT_NE(a.keys, make_kv_inputs(7, 1, 512).keys);
}

TEST(Inputs, KvKeysDistinctAndOrdersArePermutations) {
  const KvInputs in = make_kv_inputs(3, 1, 4096);
  std::vector<std::uint64_t> keys = in.keys;
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
  for (const auto* order : {&in.put_order, &in.get_order}) {
    std::vector<std::uint32_t> sorted = *order;
    std::sort(sorted.begin(), sorted.end());
    for (std::uint32_t i = 0; i < sorted.size(); ++i) ASSERT_EQ(sorted[i], i);
  }
}

TEST(Inputs, SameSeedSamePlaintext) {
  EXPECT_EQ(make_blocks(11, 2, 0, 4, 4096).bytes,
            make_blocks(11, 2, 0, 4, 4096).bytes);
  EXPECT_NE(make_blocks(11, 2, 0, 4, 4096).bytes,
            make_blocks(12, 2, 0, 4, 4096).bytes);
}

TEST(Inputs, SameSeedSameArrivalSchedule) {
  const PhasedCurve curve;
  const PhasedInputs a = make_phased_inputs(5, 0, curve, 2'000);
  const PhasedInputs b = make_phased_inputs(5, 0, curve, 2'000);
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].due_ns, b.arrivals[i].due_ns);
    EXPECT_EQ(a.arrivals[i].nonce, b.arrivals[i].nonce);
    EXPECT_EQ(a.arrivals[i].work_ns, b.arrivals[i].work_ns);
    EXPECT_EQ(a.arrivals[i].kind, b.arrivals[i].kind);
  }
  EXPECT_EQ(a.payloads, b.payloads);

  const PhasedInputs c = make_phased_inputs(6, 0, curve, 2'000);
  const bool same_times =
      c.arrivals.size() == a.arrivals.size() &&
      std::equal(a.arrivals.begin(), a.arrivals.end(), c.arrivals.begin(),
                 [](const Arrival& x, const Arrival& y) {
                   return x.due_ns == y.due_ns;
                 });
  EXPECT_FALSE(same_times);
}

TEST(Inputs, ArrivalsFollowTheCurve) {
  PhasedCurve curve;
  const std::vector<double> rates = curve.rates_hz();
  ASSERT_EQ(rates.size(), 9u);
  EXPECT_EQ(rates.front(), curve.base_hz);
  EXPECT_EQ(rates[3], curve.base_hz * 8);
  EXPECT_EQ(rates.back(), curve.base_hz);

  const PhasedInputs in = make_phased_inputs(9, 1, curve, 2'000);
  std::vector<std::size_t> per_period(rates.size());
  std::uint64_t last = 0;
  for (const Arrival& a : in.arrivals) {
    ASSERT_GE(a.due_ns, last);  // due times never go back
    last = a.due_ns;
    EXPECT_GE(a.work_ns, 1'000u);
    EXPECT_LE(a.work_ns, 3'000u);
    ++per_period[static_cast<std::size_t>(a.due_ns / (curve.period_s * 1e9))];
  }
  for (std::size_t p = 0; p < rates.size(); ++p) {
    const double expected = rates[p] * curve.period_s;
    EXPECT_NEAR(static_cast<double>(per_period[p]), expected, 0.1 * expected);
  }
}

// --- Output checks ----------------------------------------------------------

TEST(Checks, CorruptedBlockIsRejected) {
  const BlockInputs in = make_blocks(1, 3, 0, 2, 4096);
  std::vector<std::uint8_t> got(in.block(1), in.block(1) + 4096);
  EXPECT_TRUE(block_matches(got.data(), in.block(1), 4096));
  got[4095] ^= 1;
  EXPECT_FALSE(block_matches(got.data(), in.block(1), 4096));
  EXPECT_FALSE(block_matches(in.block(0), in.block(1), 4096));
}

TEST(Checks, PhasedWriteCallWithWrongDigestIsRejected) {
  const PhasedInputs in = make_phased_inputs(2, 0, PhasedCurve{}, 2'000);
  std::size_t i = 0;
  while (in.arrivals[i].kind != CallKind::kWrite) ++i;
  const Arrival& a = in.arrivals[i];
  const std::uint64_t good = call_digest(a.nonce, in.payload(i), 64);
  EXPECT_TRUE(phased_call_ok(a, in.payload(i), nullptr, good));
  EXPECT_FALSE(phased_call_ok(a, in.payload(i), nullptr, good ^ 1));
}

TEST(Checks, PhasedReadCallWithCorruptReplyIsRejected) {
  const PhasedInputs in = make_phased_inputs(2, 0, PhasedCurve{}, 2'000);
  std::size_t i = 0;
  while (in.arrivals[i].kind != CallKind::kRead) ++i;
  const Arrival& a = in.arrivals[i];
  std::uint8_t reply[64];
  fill_reply(a.nonce, reply, 64);
  const std::uint64_t digest = call_digest(a.nonce, reply, 64);
  EXPECT_TRUE(phased_call_ok(a, in.payload(i), reply, digest));
  EXPECT_FALSE(phased_call_ok(a, in.payload(i), reply, digest + 1));
  reply[17] ^= 0x80;
  EXPECT_FALSE(phased_call_ok(a, in.payload(i), reply,
                              call_digest(a.nonce, reply, 64)));
}

TEST(Checks, RunDigestDetectsAMissingCall) {
  const PhasedInputs in = make_phased_inputs(4, 1, PhasedCurve{}, 2'000);
  PhasedInputs fewer = in;
  fewer.arrivals.pop_back();
  fewer.payloads.resize(fewer.payloads.size() - PhasedInputs::kPayloadBytes);
  EXPECT_EQ(expected_digest(in), expected_digest(in));
  EXPECT_NE(expected_digest(in), expected_digest(fewer));
}

TEST(Checks, AccountingGapCountsMissingAndSurplusCalls) {
  zc::BackendStatsSnapshot s;
  s.regular_calls = 3;
  s.switchless_calls = 10;
  s.fallback_calls = 2;
  EXPECT_EQ(accounting_gap(15, s), 0u);
  EXPECT_EQ(accounting_gap(16, s), 1u);
  EXPECT_EQ(accounting_gap(12, s), 3u);
}

TEST(Checks, OpenLoopCallIsTimedFromItsDueTime) {
  OpLog log;
  // Due at 1 µs, issued 200 ns late, done at 3 µs.
  log.record_due(CallKind::kRead, 1'000, 1'200, 3'000, true);
  ASSERT_EQ(log.sojourn_us.size(), 1u);
  EXPECT_DOUBLE_EQ(log.sojourn_us[0], 2.0);
  EXPECT_DOUBLE_EQ(log.late_us[0], 0.2);
  ASSERT_EQ(log.latency_us[1].size(), 1u);
  EXPECT_DOUBLE_EQ(log.latency_us[1][0], 1.8);
  EXPECT_TRUE(log.latency_us[0].empty());
  log.record_due(CallKind::kWrite, 1'000, 1'000, 2'000, false);
  EXPECT_EQ(log.attempted, 2u);
  EXPECT_EQ(log.failed, 1u);
}

TEST(Checks, ClosedLoopOpHasNoSojourn) {
  OpLog log;
  log.record(CallKind::kWrite, 1'000, 4'000, true);
  EXPECT_DOUBLE_EQ(log.latency_us[0][0], 3.0);
  EXPECT_TRUE(log.sojourn_us.empty());
  EXPECT_TRUE(log.late_us.empty());
}

// --- Span self times --------------------------------------------------------

TEST(Trace, SelfTimeSubtractsDirectChildren) {
  // op [0,100) with invoke children [10,30) and [50,90); the second child
  // has a grandchild [60,70) that must not be subtracted from the op.
  const std::vector<Span> spans = {
      {SpanName::kKvPut, kNoParent, 1, 0, 100},
      {SpanName::kInvoke, 0, 1, 10, 30},
      {SpanName::kInvoke, 0, 1, 50, 90},
      {SpanName::kInvoke, 2, 1, 60, 70},
  };
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[0], 40u);  // 100 - 20 - 40
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 30u);  // 40 - 10
  EXPECT_EQ(self[3], 10u);
}

TEST(Trace, OverlappingAndOverhangingChildrenCountOnce) {
  const std::vector<Span> spans = {
      {SpanName::kSectorRead, kNoParent, 1, 100, 200},
      {SpanName::kInvoke, 0, 1, 110, 150},
      {SpanName::kInvoke, 0, 1, 140, 160},  // overlaps the first child
      {SpanName::kInvoke, 0, 1, 190, 230},  // runs past its parent
      {SpanName::kFileRead, kNoParent, 2, 300, 310},
  };
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100u - 50u - 10u);
  EXPECT_EQ(self[4], 10u);  // no children
}

TEST(Trace, RecorderBuildsTheTree) {
  std::vector<Span> buf;
  trace_into(&buf);
  begin_op();
  {
    const SpanScope op(SpanName::kKvGet);
    { const SpanScope a(SpanName::kInvoke); }
    { const SpanScope b(SpanName::kInvoke); }
  }
  begin_op();
  { const SpanScope op(SpanName::kKvPut); }
  trace_into(nullptr);
  { const SpanScope ignored(SpanName::kInvoke); }

  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0].parent, kNoParent);
  EXPECT_EQ(buf[1].parent, 0u);
  EXPECT_EQ(buf[2].parent, 0u);
  EXPECT_EQ(buf[3].parent, kNoParent);
  EXPECT_EQ(buf[0].op, buf[2].op);
  EXPECT_NE(buf[0].op, buf[3].op);
  for (const Span& s : buf) EXPECT_GE(s.end_ns, s.start_ns);
}

// --- Metric catalogue -------------------------------------------------------

TEST(Metrics, EveryNameIsValidAndUnique) {
  std::vector<std::string> names;
  for (const MetricDef& d : kEndToEnd) names.push_back(d.name);
  for (const MetricDef& d : kPerLayer) names.push_back(d.name);
  for (const std::string& n : names) EXPECT_TRUE(valid_metric_name(n)) << n;
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

TEST(Metrics, NameValidation) {
  EXPECT_TRUE(valid_metric_name("core.invoke_us.p99"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(Metrics, QuantileIsNearestRank) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(quantile(v, 0.5), 3);
  EXPECT_EQ(quantile(v, 0.99), 5);
  EXPECT_EQ(quantile(v, 0.0), 1);
  std::vector<double> empty;
  EXPECT_EQ(quantile(empty, 0.5), 0);
}

TEST(Metrics, ResultLineHasExactlyTheContractKeys) {
  MetricValues values = {{"setup_s", 0.25}};
  const std::string line = result_json(true, 10, 0, values, kEndToEnd);
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
                       "\"metrics\": {\"setup_s\": {\"value\": 0.25, "
                       "\"unit\": \"s\"}",
                       0),
            0u);
}

}  // namespace
}  // namespace zcbench
