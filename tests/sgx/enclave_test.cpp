#include "sgx/enclave.hpp"

#include <gtest/gtest.h>

#include <new>
#include <stdexcept>

#include "common/cycles.hpp"
#include "core/backend_registry.hpp"

namespace zc {
namespace {

SimConfig cheap_config() {
  SimConfig cfg;
  cfg.tes_cycles = 2'000;  // keep tests fast
  return cfg;
}

struct AddArgs {
  int a = 0;
  int b = 0;
  int sum = 0;
};

TEST(Enclave, CreateInstallsRegularBackendByDefault) {
  auto enclave = Enclave::create(cheap_config());
  EXPECT_STREQ(enclave->backend().name(), "no_sl");
  EXPECT_EQ(enclave->backend().active_workers(), 0u);
}

TEST(Enclave, EcallChargesOneRoundTrip) {
  auto enclave = Enclave::create(cheap_config());
  const int out = enclave->ecall([] { return 7; });
  EXPECT_EQ(out, 7);
  EXPECT_EQ(enclave->transitions().ecall_count(), 1u);
}

TEST(Enclave, TypedOcallDispatchesAndReturns) {
  auto enclave = Enclave::create(cheap_config());
  const auto id =
      enclave->ocalls().register_fn("add", [](MarshalledCall& call) {
        auto* a = static_cast<AddArgs*>(call.args);
        a->sum = a->a + a->b;
      });
  AddArgs args;
  args.a = 20;
  args.b = 22;
  const CallPath path = enclave->ocall(id, args);
  EXPECT_EQ(path, CallPath::kRegular);
  EXPECT_EQ(args.sum, 42);
  EXPECT_EQ(enclave->transitions().eexit_count(), 1u);
  EXPECT_EQ(enclave->transitions().eenter_count(), 1u);
}

TEST(Enclave, RegularOcallBurnsTransitionCycles) {
  SimConfig cfg = cheap_config();
  cfg.tes_cycles = 100'000;
  auto enclave = Enclave::create(cfg);
  const auto id = enclave->ocalls().register_fn("nop", [](MarshalledCall&) {});
  AddArgs args;
  const std::uint64_t c0 = rdtsc();
  enclave->ocall(id, args);
  EXPECT_GE(rdtsc() - c0, 100'000u);
}

TEST(Enclave, OcallInPayloadReachesHandler) {
  auto enclave = Enclave::create(cheap_config());
  std::string seen;
  const auto id =
      enclave->ocalls().register_fn("sink", [&seen](MarshalledCall& call) {
        seen.assign(static_cast<const char*>(call.payload),
                    call.payload_size);
      });
  AddArgs args;
  const std::string data = "hello-enclave";
  enclave->ocall_in(id, args, data.data(), data.size());
  EXPECT_EQ(seen, data);
}

TEST(Enclave, OcallOutPayloadComesBack) {
  auto enclave = Enclave::create(cheap_config());
  const auto id =
      enclave->ocalls().register_fn("fill", [](MarshalledCall& call) {
        auto* p = static_cast<char*>(call.payload);
        for (std::size_t i = 0; i < call.payload_size; ++i) p[i] = 'x';
      });
  AddArgs args;
  std::vector<char> buf(64, '\0');
  enclave->ocall_out(id, args, buf.data(), buf.size());
  for (char c : buf) EXPECT_EQ(c, 'x');
}

TEST(Enclave, BackendStatsCountRegularCalls) {
  auto enclave = Enclave::create(cheap_config());
  const auto id = enclave->ocalls().register_fn("nop", [](MarshalledCall&) {});
  AddArgs args;
  for (int i = 0; i < 5; ++i) enclave->ocall(id, args);
  EXPECT_EQ(enclave->backend().stats().regular_calls.load(), 5u);
  EXPECT_EQ(enclave->backend().stats().total_calls(), 5u);
}

// A handler that throws still re-enters the enclave: the regular path
// (no_sl, and zc's fallback with no workers) charges EENTER on the way out
// of the dispatch, so the transition counts stay paired.
TEST(Enclave, ThrowingHandlerKeepsTransitionsPaired) {
  for (const char* spec : {"no_sl", "zc:workers=0;scheduler=off"}) {
    SCOPED_TRACE(spec);
    auto enclave = Enclave::create(cheap_config());
    install_backend_spec(*enclave, spec);
    const auto id = enclave->ocalls().register_fn(
        "boom", [](MarshalledCall&) { throw std::runtime_error("boom"); });
    AddArgs args;
    EXPECT_THROW(enclave->ocall(id, args), std::runtime_error);
    EXPECT_EQ(enclave->transitions().eexit_count(), 1u);
    EXPECT_EQ(enclave->transitions().eenter_count(),
              enclave->transitions().eexit_count());
    EXPECT_EQ(enclave->transitions().burned_cycles(),
              enclave->transitions().tes_cycles());
  }
}

TEST(Enclave, SetBackendNullRestoresRegular) {
  auto enclave = Enclave::create(cheap_config());
  enclave->set_backend(nullptr);
  EXPECT_STREQ(enclave->backend().name(), "no_sl");
}

TEST(EnclaveHeap, TracksUsageAndPeak) {
  auto enclave = Enclave::create(cheap_config());
  enclave->trusted_alloc(1000);
  enclave->trusted_alloc(500);
  EXPECT_EQ(enclave->trusted_heap_used(), 1500u);
  enclave->trusted_free(700);
  EXPECT_EQ(enclave->trusted_heap_used(), 800u);
  EXPECT_EQ(enclave->trusted_heap_peak(), 1500u);
}

TEST(EnclaveHeap, ThrowsOnHeapExhaustion) {
  SimConfig cfg = cheap_config();
  cfg.enclave_heap_bytes = 1024;
  auto enclave = Enclave::create(cfg);
  enclave->trusted_alloc(1024);
  EXPECT_THROW(enclave->trusted_alloc(1), std::bad_alloc);
}

TEST(EnclaveHeap, FreeBelowZeroClampsToZero) {
  auto enclave = Enclave::create(cheap_config());
  enclave->trusted_alloc(10);
  enclave->trusted_free(100);
  EXPECT_EQ(enclave->trusted_heap_used(), 0u);
}

TEST(EnclaveHeap, ChargesEpcFaultsBeyondUsableEpc) {
  SimConfig cfg = cheap_config();
  cfg.epc_usable_bytes = 8192;
  cfg.enclave_heap_bytes = 1 << 20;
  cfg.epc_page_fault_cycles = 1'000;
  auto enclave = Enclave::create(cfg);
  enclave->trusted_alloc(8192);
  EXPECT_EQ(enclave->epc_faults(), 0u);
  enclave->trusted_alloc(4096);  // one page over
  EXPECT_EQ(enclave->epc_faults(), 1u);
  enclave->trusted_alloc(8192);  // two more pages
  EXPECT_EQ(enclave->epc_faults(), 3u);
}

TEST(EnclaveHeap, DefaultBudgetsMatchPaperSetup) {
  SimConfig cfg;
  EXPECT_EQ(cfg.enclave_heap_bytes, std::size_t{1} << 30);  // 1 GB heap
  // 93.5 MB usable EPC (to within rounding of the constant).
  EXPECT_NEAR(static_cast<double>(cfg.epc_usable_bytes), 93.5 * 1024 * 1024,
              5.0 * 1024 * 1024);
  EXPECT_EQ(cfg.logical_cpus, 8u);
}

TEST(CallPathNames, AreStable) {
  EXPECT_STREQ(to_string(CallPath::kRegular), "regular");
  EXPECT_STREQ(to_string(CallPath::kSwitchless), "switchless");
  EXPECT_STREQ(to_string(CallPath::kFallback), "fallback");
}

}  // namespace
}  // namespace zc
