// Functional equivalence across backends: the same application run must
// produce identical results under every registered backend — no_sl, Intel
// switchless, HotCalls and ZC may only differ in *how* ocalls execute,
// never in what they do.  The parameter list is derived from the registry,
// so a newly registered backend is equivalence-checked automatically.
#include <gtest/gtest.h>

#include "../test_util.hpp"
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <thread>
#include <vector>

#include "apps/crypto/file_crypto.hpp"
#include "common/cycles.hpp"
#include "apps/kissdb/kissdb.hpp"
#include "core/backend_registry.hpp"
#include "tlibc/memcpy.hpp"
#include "workload/harness.hpp"

namespace zc {
namespace {

// The equivalence spec for each registry key: small quanta / full static
// sets so the switchless paths are actually exercised.  Unknown keys run
// with their defaults, so future backends are covered the moment they are
// registered.
std::string equivalence_spec(const std::string& key) {
  if (key == "intel") return "intel:sl=all;workers=2";
  if (key == "zc") return "zc:quantum_us=5000";
  if (key == "hotcalls") return "hotcalls:workers=2";
  if (key == "zc_sharded") return "zc_sharded:shards=2;workers=1";
  if (key == "zc_batched") return "zc_batched:workers=2;batch=2;flush_us=100";
  // A tiny completion table so queue-full backpressure fallbacks are part
  // of what equivalence covers.
  if (key == "zc_async") return "zc_async:workers=2;queue=4";
  return key;
}

std::vector<std::string> all_backend_specs() {
  std::vector<std::string> specs;
  for (const auto& key : BackendRegistry::instance().keys()) {
    specs.push_back(equivalence_spec(key));
  }
  // Load-aware variants beyond the per-key defaults: least_loaded routing
  // with bounded stealing (1 worker per shard so steals actually happen)
  // and the feedback-adapted flush window (short quantum so it re-decides
  // mid-run).  Equivalence must hold however calls are routed or flushed.
  specs.push_back(
      "zc_sharded:shards=2;workers=1;scheduler=off;policy=least_loaded;"
      "steal=on");
  specs.push_back("zc_batched:workers=2;batch=2;flush=feedback;quantum_us=2000");
  // Composed planes (nested inner= specs): the router over batched and
  // async shards, and the affinity_load/max_load routing additions.
  // However the lattice routes, batches or queues, results must be
  // identical.
  specs.push_back("zc_sharded:shards=2;inner=(zc_batched:workers=1;batch=4)");
  specs.push_back("zc_sharded:shards=2;inner=(zc_async:workers=1;queue=8)");
  specs.push_back(
      "zc_sharded:shards=2;workers=1;scheduler=off;policy=affinity_load;"
      "load_threshold=1;steal=max_load");
  // Sleeping blocked-caller gates (futex with condvar fallback off Linux):
  // the wait policy may change who sleeps, never what calls compute.
  specs.push_back("zc:scheduler=off;workers=2;spin_us=0;wait=futex");
  // The MPSC submit ring and coalesced flush wakes, each against its
  // table/per-slot twin above: the submit plane and the wake shape may
  // change who queues where and who wakes whom, never what calls compute.
  specs.push_back("zc_batched:workers=2;batch=2;flush_us=100;ring=on");
  specs.push_back(
      "zc_batched:workers=2;batch=4;flush_us=100;ring=on;coalesce=on;"
      "wait=futex;spin_us=0");
  specs.push_back("zc_async:workers=2;queue=4;ring=on");
  specs.push_back("zc_async:workers=2;queue=8;ring=on;coalesce=on");
  specs.push_back("zc_async:workers=2;queue=8;coalesce=on");
  // And composed through the router, where each shard runs its own ring.
  specs.push_back(
      "zc_sharded:shards=2;inner=(zc_batched:workers=1;batch=4;ring=on;"
      "coalesce=on;wait=futex)");
  specs.push_back(
      "zc_sharded:shards=2;inner=(zc_async:workers=1;queue=8;ring=on;"
      "coalesce=on)");
  // The large-payload data plane: size-classed slab frames and the
  // single-copy discipline.  copy=single switches the differential driver
  // onto the in-place producer/consumer path, whose digests must match the
  // double-copy baseline bit for bit.
  specs.push_back("zc:workers=2;pool=slab");
  specs.push_back("zc:workers=2;pool=slab;copy=single");
  specs.push_back(
      "zc_batched:workers=2;batch=2;flush_us=100;pool=slab;copy=single");
  specs.push_back("zc_async:workers=2;queue=4;pool=slab;copy=single");
  specs.push_back(
      "zc_sharded:shards=2;inner=(zc:workers=1;pool=slab;copy=single)");
  return specs;
}

// Trusted-worker twins of the single-copy data-plane specs above.
const char* kSingleCopyEcallSpecs[] = {
    "zc:direction=ecall;scheduler=off;workers=1;pool=slab;copy=single",
    "zc_batched:direction=ecall;workers=1;batch=2;flush_us=100;pool=slab;"
    "copy=single",
    "zc_async:direction=ecall;workers=1;queue=4;pool=slab;copy=single",
};

// Composed ecall-plane specs checked on top of the per-key ecall variants
// (the trusted-worker twins of the composed ocall specs above).
const char* kComposedEcallSpecs[] = {
    "zc_sharded:direction=ecall;shards=2;inner=(zc_batched:workers=1;"
    "batch=4)",
    "zc_sharded:direction=ecall;shards=2;inner=(zc_async:workers=1;"
    "queue=8)",
};

// The ecall-plane twin of equivalence_spec(); empty string = the backend
// has no trusted-worker mode (it is skipped, and the coverage test pins
// the list of such exemptions).
std::string ecall_equivalence_spec(const std::string& key) {
  if (key == "no_sl") return "no_sl:direction=ecall";
  if (key == "intel") return "intel:direction=ecall;sl=all;workers=1";
  if (key == "zc") return "zc:direction=ecall;scheduler=off;workers=1";
  if (key == "zc_sharded") {
    return "zc_sharded:direction=ecall;shards=2;scheduler=off;workers=1";
  }
  if (key == "zc_batched") {
    return "zc_batched:direction=ecall;workers=1;batch=2;flush_us=100";
  }
  if (key == "zc_async") return "zc_async:direction=ecall;workers=1;queue=4";
  if (key == "hotcalls") return "";  // untrusted responders only
  // Future backends: try the generic direction option; create() rejects it
  // cleanly if unsupported, which fails the test and forces a decision.
  return key + ":direction=ecall";
}

TEST(BackendEquivalenceCoverage, EveryRegistryKeyIsChecked) {
  // INSTANTIATE below iterates all_backend_specs(); this guards that the
  // list really spans the registry (incl. hotcalls and the sharded/batched
  // call planes).
  const auto keys = BackendRegistry::instance().keys();
  EXPECT_GE(keys.size(), 7u);
  for (const char* key : {"no_sl", "intel", "hotcalls", "zc", "zc_sharded",
                          "zc_batched", "zc_async"}) {
    EXPECT_TRUE(std::find(keys.begin(), keys.end(), key) != keys.end())
        << key;
  }
}

class BackendEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, tlibc::MemcpyKind>> {
 protected:
  void SetUp() override {
    SimConfig cfg;
    cfg.tes_cycles = 200;
    enclave_ = Enclave::create(cfg);
    libc_ = std::make_unique<EnclaveLibc>(*enclave_);
    base_ = testutil::unique_tmp_path("zc_equiv");
    install_backend_spec(*enclave_, std::get<0>(GetParam()));
  }
  void TearDown() override {
    enclave_->set_backend(nullptr);  // join worker threads promptly
    for (const auto& suffix : {".db", ".plain", ".cipher", ".out"}) {
      std::filesystem::remove(base_.string() + suffix);
    }
  }

  std::unique_ptr<Enclave> enclave_;
  std::unique_ptr<EnclaveLibc> libc_;
  std::filesystem::path base_;
};

TEST_P(BackendEquivalenceTest, KissdbContentsIdentical) {
  tlibc::ScopedMemcpy guard(std::get<1>(GetParam()));
  app::KissDB db;
  app::KissDB::Options opts;
  opts.hash_table_size = 64;
  ASSERT_EQ(db.open(*libc_, base_.string() + ".db", opts), app::KissDB::kOk);
  for (std::uint64_t i = 0; i < 500; ++i) {
    std::uint64_t key = i;
    std::uint64_t value = i * 2654435761u;
    ASSERT_EQ(db.put(&key, &value), app::KissDB::kOk);
  }
  for (std::uint64_t i = 0; i < 500; ++i) {
    std::uint64_t key = i;
    std::uint64_t out = 0;
    ASSERT_EQ(db.get(&key, &out), app::KissDB::kOk) << i;
    EXPECT_EQ(out, i * 2654435761u);
  }
}

TEST_P(BackendEquivalenceTest, FileCryptoRoundTripIdentical) {
  tlibc::ScopedMemcpy guard(std::get<1>(GetParam()));
  const std::string plain = base_.string() + ".plain";
  const std::string cipher = base_.string() + ".cipher";
  const std::string out = base_.string() + ".out";
  std::vector<std::uint8_t> data(60'000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  {
    std::ofstream f(plain, std::ios::binary);
    f.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  }
  std::uint8_t key[32] = {0x42};
  std::uint8_t iv[16] = {0x24};
  ASSERT_TRUE(app::encrypt_file(*libc_, plain, cipher, key, iv, 4096).ok);
  ASSERT_TRUE(app::decrypt_file(*libc_, cipher, out, key, iv, 4096).ok);
  std::ifstream f(out, std::ios::binary);
  std::vector<std::uint8_t> back{std::istreambuf_iterator<char>(f),
                                 std::istreambuf_iterator<char>()};
  EXPECT_EQ(back, data);
}

// --- Randomized differential workload --------------------------------------
//
// The same seeded pseudo-random ocall/ecall stream (mixed payload sizes and
// in-call durations) must produce byte-identical results and identical call
// counts under every registered backend.  The digest is an order-independent
// sum of per-call FNV hashes so concurrent callers don't perturb it.

struct MixArgs {
  std::uint64_t value = 0;
  std::uint64_t echoed = 0;
  std::uint64_t pauses = 0;
};

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t seed = 1469598103934665603ull) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Single-copy driver callbacks (plain function pointers, per CallDesc):
// the producer copies the caller's pseudo-random bytes straight into the
// untrusted frame, the consumer reads the handler's result straight out.
struct DiffInplaceCtx {
  const std::uint8_t* in = nullptr;
  std::uint8_t* out = nullptr;
};

void diff_produce(void* dst, std::size_t n, void* ctx) {
  std::memcpy(dst, static_cast<DiffInplaceCtx*>(ctx)->in, n);
}

void diff_consume(const void* src, std::size_t n, void* ctx) {
  std::memcpy(static_cast<DiffInplaceCtx*>(ctx)->out, src, n);
}

struct DifferentialOutcome {
  std::uint64_t digest = 0;        ///< order-independent result digest
  std::uint64_t handler_calls = 0; ///< executions observed by the handler
  std::uint64_t backend_calls = 0; ///< backend counter total
  std::uint64_t issued = 0;        ///< calls issued by the drivers
  std::uint64_t copies_elided = 0; ///< staging copies the data plane skipped
  CopyMode mode = CopyMode::kDouble;
};

// Runs the workload through `spec` on a fresh enclave: `threads` callers,
// each issuing `calls` deterministic pseudo-random requests (sizes 1..4096,
// durations 0..64 pauses).  Direction-aware: ecall specs exercise the
// trusted-function plane.
DifferentialOutcome run_differential(const std::string& spec_text,
                                     unsigned threads, std::uint64_t calls) {
  SimConfig cfg;
  cfg.tes_cycles = 200;
  cfg.logical_cpus = 8;
  auto enclave = Enclave::create(cfg);
  const bool ecall =
      spec_direction(BackendSpec::parse(spec_text)) == CallDirection::kEcall;

  std::atomic<std::uint64_t> handler_calls{0};
  const auto handler = [&handler_calls](MarshalledCall& call) {
    auto* a = static_cast<MixArgs*>(call.args);
    a->echoed = a->value * 2654435761ull + 1;
    pause_n(a->pauses);
    auto* payload = static_cast<std::uint8_t*>(call.payload);
    for (std::size_t i = 0; i < call.payload_size; ++i) {
      payload[i] = static_cast<std::uint8_t>(payload[i] ^ 0x5A);
    }
    handler_calls.fetch_add(1, std::memory_order_relaxed);
  };
  // The mix handler works on call.payload in place, so it is safe for the
  // single-copy discipline; declare that so copy=single specs exercise it.
  const HandlerTraits traits{/*in_place_capable=*/true};
  const std::uint32_t fn_id =
      ecall ? enclave->ecalls().register_fn("mix", handler, traits)
            : enclave->ocalls().register_fn("mix", handler, traits);
  install_backend_spec(*enclave, spec_text);

  DifferentialOutcome out;
  out.mode = ecall ? enclave->ecall_backend().copy_mode()
                   : enclave->backend().copy_mode();
  const CopyMode mode = out.mode;
  std::atomic<std::uint64_t> digest{0};
  std::atomic<std::uint64_t> issued{0};
  {
    std::vector<std::jthread> callers;
    for (unsigned t = 0; t < threads; ++t) {
      callers.emplace_back([&, t] {
        std::mt19937_64 rng(0xD1F5ull * (t + 1));  // same stream per backend
        std::uint64_t local_digest = 0;
        for (std::uint64_t i = 0; i < calls; ++i) {
          MixArgs args;
          args.value = rng();
          args.pauses = rng() % 64;
          const std::size_t n = 1 + rng() % 4'096;
          std::vector<std::uint8_t> in(n);
          std::vector<std::uint8_t> out_buf(n);
          for (auto& b : in) b = static_cast<std::uint8_t>(rng());
          CallDesc desc;
          desc.fn_id = fn_id;
          desc.args = &args;
          desc.args_size = sizeof(args);
          DiffInplaceCtx ctx{in.data(), out_buf.data()};
          if (mode == CopyMode::kSingle) {
            desc.in_size = n;
            desc.out_size = n;
            desc.produce_in = &diff_produce;
            desc.consume_out = &diff_consume;
            desc.inplace_ctx = &ctx;
          } else {
            desc.in_payload = in.data();
            desc.in_size = n;
            desc.out_payload = out_buf.data();
            desc.out_size = n;
          }
          if (ecall) {
            enclave->ecall_fn(desc);
          } else {
            enclave->ocall(desc);
          }
          local_digest += fnv1a(out_buf.data(), n, fnv1a(&args.echoed, 8));
        }
        digest.fetch_add(local_digest, std::memory_order_relaxed);
        issued.fetch_add(calls, std::memory_order_relaxed);
      });
    }
  }
  out.digest = digest.load();
  out.handler_calls = handler_calls.load();
  out.issued = issued.load();
  out.backend_calls = ecall ? enclave->ecall_backend().stats().total_calls()
                            : enclave->backend().stats().total_calls();
  out.copies_elided = ecall
                          ? enclave->ecall_backend().stats_snapshot().copies_elided
                          : enclave->backend().stats_snapshot().copies_elided;
  if (ecall) {
    enclave->set_ecall_backend(nullptr);
  } else {
    enclave->set_backend(nullptr);
  }
  return out;
}

TEST(BackendDifferentialTest, RandomizedOcallWorkloadIsIdenticalEverywhere) {
  const unsigned threads = 2;
  const std::uint64_t calls = 150;
  const DifferentialOutcome ref = run_differential("no_sl", threads, calls);
  ASSERT_EQ(ref.handler_calls, ref.issued);
  for (const auto& spec : all_backend_specs()) {
    if (spec == "no_sl") continue;
    const DifferentialOutcome got = run_differential(spec, threads, calls);
    EXPECT_EQ(got.digest, ref.digest) << spec;
    EXPECT_EQ(got.handler_calls, ref.handler_calls)
        << spec << ": lost or duplicated calls";
    EXPECT_EQ(got.backend_calls, got.issued)
        << spec << ": backend counters disagree with issued calls";
    if (spec.find("copy=single") != std::string::npos) {
      // The single-copy discipline really ran: two staging copies (one per
      // direction) were elided for every issued call.
      EXPECT_EQ(got.mode, CopyMode::kSingle) << spec;
      EXPECT_EQ(got.copies_elided, 2 * got.issued) << spec;
    } else {
      EXPECT_EQ(got.copies_elided, 0u) << spec;
    }
  }
}

TEST(BackendDifferentialTest, RandomizedEcallWorkloadIsIdenticalEverywhere) {
  const unsigned threads = 2;
  const std::uint64_t calls = 100;
  const DifferentialOutcome ref =
      run_differential("no_sl:direction=ecall", threads, calls);
  ASSERT_EQ(ref.handler_calls, ref.issued);
  unsigned skipped = 0;
  for (const auto& key : BackendRegistry::instance().keys()) {
    const std::string spec = ecall_equivalence_spec(key);
    if (spec.empty()) {
      ++skipped;
      continue;
    }
    if (key == "no_sl") continue;
    const DifferentialOutcome got = run_differential(spec, threads, calls);
    EXPECT_EQ(got.digest, ref.digest) << spec;
    EXPECT_EQ(got.handler_calls, ref.handler_calls)
        << spec << ": lost or duplicated calls";
    EXPECT_EQ(got.backend_calls, got.issued)
        << spec << ": backend counters disagree with issued calls";
  }
  // Only hotcalls is exempt from the trusted-worker plane.
  EXPECT_EQ(skipped, 1u);
  // Composed planes serve trusted functions identically too.
  for (const char* spec : kComposedEcallSpecs) {
    const DifferentialOutcome got = run_differential(spec, threads, calls);
    EXPECT_EQ(got.digest, ref.digest) << spec;
    EXPECT_EQ(got.handler_calls, ref.handler_calls)
        << spec << ": lost or duplicated calls";
    EXPECT_EQ(got.backend_calls, got.issued)
        << spec << ": backend counters disagree with issued calls";
  }
  // And the single-copy data plane on the trusted side: identical digests,
  // with both staging copies elided per call.
  for (const char* spec : kSingleCopyEcallSpecs) {
    const DifferentialOutcome got = run_differential(spec, threads, calls);
    EXPECT_EQ(got.digest, ref.digest) << spec;
    EXPECT_EQ(got.handler_calls, ref.handler_calls)
        << spec << ": lost or duplicated calls";
    EXPECT_EQ(got.mode, CopyMode::kSingle) << spec;
    EXPECT_EQ(got.copies_elided, 2 * got.issued) << spec;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsAndMemcpys, BackendEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(all_backend_specs()),
                       ::testing::Values(tlibc::MemcpyKind::kIntel,
                                         tlibc::MemcpyKind::kZc,
                                         tlibc::MemcpyKind::kZcNt)),
    [](const auto& info) {
      // Spec strings carry ':=;,' — flatten to a valid gtest name.
      std::string name = std::get<0>(info.param) + "_" +
                         tlibc::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace zc
