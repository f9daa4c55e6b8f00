#include "workloads.hpp"

#include <time.h>

#include <array>
#include <cstring>

#include "checks.hpp"
#include "common/cpu_meter.hpp"
#include "common/cycles.hpp"
#include "core/backend_registry.hpp"
#include "trace.hpp"

namespace zcbench {

namespace {

// Operation sizes, fixed per round so every run does the same work.
constexpr std::uint32_t kKvKeys = 8'192;          // per caller
constexpr std::uint64_t kKvTableSize = 8'192;     // kissdb buckets per page
constexpr std::size_t kSectorBytes = 4'096;
constexpr std::size_t kSectors = 1'024;           // per caller file
constexpr unsigned kSectorPasses = 4;             // write+read pairs / round
constexpr std::size_t kChunkBytes = 128 * 1'024;
constexpr std::size_t kFileChunks = 32;           // a 4 MB file per caller
constexpr unsigned kBulkPassesPerPhase = 8;
constexpr unsigned kBulkPhasePairs = 4;
constexpr std::uint32_t kCallWorkNs = 2'000;

std::vector<PhaseKind> alternating(unsigned pairs) {
  std::vector<PhaseKind> p;
  for (unsigned i = 0; i < pairs; ++i) {
    p.push_back(PhaseKind::kWrite);
    p.push_back(PhaseKind::kRead);
  }
  return p;
}

std::string caller_path(const char* stem, unsigned caller) {
  return std::string("/zcbench/") + stem + std::to_string(caller);
}

// --- kv_store ---------------------------------------------------------------

class KvStore final : public Workload {
 public:
  explicit KvStore(std::uint64_t seed) {
    for (unsigned c = 0; c < kCallers; ++c) {
      inputs_[c] = make_kv_inputs(seed, c, kKvKeys);
    }
  }

  std::vector<PhaseKind> phases() const override { return alternating(1); }

  bool open(Program& program) override {
    zc::app::KissDB::Options opts;
    opts.hash_table_size = kKvTableSize;
    bool ok = true;
    for (unsigned c = 0; c < kCallers; ++c) {
      ok = dbs_[c].open(*program.libc, caller_path("kv", c), opts) ==
               zc::app::KissDB::kOk &&
           ok;
    }
    return ok;
  }

  void run(Program&, std::size_t phase, unsigned caller, std::uint64_t,
           OpLog& log) override {
    const KvInputs& in = inputs_[caller];
    zc::app::KissDB& db = dbs_[caller];
    if (phase == 0) {
      for (const std::uint32_t i : in.put_order) {
        begin_op();
        const std::uint64_t t0 = zc::wall_ns();
        int rc;
        {
          const SpanScope span(SpanName::kKvPut);
          rc = db.put(&in.keys[i], &in.values[i]);
        }
        log.record(CallKind::kWrite, t0, zc::wall_ns(),
                   rc == zc::app::KissDB::kOk);
      }
      return;
    }
    for (const std::uint32_t i : in.get_order) {
      std::uint64_t value = ~in.values[i];
      begin_op();
      const std::uint64_t t0 = zc::wall_ns();
      int rc;
      {
        const SpanScope span(SpanName::kKvGet);
        rc = db.get(&in.keys[i], &value);
      }
      log.record(CallKind::kRead, t0, zc::wall_ns(),
                 rc == zc::app::KissDB::kOk && value == in.values[i]);
    }
  }

  bool close() override {
    for (auto& db : dbs_) db.close();
    return true;
  }

  std::size_t payload_bytes() const override { return 8; }
  std::size_t spans_per_phase() const override { return kKvKeys * 12; }

 private:
  std::array<KvInputs, kCallers> inputs_;
  std::array<zc::app::KissDB, kCallers> dbs_;
};

// --- sector_io --------------------------------------------------------------

class SectorIo final : public Workload {
 public:
  explicit SectorIo(std::uint64_t seed) {
    Rng rng = stream(seed, 2, kCallers);
    for (auto& b : key_) b = static_cast<std::uint8_t>(rng.next());
    for (unsigned c = 0; c < kCallers; ++c) {
      plain_[c] = make_blocks(seed, 2, c, kSectors, kSectorBytes);
    }
  }

  std::vector<PhaseKind> phases() const override {
    return alternating(kSectorPasses);
  }

  bool open(Program& program) override {
    mode_ = program.backend->copy_mode();
    bool ok = true;
    for (unsigned c = 0; c < kCallers; ++c) {
      stores_[c] = std::make_unique<zc::app::SectorStore>(
          *program.libc, caller_path("sectors", c), kSectorBytes, key_);
      ok = stores_[c]->open_for_write() && ok;
    }
    return ok;
  }

  void run(Program&, std::size_t phase, unsigned caller, std::uint64_t,
           OpLog& log) override {
    zc::app::SectorStore& store = *stores_[caller];
    const BlockInputs& plain = plain_[caller];
    const bool write = phase % 2 == 0;
    // The first write pass uses the file set-up opened.
    if (phase != 0) {
      store.close();
      if (!(write ? store.open_for_write() : store.open_for_read())) {
        log.fail();
        return;
      }
    }
    std::vector<std::uint8_t> out(kSectorBytes);
    for (std::size_t i = 0; i < kSectors; ++i) {
      begin_op();
      const std::uint64_t t0 = zc::wall_ns();
      bool ok;
      if (write) {
        const SpanScope span(SpanName::kSectorWrite);
        ok = store.write_sector(i, plain.block(i), mode_);
      } else {
        const SpanScope span(SpanName::kSectorRead);
        ok = store.read_sector(i, out.data(), mode_);
      }
      const std::uint64_t t1 = zc::wall_ns();
      if (!write) ok = ok && block_matches(out.data(), plain.block(i), kSectorBytes);
      log.record(write ? CallKind::kWrite : CallKind::kRead, t0, t1, ok);
    }
  }

  bool close() override {
    for (auto& s : stores_) s.reset();
    return true;
  }

  std::size_t payload_bytes() const override { return kSectorBytes; }
  std::size_t spans_per_phase() const override { return kSectors * 3; }

 private:
  std::uint8_t key_[32] = {};
  std::array<BlockInputs, kCallers> plain_;
  std::array<std::unique_ptr<zc::app::SectorStore>, kCallers> stores_;
  zc::CopyMode mode_ = zc::CopyMode::kDouble;
};

// --- bulk_io ----------------------------------------------------------------

class BulkIo final : public Workload {
 public:
  explicit BulkIo(std::uint64_t seed) {
    for (unsigned c = 0; c < kCallers; ++c) {
      // One chunk more than the file holds, so consecutive passes write
      // every slot with different bytes and a stale read shows.
      chunks_[c] = make_blocks(seed, 3, c, kFileChunks + 1, kChunkBytes);
    }
  }

  std::vector<PhaseKind> phases() const override {
    return alternating(kBulkPhasePairs);
  }

  bool open(Program& program) override {
    libc_ = program.libc.get();
    passes_.fill(0);
    return true;
  }

  void run(Program&, std::size_t phase, unsigned caller, std::uint64_t,
           OpLog& log) override {
    for (unsigned p = 0; p < kBulkPassesPerPhase; ++p) {
      if (phase % 2 == 0) {
        ++passes_[caller];
        write_pass(caller, log);
      } else {
        read_pass(caller, log);
      }
    }
  }

  bool close() override { return true; }

  std::size_t payload_bytes() const override { return kChunkBytes; }
  std::size_t spans_per_phase() const override {
    return kBulkPassesPerPhase * kFileChunks * 4;
  }

 private:
  const std::uint8_t* chunk_for(unsigned caller, std::size_t slot) const {
    return chunks_[caller].block((slot + passes_[caller]) % (kFileChunks + 1));
  }

  void write_pass(unsigned caller, OpLog& log) {
    // The first pass of a round creates the file; later passes overwrite
    // it in place, so a write copies its chunk and never zero-fills.
    const char* mode = passes_[caller] == 1 ? "wb" : "r+b";
    zc::TFile f = libc_->fopen(caller_path("bulk", caller).c_str(), mode);
    for (std::size_t i = 0; i < kFileChunks; ++i) {
      begin_op();
      const std::uint64_t t0 = zc::wall_ns();
      std::size_t n = 0;
      if (f) {
        const SpanScope span(SpanName::kFileWrite);
        n = f.write(chunk_for(caller, i), kChunkBytes);
      }
      log.record(CallKind::kWrite, t0, zc::wall_ns(), n == kChunkBytes);
    }
    if (f.close() != 0) log.fail();
  }

  void read_pass(unsigned caller, OpLog& log) {
    zc::TFile f = libc_->fopen(caller_path("bulk", caller).c_str(), "rb");
    std::vector<std::uint8_t> buf(kChunkBytes);
    for (std::size_t i = 0; i < kFileChunks; ++i) {
      begin_op();
      const std::uint64_t t0 = zc::wall_ns();
      std::size_t n = 0;
      if (f) {
        const SpanScope span(SpanName::kFileRead);
        n = f.read(buf.data(), kChunkBytes);
      }
      const std::uint64_t t1 = zc::wall_ns();
      log.record(CallKind::kRead, t0, t1,
                 n == kChunkBytes &&
                     block_matches(buf.data(), chunk_for(caller, i),
                                   kChunkBytes));
    }
  }

  zc::EnclaveLibc* libc_ = nullptr;
  std::array<BlockInputs, kCallers> chunks_;
  std::array<std::uint64_t, kCallers> passes_{};
};

// --- phased_load ------------------------------------------------------------

struct CallArgs {
  std::uint64_t nonce = 0;
  std::uint32_t work_ns = 0;
  std::uint32_t kind = 0;
  std::uint64_t result = 0;
};

// The untrusted handler behind every phased_load call: burns the call's
// work hint, then digests the [in] payload (write) or produces and
// digests the [out] payload (read).
void serve_call(zc::MarshalledCall& call) {
  auto* args = static_cast<CallArgs*>(call.args);
  zc::burn_cycles(zc::ns_to_cycles(args->work_ns));
  auto* bytes = static_cast<std::uint8_t*>(call.payload);
  if (args->kind == static_cast<std::uint32_t>(CallKind::kRead)) {
    fill_reply(args->nonce, bytes, call.payload_size);
  }
  args->result = call_digest(args->nonce, bytes, call.payload_size);
}

/// Sleeps, never spins, until `due_ns`: process CPU must measure the
/// program alone.
void sleep_until(std::uint64_t due_ns) {
  if (zc::wall_ns() >= due_ns) return;
  const timespec ts{static_cast<time_t>(due_ns / 1'000'000'000),
                    static_cast<long>(due_ns % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

class PhasedLoad final : public Workload {
 public:
  explicit PhasedLoad(std::uint64_t seed) {
    for (unsigned c = 0; c < kCallers; ++c) {
      inputs_[c] = make_phased_inputs(seed, c, curve(), kCallWorkNs);
      expected_[c] = expected_digest(inputs_[c]);
    }
  }

  /// Per-caller rates 2.5k → 20k → 2.5k calls/s in 0.1 s periods.
  static PhasedCurve curve() { return PhasedCurve{}; }

  std::vector<PhaseKind> phases() const override { return {PhaseKind::kMixed}; }

  void register_ocalls(zc::Enclave& enclave) override {
    fn_ = enclave.ocalls().register_fn("zcbench_call", serve_call);
  }

  bool open(Program&) override {
    digests_.fill(0);
    return true;
  }

  void run(Program& program, std::size_t, unsigned caller,
           std::uint64_t origin_ns, OpLog& log) override {
    const PhasedInputs& in = inputs_[caller];
    constexpr std::size_t n = PhasedInputs::kPayloadBytes;
    std::uint8_t reply[n];
    std::uint64_t digest = 0;
    for (std::size_t i = 0; i < in.arrivals.size(); ++i) {
      const Arrival& a = in.arrivals[i];
      const std::uint64_t due = origin_ns + a.due_ns;
      sleep_until(due);
      const std::uint64_t issued = zc::wall_ns();
      CallArgs args;
      args.nonce = a.nonce;
      args.work_ns = a.work_ns;
      args.kind = static_cast<std::uint32_t>(a.kind);
      zc::CallDesc desc;
      desc.fn_id = fn_;
      desc.args = &args;
      desc.args_size = sizeof(args);
      if (a.kind == CallKind::kWrite) {
        desc.in_payload = in.payload(i);
        desc.in_size = n;
      } else {
        desc.out_payload = reply;
        desc.out_size = n;
      }
      begin_op();
      {
        const SpanScope span(a.kind == CallKind::kWrite ? SpanName::kCallWrite
                                                        : SpanName::kCallRead);
        program.enclave->ocall(desc);
      }
      log.record_due(a.kind, due, issued, zc::wall_ns(),
                     phased_call_ok(a, in.payload(i), reply, args.result));
      digest += args.result;
    }
    digests_[caller] = digest;
  }

  void calibrate(unsigned caller, std::uint64_t origin_ns,
                 std::vector<double>& late_us) override {
    for (const Arrival& a : inputs_[caller].arrivals) {
      const std::uint64_t due = origin_ns + a.due_ns;
      sleep_until(due);
      late_us.push_back(static_cast<double>(zc::wall_ns() - due) * 1e-3);
    }
  }

  bool close() override { return digests_ == expected_; }

  std::size_t payload_bytes() const override {
    return PhasedInputs::kPayloadBytes;
  }
  std::size_t spans_per_phase() const override {
    return inputs_[0].arrivals.size() * 3;
  }

 private:
  std::array<PhasedInputs, kCallers> inputs_;
  std::array<std::uint64_t, kCallers> expected_{};
  std::array<std::uint64_t, kCallers> digests_{};
  std::uint32_t fn_ = 0;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"kv_store", "sector_io", "bulk_io", "phased_load"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "kv_store") return std::make_unique<KvStore>(seed);
  if (name == "sector_io") return std::make_unique<SectorIo>(seed);
  if (name == "bulk_io") return std::make_unique<BulkIo>(seed);
  if (name == "phased_load") return std::make_unique<PhasedLoad>(seed);
  return nullptr;
}

Program start_program(Workload& workload) {
  zc::SimConfig cfg;
  cfg.logical_cpus = kLogicalCpus;
  Program p;
  p.enclave = zc::Enclave::create(cfg);
  p.libc = std::make_unique<zc::EnclaveLibc>(*p.enclave, zc::IoMode::kSimulated);
  workload.register_ocalls(*p.enclave);
  auto zc_backend = zc::BackendRegistry::instance().create(*p.enclave, "zc");
  p.zc = dynamic_cast<zc::ZcBackend*>(zc_backend.get());
  auto metered = std::make_unique<MeteredBackend>(std::move(zc_backend));
  p.backend = metered.get();
  p.enclave->set_backend(std::move(metered));
  return p;
}

}  // namespace zcbench
