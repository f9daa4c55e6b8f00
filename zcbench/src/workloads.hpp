// The four workloads.  Each runs the program — a fresh simulated enclave
// with the spec `zc` installed under the benchmark's pass-through backend —
// on inputs the benchmark generated from the seed, and checks every
// result it gets back.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/crypto/sector_store.hpp"
#include "apps/kissdb/kissdb.hpp"
#include "core/zc_backend.hpp"
#include "inputs.hpp"
#include "metered_backend.hpp"
#include "sgx/enclave.hpp"
#include "sgx/tlibc_stdio.hpp"

namespace zcbench {

/// Load is generated by this many caller threads of one process.  With the
/// simulated machine's 4 logical CPUs, `zc` runs at most 2 workers, so
/// callers plus workers equal 4.
inline constexpr unsigned kCallers = 2;
inline constexpr unsigned kLogicalCpus = 4;

/// One instance of the program under test.
struct Program {
  std::unique_ptr<zc::Enclave> enclave;
  std::unique_ptr<zc::EnclaveLibc> libc;
  MeteredBackend* backend = nullptr;  ///< owned by the enclave
  zc::ZcBackend* zc = nullptr;        ///< the registry-built `zc` under it
};

/// What one caller did in one phase.
struct OpLog {
  std::vector<double> latency_us[2];  ///< by CallKind: issue to done
  std::vector<double> sojourn_us;     ///< open loop: due to done
  std::vector<double> late_us;        ///< open loop: issue minus due
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t cpu_ns = 0;  ///< the caller thread's own CPU

  /// One operation, issued and done at the given times.
  void record(CallKind kind, std::uint64_t issued_ns, std::uint64_t done_ns,
              bool ok) {
    latency_us[static_cast<int>(kind)].push_back(
        static_cast<double>(done_ns - issued_ns) * 1e-3);
    ++attempted;
    if (!ok) ++failed;
  }
  /// One open-loop call, due at `due_ns`.  Its sojourn runs from the due
  /// time, so the host's lateness and the program's backlog both count.
  void record_due(CallKind kind, std::uint64_t due_ns, std::uint64_t issued_ns,
                  std::uint64_t done_ns, bool ok) {
    record(kind, issued_ns, done_ns, ok);
    sojourn_us.push_back(static_cast<double>(done_ns - due_ns) * 1e-3);
    late_us.push_back(static_cast<double>(issued_ns - due_ns) * 1e-3);
  }
  /// An operation that could not even start (e.g. its file failed to open).
  void fail() {
    ++attempted;
    ++failed;
  }
};

enum class PhaseKind { kWrite, kRead, kMixed };

class Workload {
 public:
  virtual ~Workload() = default;

  /// The phases of one round, in order.
  virtual std::vector<PhaseKind> phases() const = 0;
  /// Registers the workload's own ocall handlers (before `zc` starts).
  virtual void register_ocalls(zc::Enclave& enclave) { (void)enclave; }
  /// Opens or preloads the app: the last step of set-up.
  virtual bool open(Program& program) = 0;
  /// Runs phase `phase` on caller `caller`.  An open loop schedules its
  /// calls from `origin_ns`.
  virtual void run(Program& program, std::size_t phase, unsigned caller,
                   std::uint64_t origin_ns, OpLog& log) = 0;
  /// Closes the app; false when a round-level check fails.
  virtual bool close() = 0;
  /// The payload bytes of the workload's typical frame (for the probes).
  virtual std::size_t payload_bytes() const = 0;
  /// Span-buffer capacity one caller needs for one phase.
  virtual std::size_t spans_per_phase() const = 0;
  /// Open loop only: walks caller `caller`'s schedule from `origin_ns`
  /// with no program in the process, sleeping until each due time and
  /// recording how late the host woke it (µs) into `late_us`.
  virtual void calibrate(unsigned caller, std::uint64_t origin_ns,
                         std::vector<double>& late_us) {
    (void)caller;
    (void)origin_ns;
    (void)late_us;
  }
};

/// Builds a workload and its inputs; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
std::vector<std::string> workload_names();

/// Creates the enclave, registers the ocalls and installs `zc` (no
/// options) under a MeteredBackend.
Program start_program(Workload& workload);

}  // namespace zcbench
