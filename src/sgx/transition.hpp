// Enclave transition cost model.
//
// A regular ocall is: EEXIT + untrusted host processing + EENTER (§II).
// The hardware costs (cache/TLB flushes, core synchronisation) are simulated
// by burning a calibrated number of TSC cycles on the calling thread, so the
// cost lands exactly where it does on real SGX: on the caller, while it
// occupies a hardware thread.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "sgx/sim_config.hpp"

namespace zc {

class TransitionModel {
 public:
  explicit TransitionModel(const SimConfig& cfg) noexcept;

  /// Charges the EEXIT half of an ocall on the calling thread.
  void eexit() noexcept;

  /// Charges the EENTER half of an ocall on the calling thread.
  void eenter() noexcept;

  /// Charges one full ecall round trip (enter + exit on return).
  void ecall_roundtrip() noexcept;

  /// Full ocall round-trip overhead in cycles (the paper's T_es).
  std::uint64_t tes_cycles() const noexcept { return tes_cycles_; }

  std::uint64_t eexit_count() const noexcept { return eexits_.load(); }
  std::uint64_t eenter_count() const noexcept { return eenters_.load(); }
  std::uint64_t ecall_count() const noexcept { return ecalls_.load(); }

  /// Total cycles burned in transitions so far (all threads).
  std::uint64_t burned_cycles() const noexcept { return burned_.load(); }

 private:
  std::uint64_t tes_cycles_;
  std::uint64_t eexit_cycles_;
  std::uint64_t eenter_cycles_;
  // Bumped by every regular call and fallback: per-CPU, so concurrent
  // callers do not contend on them.
  ShardedCounter eexits_;
  ShardedCounter eenters_;
  ShardedCounter ecalls_;
  ShardedCounter burned_;
};

}  // namespace zc
