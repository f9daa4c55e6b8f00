// Output checks.  Every operation a workload completes is checked against
// the benchmark's own expectation; a check that fails, an I/O error, or a
// call missing from the backend's accounting counts as a failed operation.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sgx/backend.hpp"
#include "inputs.hpp"

namespace zcbench {

/// Byte-for-byte comparison of a read-back block with what was written.
bool block_matches(const std::uint8_t* got, const std::uint8_t* expected,
                   std::size_t n) noexcept;

/// Digest the phased_load handler returns for a call: FNV-1a over the
/// nonce and the call's payload bytes.
std::uint64_t call_digest(std::uint64_t nonce, const std::uint8_t* bytes,
                          std::size_t n) noexcept;

/// The [out] payload the phased_load handler produces for a read call.
void fill_reply(std::uint64_t nonce, std::uint8_t* out, std::size_t n) noexcept;

/// Checks one phased_load call.  A write call's handler digests the [in]
/// payload; a read call's handler fills `reply` and digests that.
bool phased_call_ok(const Arrival& a, const std::uint8_t* in_payload,
                    const std::uint8_t* reply, std::uint64_t result) noexcept;

/// The sum of every call's digest that one caller's schedule must produce.
std::uint64_t expected_digest(const PhasedInputs& in);

/// Calls missing from (or surplus in) the backend's accounting: the
/// distance between calls issued and regular + switchless + fallback.
std::uint64_t accounting_gap(std::uint64_t issued,
                             const zc::BackendStatsSnapshot& s) noexcept;

}  // namespace zcbench
