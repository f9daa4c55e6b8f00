#include "checks.hpp"

#include <cstring>

namespace zcbench {

bool block_matches(const std::uint8_t* got, const std::uint8_t* expected,
                   std::size_t n) noexcept {
  return std::memcmp(got, expected, n) == 0;
}

std::uint64_t call_digest(std::uint64_t nonce, const std::uint8_t* bytes,
                          std::size_t n) noexcept {
  std::uint64_t h = 1469598103934665603ULL ^ nonce;
  for (std::size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ULL;
  return h;
}

void fill_reply(std::uint64_t nonce, std::uint8_t* out, std::size_t n) noexcept {
  Rng rng(nonce);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t w = rng.next();
    std::memcpy(out + i, &w, n - i < 8 ? n - i : 8);
  }
}

bool phased_call_ok(const Arrival& a, const std::uint8_t* in_payload,
                    const std::uint8_t* reply, std::uint64_t result) noexcept {
  constexpr std::size_t n = PhasedInputs::kPayloadBytes;
  if (a.kind == CallKind::kWrite) {
    return result == call_digest(a.nonce, in_payload, n);
  }
  std::uint8_t expected[n];
  fill_reply(a.nonce, expected, n);
  return block_matches(reply, expected, n) &&
         result == call_digest(a.nonce, expected, n);
}

std::uint64_t expected_digest(const PhasedInputs& in) {
  constexpr std::size_t n = PhasedInputs::kPayloadBytes;
  std::uint64_t sum = 0;
  std::uint8_t reply[n];
  for (std::size_t i = 0; i < in.arrivals.size(); ++i) {
    const Arrival& a = in.arrivals[i];
    if (a.kind == CallKind::kWrite) {
      sum += call_digest(a.nonce, in.payload(i), n);
    } else {
      fill_reply(a.nonce, reply, n);
      sum += call_digest(a.nonce, reply, n);
    }
  }
  return sum;
}

std::uint64_t accounting_gap(std::uint64_t issued,
                             const zc::BackendStatsSnapshot& s) noexcept {
  const std::uint64_t served = s.total_calls();
  return issued > served ? issued - served : served - issued;
}

}  // namespace zcbench
