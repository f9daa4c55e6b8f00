#include "inputs.hpp"

#include <cmath>

namespace zcbench {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t Rng::next() noexcept {
  state_ += 0x9e3779b97f4a7c15ULL;
  return mix64(state_);
}

std::uint64_t Rng::below(std::uint64_t n) noexcept {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * n) >> 64);
}

double Rng::unit() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Rng stream(std::uint64_t seed, std::uint64_t tag, unsigned caller) noexcept {
  return Rng(mix64(mix64(seed) ^ (tag * 0x9e3779b97f4a7c15ULL)) + caller);
}

std::vector<std::uint32_t> permutation(Rng& rng, std::uint32_t n) {
  std::vector<std::uint32_t> p(n);
  for (std::uint32_t i = 0; i < n; ++i) p[i] = i;
  for (std::uint32_t i = n; i > 1; --i) {
    const auto j = static_cast<std::uint32_t>(rng.below(i));
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

KvInputs make_kv_inputs(std::uint64_t seed, unsigned caller, std::uint32_t n) {
  Rng rng = stream(seed, 1, caller);
  KvInputs in;
  // mix64 is a bijection, so distinct indices give distinct keys.
  const std::uint64_t salt = rng.next();
  in.keys.resize(n);
  in.values.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    in.keys[i] = mix64(salt + i);
    in.values[i] = rng.next();
  }
  in.put_order = permutation(rng, n);
  in.get_order = permutation(rng, n);
  return in;
}

BlockInputs make_blocks(std::uint64_t seed, std::uint64_t tag, unsigned caller,
                        std::size_t count, std::size_t block_bytes) {
  Rng rng = stream(seed, tag, caller);
  BlockInputs in;
  in.block_bytes = block_bytes;
  in.bytes.resize(count * block_bytes);
  for (std::size_t i = 0; i + 8 <= in.bytes.size(); i += 8) {
    const std::uint64_t w = rng.next();
    for (int b = 0; b < 8; ++b) {
      in.bytes[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
    }
  }
  return in;
}

std::vector<double> PhasedCurve::rates_hz() const {
  std::vector<double> r;
  double rate = base_hz;
  for (unsigned i = 0; i < doublings; ++i, rate *= 2) r.push_back(rate);
  for (unsigned i = 0; i < hold_periods; ++i) r.push_back(rate);
  for (unsigned i = 0; i < doublings; ++i) r.push_back(rate /= 2);
  return r;
}

PhasedInputs make_phased_inputs(std::uint64_t seed, unsigned caller,
                                const PhasedCurve& curve,
                                std::uint32_t mean_work_ns) {
  Rng rng = stream(seed, 4, caller);
  PhasedInputs in;
  const std::vector<double> rates = curve.rates_hz();
  for (std::size_t p = 0; p < rates.size(); ++p) {
    const double start = curve.period_s * static_cast<double>(p);
    const double end = start + curve.period_s;
    // Exponential gaps are memoryless, so restarting at each period
    // boundary keeps the process Poisson within every period.
    for (double t = start - std::log1p(-rng.unit()) / rates[p]; t < end;
         t -= std::log1p(-rng.unit()) / rates[p]) {
      Arrival a;
      a.due_ns = static_cast<std::uint64_t>(t * 1e9);
      a.nonce = rng.next();
      a.work_ns = static_cast<std::uint32_t>(
          static_cast<double>(mean_work_ns) * (0.5 + rng.unit()));
      a.kind = (rng.next() & 1) != 0 ? CallKind::kRead : CallKind::kWrite;
      in.arrivals.push_back(a);
    }
  }
  in.payloads.resize(in.arrivals.size() * PhasedInputs::kPayloadBytes);
  for (std::size_t i = 0; i + 8 <= in.payloads.size(); i += 8) {
    const std::uint64_t w = rng.next();
    for (int b = 0; b < 8; ++b) {
      in.payloads[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
    }
  }
  return in;
}

}  // namespace zcbench
