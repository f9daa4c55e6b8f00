// Seeded inputs for every workload.
//
// The benchmark generates everything the program consumes — keys, values,
// plaintext, payloads, arrival times — from the `--seed` argument alone,
// with its own generator, so the same seed gives the same inputs on any
// host and no change to the program's sources can change a workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace zcbench {

/// SplitMix64 finaliser: a bijection on 64-bit words.
std::uint64_t mix64(std::uint64_t x) noexcept;

/// SplitMix64 stream (Steele et al., OOPSLA'14): tiny and fully specified,
/// unlike the standard library's distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept;
  /// Uniform in [0, n) (n > 0), by Lemire's multiply-shift.
  std::uint64_t below(std::uint64_t n) noexcept;
  /// Uniform in [0, 1).
  double unit() noexcept;

 private:
  std::uint64_t state_;
};

/// Independent stream for (seed, workload tag, caller).
Rng stream(std::uint64_t seed, std::uint64_t tag, unsigned caller) noexcept;

/// A seeded permutation of [0, n).
std::vector<std::uint32_t> permutation(Rng& rng, std::uint32_t n);

/// kv_store: one caller's keys, values and the two visiting orders.
struct KvInputs {
  std::vector<std::uint64_t> keys;  ///< distinct 8-byte keys
  std::vector<std::uint64_t> values;
  std::vector<std::uint32_t> put_order;
  std::vector<std::uint32_t> get_order;
};
KvInputs make_kv_inputs(std::uint64_t seed, unsigned caller, std::uint32_t n);

/// sector_io / bulk_io: `count` seeded blocks of `block_bytes` each.
struct BlockInputs {
  std::size_t block_bytes = 0;
  std::vector<std::uint8_t> bytes;
  std::size_t count() const noexcept {
    return block_bytes == 0 ? 0 : bytes.size() / block_bytes;
  }
  const std::uint8_t* block(std::size_t i) const noexcept {
    return bytes.data() + i * block_bytes;
  }
};
BlockInputs make_blocks(std::uint64_t seed, std::uint64_t tag, unsigned caller,
                        std::size_t count, std::size_t block_bytes);

/// phased_load: the paper's §V-C curve — the rate doubles every period,
/// holds at the peak, then halves back down.
struct PhasedCurve {
  double period_s = 0.1;
  double base_hz = 2'500.0;  ///< per caller, first period
  unsigned doublings = 3;    ///< peak = base * 2^doublings
  unsigned hold_periods = 3;
  std::vector<double> rates_hz() const;
};

enum class CallKind : std::uint8_t { kWrite = 0, kRead = 1 };

/// One scheduled call of the open loop.
struct Arrival {
  std::uint64_t due_ns = 0;  ///< offset from the round's origin
  std::uint64_t nonce = 0;
  std::uint32_t work_ns = 0;  ///< handler work hint, ±50% around the mean
  CallKind kind = CallKind::kWrite;
};

struct PhasedInputs {
  static constexpr std::size_t kPayloadBytes = 64;
  std::vector<Arrival> arrivals;
  std::vector<std::uint8_t> payloads;  ///< kPayloadBytes per arrival
  const std::uint8_t* payload(std::size_t i) const noexcept {
    return payloads.data() + i * kPayloadBytes;
  }
};
/// Non-homogeneous Poisson arrivals over `curve` for one caller.
PhasedInputs make_phased_inputs(std::uint64_t seed, unsigned caller,
                                const PhasedCurve& curve,
                                std::uint32_t mean_work_ns);

}  // namespace zcbench
