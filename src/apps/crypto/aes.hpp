// AES-256 block cipher (FIPS-197), implemented from scratch as the
// substitute for the paper's SGX port of OpenSSL (§V-B).  Used only as
// in-enclave compute between file ocalls; correctness is pinned by the
// FIPS-197 / NIST SP 800-38A known-answer tests in the test suite.
//
// The CBC block loops live here, next to the round keys, so the AES-NI
// path checks for the instruction set once per buffer and keeps the round
// keys in registers across it (after Gueron's AES-NI white paper):
//  * decrypt keeps 8 blocks in flight with interleaved aesdec/aesdeclast,
//    since each plaintext block depends only on two ciphertext blocks;
//  * encrypt stays one block at a time, because CBC chains every block
//    on the previous ciphertext.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace zc::app {

class Aes256 {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 32;
  static constexpr unsigned kRounds = 14;

  /// Expands the 256-bit key into the round-key schedule.
  explicit Aes256(const std::uint8_t key[kKeySize]) noexcept;
  /// Wipes both key schedules (a wipe the compiler cannot elide).
  ~Aes256();

  // One object per key schedule: copies would scatter key material.
  Aes256(const Aes256&) = delete;
  Aes256& operator=(const Aes256&) = delete;

  /// Encrypts one 16-byte block (in-place safe: out may alias in).
  /// Dispatches to AES-NI when the CPU supports it (the paper's OpenSSL
  /// baseline is AES-NI-backed; matching it keeps the file pipeline
  /// I/O-bound as in §V-B), else to the portable implementation.
  void encrypt_block(const std::uint8_t in[kBlockSize],
                     std::uint8_t out[kBlockSize]) const noexcept;

  /// Decrypts one 16-byte block.
  void decrypt_block(const std::uint8_t in[kBlockSize],
                     std::uint8_t out[kBlockSize]) const noexcept;

  /// CBC-encrypts `n` bytes (a multiple of 16) from `in` to `out`,
  /// chaining from `iv` and leaving the last ciphertext block in it.
  /// `out` may equal `in`.  Serial on every path: CBC chains each block
  /// on the previous ciphertext.
  void cbc_encrypt(std::uint8_t iv[kBlockSize], const std::uint8_t* in,
                   std::size_t n, std::uint8_t* out) const noexcept;

  /// CBC-decrypts `n` bytes (a multiple of 16); `iv` carries across calls
  /// as for cbc_encrypt.  `out` may equal `in`, and each ciphertext block
  /// is read from `in` exactly once, so a buffer another party can write
  /// (an untrusted frame) cannot change between its two uses.  The AES-NI
  /// path decrypts 8 blocks at a time.
  void cbc_decrypt(std::uint8_t iv[kBlockSize], const std::uint8_t* in,
                   std::size_t n, std::uint8_t* out) const noexcept;

  /// Portable (software) paths — the fallback without AES-NI; exposed so
  /// tests can cross-check the hardware path against them.
  void encrypt_block_sw(const std::uint8_t in[kBlockSize],
                        std::uint8_t out[kBlockSize]) const noexcept;
  void decrypt_block_sw(const std::uint8_t in[kBlockSize],
                        std::uint8_t out[kBlockSize]) const noexcept;
  void cbc_encrypt_sw(std::uint8_t iv[kBlockSize], const std::uint8_t* in,
                      std::size_t n, std::uint8_t* out) const noexcept;
  void cbc_decrypt_sw(std::uint8_t iv[kBlockSize], const std::uint8_t* in,
                      std::size_t n, std::uint8_t* out) const noexcept;

  /// True when this build/CPU uses the AES-NI path.
  static bool has_aesni() noexcept;

 private:
  // Round keys as bytes: (kRounds + 1) * 16. The second schedule holds the
  // InvMixColumns-transformed keys the AES-NI decrypt path needs (unused
  // without AES-NI).
  std::array<std::uint8_t, (kRounds + 1) * kBlockSize> round_keys_{};
  std::array<std::uint8_t, (kRounds + 1) * kBlockSize> dec_keys_{};
};

}  // namespace zc::app
