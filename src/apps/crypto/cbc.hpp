// AES-256-CBC mode with PKCS#7 padding (the algorithm the paper's OpenSSL
// benchmark uses: EVP_aes_256_cbc).  Streaming interface so the file
// pipeline can process chunk-by-chunk between fread/fwrite ocalls.
//
// The encryptor and decryptor hold only the running IV and borrow a
// prebuilt key schedule, so a caller that encrypts many messages under one
// key (SectorStore: one per sector) expands the key once.  The block loops
// are Aes256::cbc_encrypt / cbc_decrypt: decrypt runs 8 blocks wide on
// AES-NI, encrypt stays serial because CBC chains it.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/crypto/aes.hpp"

namespace zc::app {

class CbcEncryptor {
 public:
  /// `aes` must outlive the encryptor.
  CbcEncryptor(const Aes256& aes,
               const std::uint8_t iv[Aes256::kBlockSize]) noexcept;

  /// Encrypts `n` bytes (must be a multiple of 16) from `in` to `out`
  /// (same size, may equal `in`). Chunks chain across calls via the
  /// running IV.
  void update(const std::uint8_t* in, std::size_t n, std::uint8_t* out);

  /// Emits the final padded block for `n` trailing bytes (n < 16 allowed,
  /// including 0).  Always writes exactly 16 bytes (PKCS#7).
  void final(const std::uint8_t* in, std::size_t n,
             std::uint8_t out[Aes256::kBlockSize]);

 private:
  const Aes256& aes_;
  std::uint8_t iv_[Aes256::kBlockSize];
};

class CbcDecryptor {
 public:
  /// `aes` must outlive the decryptor.
  CbcDecryptor(const Aes256& aes,
               const std::uint8_t iv[Aes256::kBlockSize]) noexcept;

  /// Decrypts `n` bytes (multiple of 16) from `in` to `out` (which may
  /// equal `in`); each ciphertext byte is read once.
  void update(const std::uint8_t* in, std::size_t n, std::uint8_t* out);

  /// Strips PKCS#7 padding from the final decrypted block `block` (16
  /// bytes, already produced by update). Returns the payload length 0..15,
  /// or -1 if the padding is malformed.
  static int unpad(const std::uint8_t block[Aes256::kBlockSize]) noexcept;

 private:
  const Aes256& aes_;
  std::uint8_t iv_[Aes256::kBlockSize];
};

/// One-shot helpers (used by tests and the quickstart example).
std::vector<std::uint8_t> cbc_encrypt(const std::uint8_t key[32],
                                      const std::uint8_t iv[16],
                                      const std::uint8_t* data,
                                      std::size_t n);
/// Returns empty vector on padding failure of non-empty input.
std::vector<std::uint8_t> cbc_decrypt(const std::uint8_t key[32],
                                      const std::uint8_t iv[16],
                                      const std::uint8_t* data,
                                      std::size_t n);

}  // namespace zc::app
