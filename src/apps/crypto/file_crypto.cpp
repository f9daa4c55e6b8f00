#include "apps/crypto/file_crypto.hpp"

#include <cstring>
#include <vector>

#include "apps/crypto/cbc.hpp"

namespace zc::app {

FileCryptoStats encrypt_file(EnclaveLibc& libc, const std::string& in_path,
                             const std::string& out_path,
                             const std::uint8_t key[32],
                             const std::uint8_t iv[16],
                             std::size_t chunk_bytes) {
  FileCryptoStats stats;
  if (chunk_bytes == 0 || chunk_bytes % Aes256::kBlockSize != 0) return stats;

  TFile in = libc.fopen(in_path.c_str(), "rb");
  if (!in) return stats;
  TFile out = libc.fopen(out_path.c_str(), "wb");
  if (!out) return stats;

  const Aes256 aes(key);
  CbcEncryptor enc(aes, iv);
  std::vector<std::uint8_t> plain(chunk_bytes);
  std::vector<std::uint8_t> cipher(chunk_bytes + Aes256::kBlockSize);

  for (;;) {
    const std::size_t got = in.read(plain.data(), chunk_bytes);
    ++stats.chunks;
    stats.bytes_in += got;
    const std::size_t full = got / Aes256::kBlockSize * Aes256::kBlockSize;
    if (full != 0) {
      enc.update(plain.data(), full, cipher.data());
      if (out.write(cipher.data(), full) != full) return stats;
      stats.bytes_out += full;
    }
    if (got < chunk_bytes) {
      // Trailing partial block (possibly empty) -> final padded block.
      enc.final(plain.data() + full, got - full, cipher.data());
      if (out.write(cipher.data(), Aes256::kBlockSize) != Aes256::kBlockSize) {
        return stats;
      }
      stats.bytes_out += Aes256::kBlockSize;
      break;
    }
  }
  stats.ok = true;
  return stats;
}

FileCryptoStats decrypt_file(EnclaveLibc& libc, const std::string& in_path,
                             const std::string& out_path,
                             const std::uint8_t key[32],
                             const std::uint8_t iv[16],
                             std::size_t chunk_bytes) {
  FileCryptoStats stats;
  if (chunk_bytes == 0 || chunk_bytes % Aes256::kBlockSize != 0) return stats;

  TFile in = libc.fopen(in_path.c_str(), "rb");
  if (!in) return stats;
  TFile out;
  const bool writing = !out_path.empty();
  if (writing) {
    out = libc.fopen(out_path.c_str(), "wb");
    if (!out) return stats;
  }

  const Aes256 aes(key);
  CbcDecryptor dec(aes, iv);
  std::vector<std::uint8_t> cipher(chunk_bytes);
  std::vector<std::uint8_t> plain(chunk_bytes);
  // The final block is held back until EOF so its padding can be stripped.
  std::uint8_t held[Aes256::kBlockSize];
  bool have_held = false;

  for (;;) {
    const std::size_t got = in.read(cipher.data(), chunk_bytes);
    ++stats.chunks;
    if (got % Aes256::kBlockSize != 0) return stats;  // corrupt stream
    stats.bytes_in += got;
    if (got != 0) {
      if (have_held) {
        if (writing &&
            out.write(held, Aes256::kBlockSize) != Aes256::kBlockSize) {
          return stats;
        }
        if (writing) stats.bytes_out += Aes256::kBlockSize;
        have_held = false;
      }
      dec.update(cipher.data(), got, plain.data());
      const std::size_t body = got - Aes256::kBlockSize;
      if (body != 0 && writing) {
        if (out.write(plain.data(), body) != body) return stats;
        stats.bytes_out += body;
      }
      std::memcpy(held, plain.data() + body, Aes256::kBlockSize);
      have_held = true;
    }
    if (got < chunk_bytes) break;
  }

  if (!have_held) return stats;  // empty or truncated ciphertext
  const int tail = CbcDecryptor::unpad(held);
  if (tail < 0) return stats;
  if (writing && tail > 0) {
    if (out.write(held, static_cast<std::size_t>(tail)) !=
        static_cast<std::size_t>(tail)) {
      return stats;
    }
    stats.bytes_out += static_cast<std::size_t>(tail);
  }
  stats.ok = true;
  return stats;
}

}  // namespace zc::app
