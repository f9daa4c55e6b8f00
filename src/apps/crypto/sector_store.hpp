// Encrypted sector store: the fig14 large-payload workload.
//
// A sector store encrypts fixed-size sectors with AES-256-CBC (per-sector
// IV derived from the sector index, sector sizes a multiple of the AES
// block so no padding is ever written) and moves the ciphertext across the
// enclave boundary with one fwrite/fread ocall per sector.  The marshalled
// payload *is* the sector, so sector size sweeps stress exactly the copy
// regime of Figs. 7/13: at large sectors the boundary copies dominate the
// round trip.
//
// Each transfer runs in one of two data-plane disciplines:
//
//  * CopyMode::kDouble — the classic edger8r shape.  Writes encrypt into a
//    trusted staging buffer and hand it to the marshalling layer, which
//    copies it again into the untrusted frame (two passes over the
//    sector).  Reads mirror it: frame -> staging -> decrypt.
//  * CopyMode::kSingle — the zero-copy shape.  Writes attach a
//    PayloadProducer that CBC-encrypts *directly into the untrusted
//    frame*; reads attach a PayloadConsumer that decrypts directly from
//    it.  The trusted staging pass disappears (the backend's
//    copies_elided counter records each one), which is the win the
//    fig14 bench quantifies.
//
// Both disciplines produce byte-identical files and plaintext — pinned by
// the unit tests and the cross-backend equivalence suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/crypto/aes.hpp"
#include "sgx/tlibc_stdio.hpp"

namespace zc::app {

class SectorStore {
 public:
  /// `sector_bytes` must be a non-zero multiple of 16 (the AES block).
  /// The key is expanded once, here, and only its schedule is kept (wiped
  /// on destruction); the store derives one IV per sector from `index`.
  SectorStore(EnclaveLibc& libc, std::string path, std::size_t sector_bytes,
              const std::uint8_t key[32]);

  /// True when the constructor arguments were valid.
  bool valid() const noexcept { return sector_bytes_ != 0; }
  std::size_t sector_bytes() const noexcept { return sector_bytes_; }

  /// (Re)opens the backing file for a sequential write / read pass.
  bool open_for_write();
  bool open_for_read();
  void close();

  /// Encrypts `plain` (sector_bytes) and appends it as sector `index`
  /// (sectors are written in index order on a write pass; `index` feeds
  /// the IV derivation).  False on I/O failure.
  bool write_sector(std::uint64_t index, const std::uint8_t* plain,
                    CopyMode mode);

  /// Reads the next sector of a sequential read pass and decrypts it into
  /// `plain` (sector_bytes); `index` must match the write-time index.
  bool read_sector(std::uint64_t index, std::uint8_t* plain, CopyMode mode);

 private:
  EnclaveLibc* libc_;
  std::string path_;
  std::size_t sector_bytes_;
  Aes256 aes_;
  TFile file_;
  /// Trusted ciphertext bounce buffer — the copy kDouble pays and kSingle
  /// elides.  Kept across sectors so its allocation is not on the hot path.
  std::vector<std::uint8_t> staging_;
};

}  // namespace zc::app
