#include "apps/crypto/sector_store.hpp"

#include <cstring>

#include "apps/crypto/cbc.hpp"
#include "sgx/marshal.hpp"

namespace zc::app {

namespace {

// Per-sector IV: the sector index in both halves, the upper half whitened
// so consecutive sectors never share an IV prefix.  Deterministic, so a
// read pass re-derives the write pass's IVs from the index alone.
void sector_iv(std::uint64_t index, std::uint8_t iv[16]) {
  const std::uint64_t lo = index;
  const std::uint64_t hi = index ^ 0x5EC7'0B1D'5EC7'0B1DULL;
  std::memcpy(iv, &lo, 8);
  std::memcpy(iv + 8, &hi, 8);
}

// Single-copy callbacks: plain C function pointers (the marshalling layer
// takes no closures), with the cipher state threaded through inplace_ctx.

struct ProduceCtx {
  CbcEncryptor* enc;
  const std::uint8_t* plain;
};

void encrypt_into_frame(void* dst, std::size_t n, void* ctx) {
  auto* c = static_cast<ProduceCtx*>(ctx);
  c->enc->update(c->plain, n, static_cast<std::uint8_t*>(dst));
}

struct ConsumeCtx {
  CbcDecryptor* dec;
  std::uint8_t* plain;
};

void decrypt_from_frame(const void* src, std::size_t n, void* ctx) {
  auto* c = static_cast<ConsumeCtx*>(ctx);
  c->dec->update(static_cast<const std::uint8_t*>(src), n, c->plain);
}

}  // namespace

SectorStore::SectorStore(EnclaveLibc& libc, std::string path,
                         std::size_t sector_bytes, const std::uint8_t key[32])
    : libc_(&libc),
      path_(std::move(path)),
      sector_bytes_(sector_bytes),
      aes_(key) {
  if (sector_bytes_ == 0 || sector_bytes_ % Aes256::kBlockSize != 0) {
    sector_bytes_ = 0;  // invalid; every operation refuses
    return;
  }
  staging_.resize(sector_bytes_);
}

bool SectorStore::open_for_write() {
  if (!valid()) return false;
  file_ = libc_->fopen(path_.c_str(), "wb");
  return static_cast<bool>(file_);
}

bool SectorStore::open_for_read() {
  if (!valid()) return false;
  file_ = libc_->fopen(path_.c_str(), "rb");
  return static_cast<bool>(file_);
}

void SectorStore::close() { file_.close(); }

bool SectorStore::write_sector(std::uint64_t index, const std::uint8_t* plain,
                               CopyMode mode) {
  if (!valid() || !file_) return false;
  std::uint8_t iv[16];
  sector_iv(index, iv);
  CbcEncryptor enc(aes_, iv);

  if (mode == CopyMode::kDouble) {
    enc.update(plain, sector_bytes_, staging_.data());
    return file_.write(staging_.data(), sector_bytes_) == sector_bytes_;
  }

  // Single copy: the producer CBC-encrypts straight into the untrusted
  // frame — ciphertext never exists in trusted memory.
  ProduceCtx ctx{&enc, plain};
  FwriteArgs args;
  args.handle = file_.native_handle();
  args.size = sector_bytes_;
  CallDesc desc;
  desc.fn_id = libc_->ids().fwrite;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.in_size = sector_bytes_;
  desc.produce_in = &encrypt_into_frame;
  desc.inplace_ctx = &ctx;
  libc_->enclave().ocall(desc);
  return args.ret == sector_bytes_;
}

bool SectorStore::read_sector(std::uint64_t index, std::uint8_t* plain,
                              CopyMode mode) {
  if (!valid() || !file_) return false;
  std::uint8_t iv[16];
  sector_iv(index, iv);
  CbcDecryptor dec(aes_, iv);

  if (mode == CopyMode::kDouble) {
    if (file_.read(staging_.data(), sector_bytes_) != sector_bytes_) {
      return false;
    }
    dec.update(staging_.data(), sector_bytes_, plain);
    return true;
  }

  // Single copy: the consumer decrypts straight out of the untrusted frame.
  ConsumeCtx ctx{&dec, plain};
  FreadArgs args;
  args.handle = file_.native_handle();
  args.size = sector_bytes_;
  CallDesc desc;
  desc.fn_id = libc_->ids().fread;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.out_size = sector_bytes_;
  desc.consume_out = &decrypt_from_frame;
  desc.inplace_ctx = &ctx;
  libc_->enclave().ocall(desc);
  return args.ret == sector_bytes_;
}

}  // namespace zc::app
