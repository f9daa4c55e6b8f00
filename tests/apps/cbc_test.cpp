#include "apps/crypto/cbc.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace zc::app {
namespace {

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(
        std::stoul(hex.substr(2 * i, 2), nullptr, 16));
  }
  return out;
}

struct Sp80038AF25 {
  // NIST SP 800-38A F.2.5: CBC-AES256 encryption.
  std::vector<std::uint8_t> key = from_hex(
      "603deb1015ca71be2b73aef0857d7781"
      "1f352c073b6108d72d9810a30914dff4");
  std::vector<std::uint8_t> iv = from_hex("000102030405060708090a0b0c0d0e0f");
  std::vector<std::uint8_t> plain = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  std::vector<std::uint8_t> cipher = from_hex(
      "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
      "9cfc4e967edb808d679f777bc6702c7d"
      "39f23369a9d9bacfa530e26304231461"
      "b2eb05e2c39be9fcda6c19078c6a9d1b");
  Aes256 aes{key.data()};
};

TEST(Cbc, NistSp80038AEncryptVector) {
  Sp80038AF25 v;
  CbcEncryptor enc(v.aes, v.iv.data());
  std::vector<std::uint8_t> out(v.plain.size());
  enc.update(v.plain.data(), v.plain.size(), out.data());
  EXPECT_EQ(out, v.cipher);
}

TEST(Cbc, NistSp80038ADecryptVector) {
  Sp80038AF25 v;
  CbcDecryptor dec(v.aes, v.iv.data());
  std::vector<std::uint8_t> out(v.cipher.size());
  dec.update(v.cipher.data(), v.cipher.size(), out.data());
  EXPECT_EQ(out, v.plain);
}

TEST(Cbc, ChunkedUpdatesMatchOneShot) {
  Sp80038AF25 v;
  // Process 16 bytes at a time: the chained IV must carry across calls.
  CbcEncryptor enc(v.aes, v.iv.data());
  std::vector<std::uint8_t> out(v.plain.size());
  for (std::size_t off = 0; off < v.plain.size(); off += 16) {
    enc.update(v.plain.data() + off, 16, out.data() + off);
  }
  EXPECT_EQ(out, v.cipher);
}

TEST(Cbc, FinalPadsPkcs7) {
  Sp80038AF25 v;
  CbcEncryptor enc(v.aes, v.iv.data());
  std::uint8_t out[16];
  const std::uint8_t tail[5] = {'h', 'e', 'l', 'l', 'o'};
  enc.final(tail, 5, out);

  // Decrypting must recover "hello" + 11 bytes of 0x0B.
  CbcDecryptor dec(v.aes, v.iv.data());
  std::uint8_t plain[16];
  dec.update(out, 16, plain);
  EXPECT_EQ(std::memcmp(plain, tail, 5), 0);
  for (int i = 5; i < 16; ++i) EXPECT_EQ(plain[i], 11);
  EXPECT_EQ(CbcDecryptor::unpad(plain), 5);
}

TEST(Cbc, EmptyFinalIsFullPaddingBlock) {
  Sp80038AF25 v;
  CbcEncryptor enc(v.aes, v.iv.data());
  std::uint8_t out[16];
  enc.final(nullptr, 0, out);
  CbcDecryptor dec(v.aes, v.iv.data());
  std::uint8_t plain[16];
  dec.update(out, 16, plain);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(plain[i], 16);
  EXPECT_EQ(CbcDecryptor::unpad(plain), 0);
}

TEST(Cbc, UnpadRejectsMalformedPadding) {
  std::uint8_t block[16] = {};
  block[15] = 0;  // pad length 0 is invalid
  EXPECT_EQ(CbcDecryptor::unpad(block), -1);
  block[15] = 17;  // > block size
  EXPECT_EQ(CbcDecryptor::unpad(block), -1);
  block[15] = 3;
  block[14] = 3;
  block[13] = 4;  // inconsistent padding bytes
  EXPECT_EQ(CbcDecryptor::unpad(block), -1);
}

class CbcRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CbcRoundTrip, OneShotHelpersForEveryLengthClass) {
  const std::size_t n = GetParam();
  std::mt19937 rng(static_cast<unsigned>(n) + 1);
  std::uint8_t key[32];
  std::uint8_t iv[16];
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  for (auto& b : iv) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());

  const auto cipher = cbc_encrypt(key, iv, data.data(), data.size());
  // Ciphertext is padded to the next block boundary.
  EXPECT_EQ(cipher.size(), (n / 16 + 1) * 16);
  const auto back = cbc_decrypt(key, iv, cipher.data(), cipher.size());
  EXPECT_EQ(back, data);
}

INSTANTIATE_TEST_SUITE_P(Lengths, CbcRoundTrip,
                         ::testing::Values(0u, 1u, 15u, 16u, 17u, 31u, 32u,
                                           33u, 255u, 256u, 1000u, 4096u));

TEST(Cbc, DecryptRejectsNonBlockLengths) {
  std::uint8_t key[32] = {};
  std::uint8_t iv[16] = {};
  std::uint8_t junk[10] = {};
  EXPECT_TRUE(cbc_decrypt(key, iv, junk, sizeof(junk)).empty());
  EXPECT_TRUE(cbc_decrypt(key, iv, junk, 0).empty());
}

TEST(Cbc, WrongKeyFailsPaddingWithHighProbability) {
  std::uint8_t key[32] = {1};
  std::uint8_t wrong[32] = {2};
  std::uint8_t iv[16] = {};
  std::vector<std::uint8_t> data(64, 0xAB);
  const auto cipher = cbc_encrypt(key, iv, data.data(), data.size());
  const auto back = cbc_decrypt(wrong, iv, cipher.data(), cipher.size());
  // Either padding check fails (empty) or the content differs.
  if (!back.empty()) {
    EXPECT_NE(back, data);
  }
}

TEST(Cbc, IdenticalPlaintextBlocksEncryptDifferently) {
  std::uint8_t key[32] = {9};
  std::uint8_t iv[16] = {3};
  std::vector<std::uint8_t> data(32, 0x77);  // two identical blocks
  const auto cipher = cbc_encrypt(key, iv, data.data(), data.size());
  EXPECT_NE(std::memcmp(cipher.data(), cipher.data() + 16, 16), 0);
}

// --- The wide AES-NI path against per-block software chaining -------------

// Reference CBC: one software block at a time, chained by hand.
std::vector<std::uint8_t> ref_encrypt(const Aes256& aes,
                                      const std::uint8_t iv[16],
                                      const std::vector<std::uint8_t>& plain) {
  std::vector<std::uint8_t> out(plain.size());
  std::uint8_t chain[16];
  std::memcpy(chain, iv, 16);
  for (std::size_t off = 0; off < plain.size(); off += 16) {
    std::uint8_t block[16];
    for (std::size_t i = 0; i < 16; ++i) {
      block[i] = static_cast<std::uint8_t>(plain[off + i] ^ chain[i]);
    }
    aes.encrypt_block_sw(block, out.data() + off);
    std::memcpy(chain, out.data() + off, 16);
  }
  return out;
}

std::vector<std::uint8_t> ref_decrypt(
    const Aes256& aes, const std::uint8_t iv[16],
    const std::vector<std::uint8_t>& cipher) {
  std::vector<std::uint8_t> out(cipher.size());
  const std::uint8_t* chain = iv;
  for (std::size_t off = 0; off < cipher.size(); off += 16) {
    aes.decrypt_block_sw(cipher.data() + off, out.data() + off);
    for (std::size_t i = 0; i < 16; ++i) out[off + i] ^= chain[i];
    chain = cipher.data() + off;
  }
  return out;
}

struct DiffCase {
  std::uint8_t key[32];
  std::uint8_t iv[16];
  std::vector<std::uint8_t> plain;

  explicit DiffCase(std::size_t blocks) : plain(blocks * 16) {
    std::mt19937 rng(static_cast<unsigned>(blocks) * 7919u + 17u);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng());
    for (auto& b : iv) b = static_cast<std::uint8_t>(rng());
    for (auto& b : plain) b = static_cast<std::uint8_t>(rng());
  }
};

// Block counts around the 8-wide group: below, at and across multiples of
// 8, plus a 1 KB and a 4 KB sector.
std::vector<std::size_t> diff_block_counts() {
  std::vector<std::size_t> counts;
  for (std::size_t b = 0; b <= 33; ++b) counts.push_back(b);
  counts.push_back(64);
  counts.push_back(256);
  return counts;
}

class CbcSoftware : public ::testing::TestWithParam<std::size_t> {};

// The software CBC loops are the fallback without AES-NI: they must match
// the hand-chained reference on every CPU.
TEST_P(CbcSoftware, LoopsMatchPerBlockChaining) {
  const DiffCase c(GetParam());
  const Aes256 aes(c.key);
  const auto want = ref_encrypt(aes, c.iv, c.plain);
  std::vector<std::uint8_t> got(c.plain.size());
  std::uint8_t iv[16];
  std::memcpy(iv, c.iv, 16);
  aes.cbc_encrypt_sw(iv, c.plain.data(), c.plain.size(), got.data());
  EXPECT_EQ(got, want);

  std::memcpy(iv, c.iv, 16);
  aes.cbc_decrypt_sw(iv, want.data(), want.size(), got.data());
  EXPECT_EQ(got, c.plain);
  EXPECT_EQ(got, ref_decrypt(aes, c.iv, want));
}

INSTANTIATE_TEST_SUITE_P(Blocks, CbcSoftware,
                         ::testing::ValuesIn(diff_block_counts()));

class CbcWide : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (!Aes256::has_aesni()) {
      GTEST_SKIP() << "CPU lacks AES-NI: only the software path runs here";
    }
  }
};

TEST_P(CbcWide, MatchesPerBlockSoftwareChaining) {
  const DiffCase c(GetParam());
  const Aes256 aes(c.key);
  const auto want = ref_encrypt(aes, c.iv, c.plain);

  CbcEncryptor enc(aes, c.iv);
  std::vector<std::uint8_t> cipher(c.plain.size());
  enc.update(c.plain.data(), c.plain.size(), cipher.data());
  EXPECT_EQ(cipher, want);

  CbcDecryptor dec(aes, c.iv);
  std::vector<std::uint8_t> plain(cipher.size());
  dec.update(cipher.data(), cipher.size(), plain.data());
  EXPECT_EQ(plain, c.plain);
  EXPECT_EQ(plain, ref_decrypt(aes, c.iv, cipher));
}

// Two updates split at every block offset: the running IV must carry across
// a boundary that is not a multiple of the 8-block group.
TEST_P(CbcWide, SplitUpdatesCarryTheIvAtEveryBlockOffset) {
  const DiffCase c(GetParam());
  const Aes256 aes(c.key);
  const auto want = ref_encrypt(aes, c.iv, c.plain);
  const std::size_t n = c.plain.size();
  for (std::size_t split = 0; split <= n; split += 16) {
    CbcEncryptor enc(aes, c.iv);
    std::vector<std::uint8_t> cipher(n);
    enc.update(c.plain.data(), split, cipher.data());
    enc.update(c.plain.data() + split, n - split, cipher.data() + split);
    EXPECT_EQ(cipher, want) << "split at byte " << split;

    CbcDecryptor dec(aes, c.iv);
    std::vector<std::uint8_t> plain(n);
    dec.update(want.data(), split, plain.data());
    dec.update(want.data() + split, n - split, plain.data() + split);
    EXPECT_EQ(plain, c.plain) << "split at byte " << split;
  }
}

TEST_P(CbcWide, InPlaceMatchesOutOfPlace) {
  const DiffCase c(GetParam());
  const Aes256 aes(c.key);
  const auto want = ref_encrypt(aes, c.iv, c.plain);

  std::vector<std::uint8_t> buf = c.plain;
  CbcEncryptor enc(aes, c.iv);
  enc.update(buf.data(), buf.size(), buf.data());
  EXPECT_EQ(buf, want);

  CbcDecryptor dec(aes, c.iv);
  dec.update(buf.data(), buf.size(), buf.data());
  EXPECT_EQ(buf, c.plain);
}

INSTANTIATE_TEST_SUITE_P(Blocks, CbcWide,
                         ::testing::ValuesIn(diff_block_counts()));

TEST(Cbc, NistSp80038AVectorThroughBothPaths) {
  Sp80038AF25 v;
  std::vector<std::uint8_t> out(v.plain.size());
  std::uint8_t iv[16];

  std::memcpy(iv, v.iv.data(), 16);
  v.aes.cbc_encrypt_sw(iv, v.plain.data(), v.plain.size(), out.data());
  EXPECT_EQ(out, v.cipher);
  std::memcpy(iv, v.iv.data(), 16);
  v.aes.cbc_decrypt_sw(iv, v.cipher.data(), v.cipher.size(), out.data());
  EXPECT_EQ(out, v.plain);

  if (!Aes256::has_aesni()) {
    GTEST_SKIP() << "CPU lacks AES-NI: software path checked only";
  }
  std::memcpy(iv, v.iv.data(), 16);
  v.aes.cbc_encrypt(iv, v.plain.data(), v.plain.size(), out.data());
  EXPECT_EQ(out, v.cipher);
  std::memcpy(iv, v.iv.data(), 16);
  v.aes.cbc_decrypt(iv, v.cipher.data(), v.cipher.size(), out.data());
  EXPECT_EQ(out, v.plain);
  // The running IV ends on the last ciphertext block.
  EXPECT_EQ(std::memcmp(iv, v.cipher.data() + v.cipher.size() - 16, 16), 0);
}

}  // namespace
}  // namespace zc::app
