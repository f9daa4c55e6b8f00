#include "apps/crypto/sector_store.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <vector>

#include "apps/crypto/cbc.hpp"
#include "core/backend_registry.hpp"

namespace zc::app {
namespace {

class SectorStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimConfig cfg;
    cfg.tes_cycles = 200;
    enclave_ = Enclave::create(cfg);
    libc_ = std::make_unique<EnclaveLibc>(*enclave_);
    path_ = testutil::unique_tmp_path("zc_sectors").string() + ".bin";
    for (std::size_t i = 0; i < sizeof(key_); ++i) {
      key_[i] = static_cast<std::uint8_t>(i * 11 + 3);
    }
  }
  void TearDown() override {
    enclave_->set_backend(nullptr);
    std::filesystem::remove(path_);
  }

  std::vector<std::uint8_t> sector_pattern(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::vector<std::uint8_t> data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    return data;
  }

  std::vector<std::uint8_t> read_file_bytes() {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  // Writes `sectors` sectors in `write_mode`, reads them back in
  // `read_mode`, and checks the decrypted plaintext round-trips.  Returns
  // the on-disk ciphertext for cross-mode comparison.
  std::vector<std::uint8_t> round_trip(std::size_t sector_bytes,
                                       std::uint64_t sectors,
                                       CopyMode write_mode,
                                       CopyMode read_mode) {
    SectorStore store(*libc_, path_, sector_bytes, key_);
    EXPECT_TRUE(store.valid());
    EXPECT_TRUE(store.open_for_write());
    std::vector<std::vector<std::uint8_t>> plains;
    for (std::uint64_t i = 0; i < sectors; ++i) {
      plains.push_back(
          sector_pattern(sector_bytes, static_cast<unsigned>(i + 1)));
      EXPECT_TRUE(store.write_sector(i, plains.back().data(), write_mode))
          << i;
    }
    store.close();

    EXPECT_TRUE(store.open_for_read());
    std::vector<std::uint8_t> out(sector_bytes);
    for (std::uint64_t i = 0; i < sectors; ++i) {
      EXPECT_TRUE(store.read_sector(i, out.data(), read_mode)) << i;
      EXPECT_EQ(out, plains[i]) << "sector " << i;
    }
    store.close();
    return read_file_bytes();
  }

  std::unique_ptr<Enclave> enclave_;
  std::unique_ptr<EnclaveLibc> libc_;
  std::string path_;
  std::uint8_t key_[32];
};

TEST_F(SectorStoreTest, DoubleCopyRoundTrips) {
  round_trip(4096, 8, CopyMode::kDouble, CopyMode::kDouble);
}

TEST_F(SectorStoreTest, SingleCopyRoundTrips) {
  round_trip(4096, 8, CopyMode::kSingle, CopyMode::kSingle);
}

TEST_F(SectorStoreTest, ModesInteroperateEitherWay) {
  // A file written with the staging discipline must read back through the
  // in-place consumer, and vice versa: same ciphertext, same plaintext.
  round_trip(512, 6, CopyMode::kDouble, CopyMode::kSingle);
  round_trip(512, 6, CopyMode::kSingle, CopyMode::kDouble);
}

TEST_F(SectorStoreTest, CiphertextFilesAreIdenticalAcrossModes) {
  const auto double_copy =
      round_trip(2048, 5, CopyMode::kDouble, CopyMode::kDouble);
  const auto single_copy =
      round_trip(2048, 5, CopyMode::kSingle, CopyMode::kSingle);
  EXPECT_FALSE(double_copy.empty());
  EXPECT_EQ(double_copy.size(), 5u * 2048u);
  EXPECT_EQ(double_copy, single_copy);
}

TEST_F(SectorStoreTest, ReusedKeyScheduleMatchesFreshEncryptorPerSector) {
  // The store expands its key once and reuses the schedule for every
  // sector; the file must equal what a fresh key schedule and encryptor
  // per sector produce, with the store's per-sector IV (index in the low
  // half, whitened index in the high half).
  constexpr std::size_t kSector = 4096;
  constexpr std::uint64_t kSectors = 40;
  for (const CopyMode mode : {CopyMode::kDouble, CopyMode::kSingle}) {
    std::vector<std::uint8_t> want;
    {
      SectorStore store(*libc_, path_, kSector, key_);
      ASSERT_TRUE(store.open_for_write());
      for (std::uint64_t i = 0; i < kSectors; ++i) {
        const auto plain =
            sector_pattern(kSector, static_cast<unsigned>(i + 100));
        ASSERT_TRUE(store.write_sector(i, plain.data(), mode)) << i;

        std::uint8_t iv[16];
        const std::uint64_t hi = i ^ 0x5EC7'0B1D'5EC7'0B1DULL;
        std::memcpy(iv, &i, 8);
        std::memcpy(iv + 8, &hi, 8);
        const Aes256 fresh(key_);
        CbcEncryptor enc(fresh, iv);
        std::vector<std::uint8_t> cipher(kSector);
        enc.update(plain.data(), kSector, cipher.data());
        want.insert(want.end(), cipher.begin(), cipher.end());
      }
      store.close();
    }
    EXPECT_EQ(read_file_bytes(), want)
        << (mode == CopyMode::kDouble ? "double" : "single") << " copy";
  }
}

TEST_F(SectorStoreTest, DistinctSectorsGetDistinctCiphertext) {
  // Same plaintext in two sectors: the per-sector IV must make the
  // ciphertext blocks differ.
  SectorStore store(*libc_, path_, 256, key_);
  ASSERT_TRUE(store.open_for_write());
  const auto plain = sector_pattern(256, 7);
  ASSERT_TRUE(store.write_sector(0, plain.data(), CopyMode::kDouble));
  ASSERT_TRUE(store.write_sector(1, plain.data(), CopyMode::kDouble));
  store.close();
  const auto bytes = read_file_bytes();
  ASSERT_EQ(bytes.size(), 512u);
  EXPECT_NE(std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + 256),
            std::vector<std::uint8_t>(bytes.begin() + 256, bytes.end()));
}

TEST_F(SectorStoreTest, SingleCopyDrivesTheBackendElisionCounter) {
  install_backend_spec(*enclave_, "zc:workers=1;pool=slab;copy=single");
  EXPECT_EQ(enclave_->backend().copy_mode(), CopyMode::kSingle);
  const CopyMode mode = enclave_->backend().copy_mode();
  SectorStore store(*libc_, path_, 1024, key_);
  ASSERT_TRUE(store.open_for_write());
  const auto plain = sector_pattern(1024, 3);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.write_sector(i, plain.data(), mode));
  }
  store.close();
  ASSERT_TRUE(store.open_for_read());
  std::vector<std::uint8_t> out(1024);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.read_sector(i, out.data(), mode));
    EXPECT_EQ(out, plain);
  }
  store.close();
  // One elided staging copy per sector transfer (producer on writes,
  // consumer on reads): 8 transfers -> at least 8.
  EXPECT_GE(enclave_->backend().stats_snapshot().copies_elided, 8u);
}

TEST_F(SectorStoreTest, InvalidSectorSizesAreRefused) {
  for (const std::size_t bad : {0u, 100u, 513u}) {
    SectorStore store(*libc_, path_, bad, key_);
    EXPECT_FALSE(store.valid()) << bad;
    EXPECT_FALSE(store.open_for_write()) << bad;
    std::uint8_t buf[513] = {};
    EXPECT_FALSE(store.write_sector(0, buf, CopyMode::kDouble)) << bad;
    EXPECT_FALSE(store.read_sector(0, buf, CopyMode::kSingle)) << bad;
  }
}

TEST_F(SectorStoreTest, OperationsWithoutOpenFail) {
  SectorStore store(*libc_, path_, 256, key_);
  ASSERT_TRUE(store.valid());
  std::uint8_t buf[256] = {};
  EXPECT_FALSE(store.write_sector(0, buf, CopyMode::kDouble));
  EXPECT_FALSE(store.read_sector(0, buf, CopyMode::kDouble));
}

}  // namespace
}  // namespace zc::app
