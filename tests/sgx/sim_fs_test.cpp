#include "sgx/sim_fs.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/cycles.hpp"
#include "sgx/tlibc_stdio.hpp"

namespace zc {
namespace {

class SimFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs().clear();
    fs().set_syscall_cycles(0);  // timing-free unit tests
  }
  void TearDown() override {
    fs().clear();
    fs().set_syscall_cycles(250);
  }
  static SimFs& fs() { return SimFs::instance(); }
};

TEST_F(SimFsTest, FopenRbOnMissingFileFails) {
  EXPECT_EQ(fs().fopen("nofile", "rb"), 0u);
  EXPECT_EQ(fs().fopen("nofile", "r+b"), 0u);
}

TEST_F(SimFsTest, FopenWbCreatesAndTruncates) {
  const auto h1 = fs().fopen("f", "wb");
  ASSERT_NE(h1, 0u);
  EXPECT_EQ(fs().fwrite("abcdef", 6, h1), 6u);
  fs().fclose(h1);
  EXPECT_EQ(fs().file_size("f"), 6u);

  const auto h2 = fs().fopen("f", "wb");  // truncates
  ASSERT_NE(h2, 0u);
  EXPECT_EQ(fs().file_size("f"), 0u);
  fs().fclose(h2);
}

TEST_F(SimFsTest, WriteSeekReadRoundTrip) {
  const auto h = fs().fopen("f", "w+b");
  ASSERT_NE(h, 0u);
  EXPECT_EQ(fs().fwrite("0123456789", 10, h), 10u);
  EXPECT_EQ(fs().ftello(h), 10);
  EXPECT_EQ(fs().fseeko(h, 3, SEEK_SET), 0);
  char buf[4];
  EXPECT_EQ(fs().fread(buf, 4, h), 4u);
  EXPECT_EQ(std::string(buf, 4), "3456");
  fs().fclose(h);
}

TEST_F(SimFsTest, SeekWhencesMatchStdio) {
  const auto h = fs().fopen("f", "w+b");
  fs().fwrite("abcdefgh", 8, h);
  EXPECT_EQ(fs().fseeko(h, -2, SEEK_END), 0);
  EXPECT_EQ(fs().ftello(h), 6);
  EXPECT_EQ(fs().fseeko(h, -3, SEEK_CUR), 0);
  EXPECT_EQ(fs().ftello(h), 3);
  EXPECT_EQ(fs().fseeko(h, -10, SEEK_SET), -1);  // negative target
  EXPECT_EQ(fs().fseeko(h, 0, 99), -1);          // bad whence
  fs().fclose(h);
}

TEST_F(SimFsTest, ReadAtEofReturnsZero) {
  const auto h = fs().fopen("f", "w+b");
  fs().fwrite("xy", 2, h);
  char buf[8];
  EXPECT_EQ(fs().fread(buf, 8, h), 0u);  // pos is at EOF after the write
  fs().fseeko(h, 0, SEEK_SET);
  EXPECT_EQ(fs().fread(buf, 8, h), 2u);  // short read at EOF
  fs().fclose(h);
}

TEST_F(SimFsTest, WriteBeyondEofZeroFills) {
  const auto h = fs().fopen("f", "w+b");
  fs().fseeko(h, 4, SEEK_SET);
  fs().fwrite("Z", 1, h);
  EXPECT_EQ(fs().file_size("f"), 5u);
  fs().fseeko(h, 0, SEEK_SET);
  char buf[5];
  EXPECT_EQ(fs().fread(buf, 5, h), 5u);
  EXPECT_EQ(buf[0], 0);
  EXPECT_EQ(buf[4], 'Z');
  fs().fclose(h);
}

TEST_F(SimFsTest, AppendModeAlwaysWritesAtEnd) {
  const auto h1 = fs().fopen("f", "wb");
  fs().fwrite("head", 4, h1);
  fs().fclose(h1);
  const auto h2 = fs().fopen("f", "ab");
  fs().fwrite("tail", 4, h2);
  fs().fclose(h2);
  EXPECT_EQ(fs().file_size("f"), 8u);
}

TEST_F(SimFsTest, ReadOnlyStreamRejectsWrites) {
  const auto w = fs().fopen("f", "wb");
  fs().fwrite("x", 1, w);
  fs().fclose(w);
  const auto r = fs().fopen("f", "rb");
  EXPECT_EQ(fs().fwrite("y", 1, r), 0u);
  fs().fclose(r);
}

TEST_F(SimFsTest, TwoStreamsShareOneFile) {
  const auto w = fs().fopen("f", "wb");
  const auto r = fs().fopen("f", "rb");
  ASSERT_NE(r, 0u);
  fs().fwrite("live", 4, w);
  char buf[4];
  EXPECT_EQ(fs().fread(buf, 4, r), 4u);
  EXPECT_EQ(std::string(buf, 4), "live");
  fs().fclose(w);
  fs().fclose(r);
}

TEST_F(SimFsTest, CloseIsNotIdempotentOnHandle) {
  const auto h = fs().fopen("f", "wb");
  EXPECT_EQ(fs().fclose(h), 0);
  EXPECT_EQ(fs().fclose(h), EOF);
  EXPECT_EQ(fs().fflush(h), EOF);
}

TEST_F(SimFsTest, DevZeroReadsZeroes) {
  const int fd = fs().open("/dev/zero", O_RDONLY);
  ASSERT_GE(fd, 0);
  std::uint64_t word = ~0ULL;
  EXPECT_EQ(fs().read(fd, &word, 8), 8);
  EXPECT_EQ(word, 0u);
  EXPECT_EQ(fs().close(fd), 0);
}

TEST_F(SimFsTest, DevNullSwallowsWrites) {
  const int fd = fs().open("/dev/null", O_WRONLY);
  ASSERT_GE(fd, 0);
  const std::uint64_t word = 42;
  EXPECT_EQ(fs().write(fd, &word, 8), 8);
  EXPECT_EQ(fs().close(fd), 0);
}

TEST_F(SimFsTest, FdPermissionsEnforced) {
  const int fd = fs().open("/dev/zero", O_RDONLY);
  std::uint64_t word = 0;
  EXPECT_EQ(fs().write(fd, &word, 8), -1);
  fs().close(fd);
  const int wfd = fs().open("/dev/null", O_WRONLY);
  EXPECT_EQ(fs().read(wfd, &word, 8), -1);
  fs().close(wfd);
}

TEST_F(SimFsTest, FdFileIoNeedsOCreat) {
  EXPECT_EQ(fs().open("newfile", O_RDWR), -1);
  const int fd = fs().open("newfile", O_RDWR | O_CREAT);
  ASSERT_GE(fd, 0);
  const char data[4] = {'d', 'a', 't', 'a'};
  EXPECT_EQ(fs().write(fd, data, 4), 4);
  fs().close(fd);
  EXPECT_TRUE(fs().exists("newfile"));
}

TEST_F(SimFsTest, BadFdAndBadHandleFail) {
  char buf[1];
  EXPECT_EQ(fs().read(12345, buf, 1), -1);
  EXPECT_EQ(fs().write(12345, buf, 1), -1);
  EXPECT_EQ(fs().close(12345), -1);
  EXPECT_EQ(fs().fread(buf, 1, 999), 0u);
  EXPECT_EQ(fs().fseeko(999, 0, SEEK_SET), -1);
  EXPECT_EQ(fs().ftello(999), -1);
}

TEST_F(SimFsTest, RemoveAndClear) {
  fs().fclose(fs().fopen("a", "wb"));
  fs().fclose(fs().fopen("b", "wb"));
  fs().remove("a");
  EXPECT_FALSE(fs().exists("a"));
  EXPECT_TRUE(fs().exists("b"));
  fs().clear();
  EXPECT_FALSE(fs().exists("b"));
}

TEST_F(SimFsTest, SyscallCostIsCharged) {
  fs().set_syscall_cycles(200'000);
  const std::uint64_t t0 = rdtsc();
  fs().fclose(fs().fopen("f", "wb"));  // two charged operations
  EXPECT_GE(rdtsc() - t0, 400'000u);
}

TEST_F(SimFsTest, ConcurrentWritersOnDistinctFiles) {
  std::vector<std::jthread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t] {
      const std::string path = "file" + std::to_string(t);
      const auto h = fs().fopen(path, "wb");
      for (int i = 0; i < 500; ++i) {
        fs().fwrite(&i, sizeof(i), h);
      }
      fs().fclose(h);
    });
  }
  threads.clear();
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(fs().file_size("file" + std::to_string(t)),
              500 * sizeof(int));
  }
}

// Lookups go through a per-thread memo; a close on another thread must
// still make this thread's next operation on the handle fail.
TEST_F(SimFsTest, HandleClosedOnAnotherThreadFailsNextOp) {
  const auto h = fs().fopen("f", "w+b");
  ASSERT_NE(h, 0u);
  ASSERT_EQ(fs().fwrite("abcdefgh", 8, h), 8u);
  const int fd = fs().open("g", O_RDWR | O_CREAT);
  ASSERT_GE(fd, 0);
  std::atomic<int> step{0};
  std::jthread user([&] {
    char buf[4];
    EXPECT_EQ(fs().fseeko(h, 0, SEEK_SET), 0);
    EXPECT_EQ(fs().fread(buf, 4, h), 4u);  // memoised on this thread
    EXPECT_EQ(fs().write(fd, buf, 4), 4);
    step.store(1, std::memory_order_release);
    while (step.load(std::memory_order_acquire) != 2) std::this_thread::yield();
    EXPECT_EQ(fs().fread(buf, 4, h), 0u);
    EXPECT_EQ(fs().fwrite(buf, 4, h), 0u);
    EXPECT_EQ(fs().fseeko(h, 0, SEEK_SET), -1);
    EXPECT_EQ(fs().ftello(h), -1);
    EXPECT_EQ(fs().fflush(h), EOF);
    EXPECT_EQ(fs().write(fd, buf, 4), -1);
    EXPECT_EQ(fs().read(fd, buf, 4), -1);
  });
  while (step.load(std::memory_order_acquire) != 1) std::this_thread::yield();
  std::jthread closer([&] {
    EXPECT_EQ(fs().fclose(h), 0);
    EXPECT_EQ(fs().close(fd), 0);
  });
  closer.join();
  step.store(2, std::memory_order_release);
  user.join();
  EXPECT_EQ(fs().file_size("f"), 8u);
  EXPECT_EQ(fs().file_size("g"), 4u);
}

// An operation in flight keeps its stream alive, and so keeps a memoised
// reference to it valid; the close must still fail every later lookup.
TEST_F(SimFsTest, CloseFailsHandleWhileAnotherOpHoldsIt) {
  std::vector<std::uint8_t> data(4096, 0x5A);
  for (int round = 0; round < 100; ++round) {
    const auto h = fs().fopen("held", "w+b");
    ASSERT_NE(h, 0u);
    ASSERT_EQ(fs().fwrite(data.data(), data.size(), h), data.size());
    std::uint8_t byte = 0;
    ASSERT_EQ(fs().fseeko(h, 0, SEEK_SET), 0);
    ASSERT_EQ(fs().fread(&byte, 1, h), 1u);  // memoised on this thread
    // From here on only the holder moves the stream's position, and the
    // handle is closed on every path, so the holder always ends.
    std::atomic<bool> reading{false};
    std::jthread holder([&] {
      std::vector<std::uint8_t> buf(data.size());
      for (;;) {
        if (fs().fseeko(h, 0, SEEK_SET) != 0) break;
        if (fs().fread(buf.data(), buf.size(), h) == 0) break;
        reading.store(true, std::memory_order_release);
      }
    });
    while (!reading.load(std::memory_order_acquire)) std::this_thread::yield();
    EXPECT_EQ(fs().fclose(h), 0);
    EXPECT_EQ(fs().fread(&byte, 1, h), 0u) << "round " << round;
    EXPECT_EQ(fs().ftello(h), -1) << "round " << round;
  }
}

TEST_F(SimFsTest, ClearFailsEveryOldHandleAndFd) {
  std::vector<std::uint64_t> handles;
  std::vector<int> fds;
  for (int i = 0; i < 4; ++i) {
    const std::string path = "c" + std::to_string(i);
    handles.push_back(fs().fopen(path, "w+b"));
    ASSERT_NE(handles.back(), 0u);
    ASSERT_EQ(fs().fwrite("x", 1, handles.back()), 1u);  // memoise
    fds.push_back(fs().open(path, O_RDWR));
    ASSERT_GE(fds.back(), 0);
    ASSERT_EQ(fs().write(fds.back(), "y", 1), 1);
  }
  fs().clear();
  char buf[1];
  for (const std::uint64_t h : handles) {
    EXPECT_EQ(fs().fread(buf, 1, h), 0u);
    EXPECT_EQ(fs().fwrite("x", 1, h), 0u);
    EXPECT_EQ(fs().fseeko(h, 0, SEEK_SET), -1);
    EXPECT_EQ(fs().ftello(h), -1);
    EXPECT_EQ(fs().fflush(h), EOF);
    EXPECT_EQ(fs().fclose(h), EOF);
  }
  for (const int fd : fds) {
    EXPECT_EQ(fs().read(fd, buf, 1), -1);
    EXPECT_EQ(fs().write(fd, "y", 1), -1);
    EXPECT_EQ(fs().close(fd), -1);
  }
  // Streams opened afterwards get fresh handles that work.
  const auto h = fs().fopen("c0", "w+b");
  ASSERT_NE(h, 0u);
  for (const std::uint64_t old : handles) EXPECT_NE(h, old);
  EXPECT_EQ(fs().fwrite("z", 1, h), 1u);
  EXPECT_EQ(fs().fclose(h), 0);
}

TEST_F(SimFsTest, ThreadsSeekAndReadTheirOwnFiles) {
  constexpr int kThreads = 2;
  static constexpr std::size_t kBytes = 64 * 1024;
  static constexpr std::size_t kChunk = 24;
  std::vector<std::jthread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      std::vector<std::uint8_t> data(kBytes);
      for (std::size_t i = 0; i < kBytes; ++i) {
        data[i] = static_cast<std::uint8_t>(i * 7 + static_cast<std::size_t>(t) * 101);
      }
      const auto h = fs().fopen("own" + std::to_string(t), "w+b");
      ASSERT_NE(h, 0u);
      ASSERT_EQ(fs().fwrite(data.data(), kBytes, h), kBytes);
      std::uint64_t x = 88172645463325252ull + static_cast<std::uint64_t>(t);
      std::uint8_t buf[kChunk];
      for (int i = 0; i < 20'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::size_t off = x % (kBytes - kChunk);
        ASSERT_EQ(fs().fseeko(h, static_cast<std::int64_t>(off), SEEK_SET), 0);
        ASSERT_EQ(fs().fread(buf, kChunk, h), kChunk);
        ASSERT_EQ(std::memcmp(buf, data.data() + off, kChunk), 0) << off;
      }
      EXPECT_EQ(fs().fclose(h), 0);
    });
  }
}

// More live handles than a thread's memo has slots: lookups that evict
// one another still land on the right stream.
TEST_F(SimFsTest, ManyHandlesOnOneThreadStayDistinct) {
  constexpr int kHandles = 40;
  std::vector<std::uint64_t> handles;
  for (int i = 0; i < kHandles; ++i) {
    handles.push_back(fs().fopen("m" + std::to_string(i), "w+b"));
    ASSERT_NE(handles.back(), 0u);
    const auto byte = static_cast<std::uint8_t>(i);
    ASSERT_EQ(fs().fwrite(&byte, 1, handles.back()), 1u);
  }
  for (int round = 0; round < 3; ++round) {
    for (int i = kHandles - 1; i >= 0; --i) {
      std::uint8_t byte = 0xFF;
      ASSERT_EQ(fs().fseeko(handles[static_cast<std::size_t>(i)], 0, SEEK_SET), 0);
      ASSERT_EQ(fs().fread(&byte, 1, handles[static_cast<std::size_t>(i)]), 1u);
      EXPECT_EQ(byte, static_cast<std::uint8_t>(i));
    }
  }
  for (const std::uint64_t h : handles) EXPECT_EQ(fs().fclose(h), 0);
}

TEST_F(SimFsTest, EnclaveLibcRoundTripThroughSimulatedWorld) {
  SimConfig cfg;
  cfg.tes_cycles = 100;
  auto enclave = Enclave::create(cfg);
  EnclaveLibc libc(*enclave, IoMode::kSimulated);
  EXPECT_EQ(libc.io_mode(), IoMode::kSimulated);

  TFile f = libc.fopen("sim_file", "w+b");
  ASSERT_TRUE(f);
  const std::string data = "through the enclave boundary";
  EXPECT_EQ(f.write(data.data(), data.size()), data.size());
  EXPECT_EQ(f.seek(0, SEEK_SET), 0);
  std::vector<char> buf(data.size());
  EXPECT_EQ(f.read(buf.data(), buf.size()), buf.size());
  EXPECT_EQ(std::string(buf.begin(), buf.end()), data);
  f.close();
  EXPECT_TRUE(fs().exists("sim_file"));

  const int zfd = libc.open("/dev/zero", O_RDONLY);
  std::uint64_t word = 7;
  EXPECT_EQ(libc.read(zfd, &word, 8), 8);
  EXPECT_EQ(word, 0u);
  libc.close(zfd);
}

}  // namespace
}  // namespace zc
