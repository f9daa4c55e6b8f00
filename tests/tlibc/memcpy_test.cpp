#include "tlibc/memcpy.hpp"

#include <gtest/gtest.h>

#include "common/cycles.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <tuple>
#include <vector>

namespace zc::tlibc {
namespace {

using CopyFn = void* (*)(void*, const void*, std::size_t) noexcept;

// The process-wide kind and streaming threshold as the library ships them,
// read during static initialisation, before any test can change them.
// Both are constant-initialised, so these reads cannot see unset values.
const MemcpyKind kStartupKind = active_memcpy_kind();
const std::size_t kStartupNtThreshold = memcpy_nt_threshold();

// Parameterized over (implementation, size, src offset, dst offset): both
// implementations must match libc memcpy for every alignment combination —
// in particular the unaligned cases where Intel's algorithm degrades to a
// byte copy (the paper's Fig. 7 pathology) must still be *correct*.
class MemcpyCorrectness
    : public ::testing::TestWithParam<
          std::tuple<int, std::size_t, std::size_t, std::size_t>> {
 protected:
  static CopyFn fn() {
    switch (std::get<0>(GetParam())) {
      case 0: return &intel_memcpy;
      case 1: return &zc_memcpy;
      default: return &zc_memcpy_nt;
    }
  }
};

TEST_P(MemcpyCorrectness, MatchesReference) {
  const auto [impl, size, src_off, dst_off] = GetParam();
  (void)impl;
  std::vector<std::uint8_t> src_buf(size + src_off + 64, 0);
  std::vector<std::uint8_t> dst_buf(size + dst_off + 64, 0xEE);
  std::vector<std::uint8_t> expect_buf(dst_buf);

  std::mt19937 rng(static_cast<unsigned>(size * 31 + src_off * 7 + dst_off));
  for (auto& b : src_buf) b = static_cast<std::uint8_t>(rng());

  void* ret = fn()(dst_buf.data() + dst_off, src_buf.data() + src_off, size);
  std::memcpy(expect_buf.data() + dst_off, src_buf.data() + src_off, size);

  EXPECT_EQ(ret, dst_buf.data() + dst_off);
  EXPECT_EQ(dst_buf, expect_buf);
}

INSTANTIATE_TEST_SUITE_P(
    AlignmentSweep, MemcpyCorrectness,
    ::testing::Combine(::testing::Values(0, 1, 2),  // intel, zc, zc_nt
                       ::testing::Values(0u, 1u, 7u, 8u, 15u, 64u, 511u,
                                         4096u, 32'768u),
                       ::testing::Values(0u, 1u, 3u, 7u),   // src offset
                       ::testing::Values(0u, 1u, 4u, 7u)),  // dst offset
    [](const auto& info) {
      const int impl = std::get<0>(info.param);
      return std::string(impl == 0 ? "intel" : impl == 1 ? "zc" : "zc_nt") +
             "_n" + std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param)) + "_d" +
             std::to_string(std::get<3>(info.param));
    });

// zc_memcpy against std::memcpy over every size up to 80 B (argument
// structs, keys and values), the sizes around a cache line and a page, and
// one 128 KiB bulk chunk — each at every src/dst misalignment 0-15, with
// guard bytes on both sides to catch overruns.
TEST(ZcMemcpySweep, MatchesMemcpyAtEverySizeAndOffset) {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 80; ++n) sizes.push_back(n);
  for (const std::size_t n : {127u, 128u, 129u, 4095u, 4096u, 4097u,
                              128u * 1024u}) {
    sizes.push_back(n);
  }
  constexpr std::size_t kGuard = 32;
  constexpr std::size_t kMaxOff = 16;
  std::mt19937 rng(7);
  for (const std::size_t n : sizes) {
    std::vector<std::uint8_t> src(n + kMaxOff);
    for (auto& b : src) b = static_cast<std::uint8_t>(rng());
    std::vector<std::uint8_t> dst(kGuard + kMaxOff + n + kGuard);
    std::vector<std::uint8_t> expect(dst.size());
    for (std::size_t src_off = 0; src_off < kMaxOff; ++src_off) {
      for (std::size_t dst_off = 0; dst_off < kMaxOff; ++dst_off) {
        std::fill(dst.begin(), dst.end(), std::uint8_t{0xEE});
        std::fill(expect.begin(), expect.end(), std::uint8_t{0xEE});
        std::uint8_t* d = dst.data() + kGuard + dst_off;
        void* ret = zc_memcpy(d, src.data() + src_off, n);
        std::memcpy(expect.data() + kGuard + dst_off, src.data() + src_off, n);
        ASSERT_EQ(ret, d) << "n=" << n;
        ASSERT_TRUE(dst == expect)
            << "n=" << n << " src_off=" << src_off << " dst_off=" << dst_off;
      }
    }
  }
}

// Overlapping copies in both directions, every shift, checked against
// std::memmove: every copy must pick the right rep-movsb direction.
TEST(ZcMemcpySweep, OverlapMatchesMemmoveBothDirections) {
  constexpr std::size_t kBuf = 256;
  std::vector<std::uint8_t> init(kBuf);
  for (std::size_t i = 0; i < kBuf; ++i) {
    init[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  for (std::size_t n = 1; n <= 80; ++n) {
    for (std::size_t shift = 1; shift <= n; ++shift) {
      for (const bool forward : {true, false}) {
        // forward: dst = src + shift (dst above src); else dst below src.
        const std::size_t lo = 40;
        const std::size_t src_at = forward ? lo : lo + shift;
        const std::size_t dst_at = forward ? lo + shift : lo;
        std::vector<std::uint8_t> buf(init);
        std::vector<std::uint8_t> expect(init);
        zc_memcpy(buf.data() + dst_at, buf.data() + src_at, n);
        std::memmove(expect.data() + dst_at, expect.data() + src_at, n);
        ASSERT_TRUE(buf == expect) << "n=" << n << " shift=" << shift
                                   << (forward ? " dst>src" : " dst<src");
      }
    }
  }
}

class MemcpyOverlap : public ::testing::TestWithParam<int> {
 protected:
  static CopyFn fn() {
    switch (GetParam()) {
      case 0: return &intel_memcpy;
      case 1: return &zc_memcpy;
      default: return &zc_memcpy_nt;  // overlap must fall back safely
    }
  }
};

TEST_P(MemcpyOverlap, ForwardOverlapCopiesBackwards) {
  // dst > src, ranges overlap: must behave like memmove.
  std::vector<std::uint8_t> buf(64);
  std::vector<std::uint8_t> expect(64);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i);
    expect[i] = static_cast<std::uint8_t>(i);
  }
  fn()(buf.data() + 8, buf.data(), 32);
  std::memmove(expect.data() + 8, expect.data(), 32);
  EXPECT_EQ(buf, expect);
}

TEST_P(MemcpyOverlap, BackwardOverlap) {
  // dst < src, overlapping: forward copy must be safe.
  std::vector<std::uint8_t> buf(64);
  std::vector<std::uint8_t> expect(64);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 3);
    expect[i] = static_cast<std::uint8_t>(i * 3);
  }
  fn()(buf.data(), buf.data() + 8, 32);
  std::memmove(expect.data(), expect.data() + 8, 32);
  EXPECT_EQ(buf, expect);
}

TEST_P(MemcpyOverlap, SelfCopyIsNoop) {
  std::vector<std::uint8_t> buf{1, 2, 3, 4, 5};
  fn()(buf.data(), buf.data(), buf.size());
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

TEST_P(MemcpyOverlap, ZeroLengthTouchesNothing) {
  std::vector<std::uint8_t> buf{7, 7, 7};
  fn()(buf.data(), buf.data() + 1, 0);
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{7, 7, 7}));
}

INSTANTIATE_TEST_SUITE_P(AllImpls, MemcpyOverlap, ::testing::Values(0, 1, 2),
                         [](const auto& info) {
                           return info.param == 0   ? std::string("intel")
                                  : info.param == 1 ? std::string("zc")
                                                    : std::string("zc_nt");
                         });

TEST(Tmemset, FillsExactRange) {
  std::vector<std::uint8_t> buf(32, 0xAA);
  tmemset(buf.data() + 8, 0x11, 16);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(buf[i], 0xAA);
  for (std::size_t i = 8; i < 24; ++i) EXPECT_EQ(buf[i], 0x11);
  for (std::size_t i = 24; i < 32; ++i) EXPECT_EQ(buf[i], 0xAA);
}

TEST(Tmemset, TruncatesValueToByte) {
  std::uint8_t b = 0;
  tmemset(&b, 0x1FF, 1);
  EXPECT_EQ(b, 0xFF);
}

TEST(Tmemcmp, OrdersLikeLibc) {
  const char a[] = "abcdef";
  const char b[] = "abcdeg";
  EXPECT_EQ(tmemcmp(a, a, 6), 0);
  EXPECT_LT(tmemcmp(a, b, 6), 0);
  EXPECT_GT(tmemcmp(b, a, 6), 0);
  EXPECT_EQ(tmemcmp(a, b, 5), 0);  // differ only at index 5
  EXPECT_EQ(tmemcmp(a, b, 0), 0);
}

TEST(ActiveMemcpy, DefaultIsZc) {
  // The paper's copy is what ships; the SDK copy is opt-in.
  EXPECT_EQ(kStartupKind, MemcpyKind::kZc);
}

TEST(ActiveMemcpy, SwitchTakesEffect) {
  const MemcpyKind before = active_memcpy_kind();
  set_active_memcpy(MemcpyKind::kIntel);
  EXPECT_EQ(active_memcpy_kind(), MemcpyKind::kIntel);
  std::uint8_t src[16] = {1, 2, 3};
  std::uint8_t dst[16] = {};
  active_memcpy(dst, src, sizeof(src));
  EXPECT_EQ(std::memcmp(dst, src, sizeof(src)), 0);
  set_active_memcpy(before);
}

TEST(ActiveMemcpy, ScopedGuardRestores) {
  const MemcpyKind before = active_memcpy_kind();
  set_active_memcpy(MemcpyKind::kZc);
  {
    ScopedMemcpy guard(MemcpyKind::kIntel);
    EXPECT_EQ(active_memcpy_kind(), MemcpyKind::kIntel);
  }
  EXPECT_EQ(active_memcpy_kind(), MemcpyKind::kZc);
  set_active_memcpy(before);
}

TEST(ActiveMemcpy, Names) {
  EXPECT_STREQ(to_string(MemcpyKind::kIntel), "intel");
  EXPECT_STREQ(to_string(MemcpyKind::kZc), "zc");
  EXPECT_STREQ(to_string(MemcpyKind::kZcNt), "zc_nt");
}

TEST(ActiveMemcpy, ZcNtKindCopiesThroughStreamingPath) {
  ScopedMemcpy guard(MemcpyKind::kZcNt);
  EXPECT_EQ(active_memcpy_kind(), MemcpyKind::kZcNt);
  std::vector<std::uint8_t> src(200'000);
  std::vector<std::uint8_t> dst(200'000, 0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  active_memcpy(dst.data() + 1, src.data() + 3, src.size() - 3);
  EXPECT_EQ(std::memcmp(dst.data() + 1, src.data() + 3, src.size() - 3), 0);
}

// --- Streaming auto-threshold ------------------------------------------------
//
// Mutating tests restore the threshold they found.

TEST(NtThreshold, DefaultIsOff) {
  // Auto-streaming ships off: a marshalled kZc copy of any size stays one
  // rep movsb unless a caller opts into the route.
  EXPECT_EQ(kStartupNtThreshold, 0u);
}

TEST(NtThreshold, SetterIsObservable) {
  const std::size_t saved = memcpy_nt_threshold();
  set_memcpy_nt_threshold(4096);
  EXPECT_EQ(memcpy_nt_threshold(), 4096u);
  set_memcpy_nt_threshold(0);
  EXPECT_EQ(memcpy_nt_threshold(), 0u);
  set_memcpy_nt_threshold(saved);
}

TEST(NtThreshold, ZcRoutesLargeCopiesCorrectlyAboveThreshold) {
  // kZc copies at/above the threshold take the non-temporal path; the
  // observable contract is byte-exactness either side of the boundary.
  ScopedMemcpy guard(MemcpyKind::kZc);
  const std::size_t saved = memcpy_nt_threshold();
  set_memcpy_nt_threshold(1024);
  std::vector<std::uint8_t> src(8192);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i ^ (i >> 5));
  }
  for (const std::size_t n : {512u, 1023u, 1024u, 1025u, 8000u}) {
    std::vector<std::uint8_t> dst(n + 8, 0xAB);
    active_memcpy(dst.data() + 5, src.data() + 2, n);  // unaligned both ends
    EXPECT_EQ(std::memcmp(dst.data() + 5, src.data() + 2, n), 0) << n;
    EXPECT_EQ(dst[n + 5], 0xAB) << n;  // no overrun
  }
  set_memcpy_nt_threshold(saved);
}

TEST(NtThreshold, ZeroDisablesAutoRouting) {
  ScopedMemcpy guard(MemcpyKind::kZc);
  const std::size_t saved = memcpy_nt_threshold();
  set_memcpy_nt_threshold(0);
  std::vector<std::uint8_t> src(512 * 1024, 0x3C);
  std::vector<std::uint8_t> dst(512 * 1024, 0);
  active_memcpy(dst.data(), src.data(), src.size());
  EXPECT_EQ(dst, src);
  set_memcpy_nt_threshold(saved);
}

// Cycles for eight 1 MB copies with src aligned and with src off by one,
// each the least of five trials that alternate the two alignments, so a
// cold first pass or one preemption cannot decide the ratio.
struct AlignmentCycles {
  std::uint64_t aligned = UINT64_MAX;
  std::uint64_t unaligned = UINT64_MAX;
};

AlignmentCycles time_alignments(CopyFn copy) {
  constexpr std::size_t kN = 1 << 20;
  std::vector<std::uint8_t> src(kN + 1);
  std::vector<std::uint8_t> dst(kN + 1);

  auto time_copy = [&](std::size_t src_off) {
    const std::uint64_t t0 = zc::rdtsc();
    for (int i = 0; i < 8; ++i) {
      copy(dst.data(), src.data() + src_off, kN);
    }
    return zc::rdtsc() - t0;
  };
  AlignmentCycles best;
  for (int trial = 0; trial < 5; ++trial) {
    best.aligned = std::min(best.aligned, time_copy(0));
    best.unaligned = std::min(best.unaligned, time_copy(1));
  }
  return best;
}

TEST(MemcpyPerformance, IntelUnalignedIsSlowerThanAligned) {
  // The root cause of Fig. 7: Intel's byte-by-byte path. Compare cycles for
  // a large copy, aligned vs misaligned-by-one. Ratios are machine
  // dependent; require only a conservative 1.5x gap.
  const AlignmentCycles t = time_alignments(&intel_memcpy);
  EXPECT_GT(static_cast<double>(t.unaligned),
            1.5 * static_cast<double>(t.aligned));
}

TEST(MemcpyPerformance, ZcCloseGapBetweenAlignments) {
  // rep movsb should be nearly alignment-insensitive (within 3x).
  const AlignmentCycles t = time_alignments(&zc_memcpy);
  EXPECT_LT(static_cast<double>(t.unaligned),
            3.0 * static_cast<double>(t.aligned));
}

}  // namespace
}  // namespace zc::tlibc
