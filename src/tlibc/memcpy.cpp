#include "tlibc/memcpy.hpp"

#include <atomic>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>  // SSE2: _mm_stream_si128 / _mm_sfence
#endif

namespace zc::tlibc {
namespace {

using word = std::uintptr_t;
constexpr std::size_t kWordSize = sizeof(word);
constexpr std::size_t kWordMask = kWordSize - 1;

// Auto-streaming is opt-in: streamed bytes a caller reads straight back
// come from memory, which makes a marshal round trip slower, not faster.
constexpr std::size_t kDefaultNtThreshold = 0;

std::atomic<MemcpyKind> g_active{MemcpyKind::kZc};
std::atomic<std::size_t> g_nt_threshold{kDefaultNtThreshold};

}  // namespace

// The SDK baseline must stay byte-by-byte at every optimisation level: at
// -O3 gcc vectorises the byte loops below, and the unaligned copy that
// figs. 7 and 13 measure would no longer cost what the SDK's does.
#if defined(__clang__)
#define ZC_SCALAR_FN
#define ZC_SCALAR_LOOP \
  _Pragma("clang loop vectorize(disable) interleave(disable)")
#elif defined(__GNUC__)
#define ZC_SCALAR_FN __attribute__((optimize("no-tree-vectorize")))
#define ZC_SCALAR_LOOP
#else
#define ZC_SCALAR_FN
#define ZC_SCALAR_LOOP
#endif

// Port of the BSD memcpy the Intel SDK ships in tlibc
// (sgx_tstdc/.../memcpy.c): when the low bits of src and dst differ the
// whole copy is byte-by-byte; when they agree, leading bytes are copied
// until word alignment, then whole words, then the tail.
ZC_SCALAR_FN void* intel_memcpy(void* dst0, const void* src0,
                                std::size_t length) noexcept {
  auto* dst = static_cast<unsigned char*>(dst0);
  const auto* src = static_cast<const unsigned char*>(src0);
  if (length == 0 || dst == src) return dst0;

  const auto dst_u = reinterpret_cast<std::uintptr_t>(dst);
  const auto src_u = reinterpret_cast<std::uintptr_t>(src);

  if (dst_u < src_u) {
    // Copy forward.
    std::size_t t = src_u;
    if ((t | dst_u) & kWordMask) {
      // Try to align both operands; only possible if they agree mod word.
      if (((t ^ dst_u) & kWordMask) || length < kWordSize) {
        t = length;  // unaligned: degrade to a full byte copy
      } else {
        t = kWordSize - (t & kWordMask);
      }
      length -= t;
      ZC_SCALAR_LOOP
      for (; t != 0; --t) *dst++ = *src++;
    }
    // Word copy, then trailing bytes.
    ZC_SCALAR_LOOP
    for (std::size_t t2 = length / kWordSize; t2 != 0; --t2) {
      *reinterpret_cast<word*>(dst) = *reinterpret_cast<const word*>(src);
      src += kWordSize;
      dst += kWordSize;
    }
    ZC_SCALAR_LOOP
    for (std::size_t t2 = length & kWordMask; t2 != 0; --t2) *dst++ = *src++;
  } else {
    // Copy backwards (overlapping dst > src).
    src += length;
    dst += length;
    std::size_t t = reinterpret_cast<std::uintptr_t>(src);
    if ((t | reinterpret_cast<std::uintptr_t>(dst)) & kWordMask) {
      if (((t ^ reinterpret_cast<std::uintptr_t>(dst)) & kWordMask) ||
          length <= kWordSize) {
        t = length;
      } else {
        t &= kWordMask;
      }
      length -= t;
      ZC_SCALAR_LOOP
      for (; t != 0; --t) *--dst = *--src;
    }
    ZC_SCALAR_LOOP
    for (std::size_t t2 = length / kWordSize; t2 != 0; --t2) {
      src -= kWordSize;
      dst -= kWordSize;
      *reinterpret_cast<word*>(dst) = *reinterpret_cast<const word*>(src);
    }
    ZC_SCALAR_LOOP
    for (std::size_t t2 = length & kWordMask; t2 != 0; --t2) *--dst = *--src;
  }
  return dst0;
}

void* zc_memcpy(void* dst0, const void* src0, std::size_t length) noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  void* dst = dst0;
  const void* src = src0;
  if (length == 0) return dst0;
  if (dst0 <= src0 ||
      static_cast<const char*>(src0) + length <= static_cast<char*>(dst0)) {
    // Paper Listing 1: forward copy with the hardware string instruction.
    __asm__ volatile("rep movsb"
                     : "=D"(dst), "=S"(src), "=c"(length)
                     : "0"(dst), "1"(src), "2"(length)
                     : "memory");
  } else {
    // Overlapping with dst inside [src, src+n): copy backwards (std flag).
    auto* d = static_cast<unsigned char*>(dst0) + length - 1;
    const auto* s = static_cast<const unsigned char*>(src0) + length - 1;
    __asm__ volatile(
        "std\n\t"
        "rep movsb\n\t"
        "cld"
        : "=D"(d), "=S"(s), "=c"(length)
        : "0"(d), "1"(s), "2"(length)
        : "memory");
  }
  return dst0;
#else
  return __builtin_memmove(dst0, src0, length);
#endif
}

// Streaming copy: byte head until dst is 16-aligned, then 64-byte strides
// of unaligned SSE2 loads + non-temporal stores, then a byte tail.  The
// stores bypass the caches, so marshalling a 1 MB sector does not evict the
// crypto working set; sfence publishes them before the function returns
// (workers read the frame after an acquire on the slot state, which the
// fence makes sufficient).
void* zc_memcpy_nt(void* dst0, const void* src0, std::size_t n) noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  auto* d = static_cast<unsigned char*>(dst0);
  const auto* s = static_cast<const unsigned char*>(src0);
  if (n == 0 || d == s) return dst0;
  // Overlap (either direction): the streaming loop reads ahead of its
  // stores, so delegate to the overlap-safe copy.
  const bool overlap = d < s ? (s < d + n) : (d < s + n);
  if (overlap || n < 64) return zc_memcpy(dst0, src0, n);

  while ((reinterpret_cast<std::uintptr_t>(d) & 15) != 0) {
    *d++ = *s++;
    --n;
  }
  while (n >= 64) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 16));
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 32));
    const __m128i e =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 48));
    _mm_stream_si128(reinterpret_cast<__m128i*>(d), a);
    _mm_stream_si128(reinterpret_cast<__m128i*>(d + 16), b);
    _mm_stream_si128(reinterpret_cast<__m128i*>(d + 32), c);
    _mm_stream_si128(reinterpret_cast<__m128i*>(d + 48), e);
    s += 64;
    d += 64;
    n -= 64;
  }
  _mm_sfence();
  while (n != 0) {
    *d++ = *s++;
    --n;
  }
  return dst0;
#else
  return zc_memcpy(dst0, src0, n);
#endif
}

void* tmemset(void* dst, int value, std::size_t n) noexcept {
  auto* d = static_cast<unsigned char*>(dst);
  const auto v = static_cast<unsigned char>(value);
  for (std::size_t i = 0; i < n; ++i) d[i] = v;
  return dst;
}

int tmemcmp(const void* a, const void* b, std::size_t n) noexcept {
  const auto* pa = static_cast<const unsigned char*>(a);
  const auto* pb = static_cast<const unsigned char*>(b);
  for (std::size_t i = 0; i < n; ++i) {
    if (pa[i] != pb[i]) return pa[i] < pb[i] ? -1 : 1;
  }
  return 0;
}

void set_active_memcpy(MemcpyKind kind) noexcept {
  g_active.store(kind, std::memory_order_relaxed);
}

MemcpyKind active_memcpy_kind() noexcept {
  return g_active.load(std::memory_order_relaxed);
}

void set_memcpy_nt_threshold(std::size_t bytes) noexcept {
  g_nt_threshold.store(bytes, std::memory_order_relaxed);
}

std::size_t memcpy_nt_threshold() noexcept {
  return g_nt_threshold.load(std::memory_order_relaxed);
}

void* active_memcpy(void* dst, const void* src, std::size_t n) noexcept {
  switch (active_memcpy_kind()) {
    case MemcpyKind::kZc: {
      const std::size_t threshold = memcpy_nt_threshold();
      if (threshold != 0 && n >= threshold) return zc_memcpy_nt(dst, src, n);
      return zc_memcpy(dst, src, n);
    }
    case MemcpyKind::kZcNt:
      return zc_memcpy_nt(dst, src, n);
    case MemcpyKind::kIntel:
    default:
      return intel_memcpy(dst, src, n);
  }
}

const char* to_string(MemcpyKind kind) noexcept {
  switch (kind) {
    case MemcpyKind::kIntel:
      return "intel";
    case MemcpyKind::kZc:
      return "zc";
    case MemcpyKind::kZcNt:
      return "zc_nt";
  }
  return "?";
}

}  // namespace zc::tlibc
