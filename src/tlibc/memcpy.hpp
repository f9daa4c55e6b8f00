// Trusted-libc memory primitives.
//
// The Intel SGX SDK statically links its own libc subset (tlibc) into the
// enclave.  Its memcpy (BSD-derived) copies word-by-word only when `src` and
// `dst` are congruent modulo the word size, and falls back to a byte-by-byte
// loop otherwise — the paper measures up to 15x slowdown for unaligned
// buffers (§IV-F, Fig. 7).  ZC-Switchless replaces it with a `rep movsb`
// copy (Listing 1), fast for both cases on ERMS-capable CPUs.
//
// Both algorithms are reproduced here, plus a process-wide *active* memcpy
// switch: all cross-boundary marshalling in the simulated SGX substrate goes
// through `active_memcpy`, so the memcpy choice affects every ocall exactly
// as it does in the SDK.  The shipped default is `zc_memcpy` (kZc), the
// paper's copy; `intel_memcpy` (kIntel) is the SDK baseline that benches
// and differential tests select explicitly through ScopedMemcpy.
#pragma once

#include <cstddef>

namespace zc::tlibc {

/// Faithful reimplementation of the Intel SGX SDK tlibc memcpy:
/// word-by-word when src ≡ dst (mod sizeof(word)), else byte-by-byte.
/// Handles overlap like BSD bcopy (copies backwards when dst > src).
void* intel_memcpy(void* dst, const void* src, std::size_t n) noexcept;

/// ZC-Switchless optimised memcpy (paper Listing 1): a single `rep movsb`.
/// Memmove-safe: overlapping copies with dst > src run backwards.
/// On non-x86 builds this degrades to __builtin_memmove.
void* zc_memcpy(void* dst, const void* src, std::size_t n) noexcept;

/// Non-temporal streaming copy for large payloads: 16-byte SSE2 loads +
/// `movntdq` stores bypass the cache hierarchy, so a 1 MB sector copy does
/// not evict the working set (then a trailing sfence orders the stores).
/// Falls back to zc_memcpy for overlapping buffers and on non-x86 builds.
void* zc_memcpy_nt(void* dst, const void* src, std::size_t n) noexcept;

/// tlibc memset / memcmp companions (byte-wise, as in the SDK subset).
void* tmemset(void* dst, int value, std::size_t n) noexcept;
int tmemcmp(const void* a, const void* b, std::size_t n) noexcept;

/// Which implementation the marshalling layer uses.
enum class MemcpyKind {
  kIntel,  ///< vanilla SDK algorithm (paper's baseline; opt-in)
  kZc,     ///< rep-movsb optimised version (paper's contribution; default)
  kZcNt,   ///< always-streaming variant (non-temporal stores)
};

/// Selects the process-wide active memcpy (default kZc). Thread-safe;
/// takes effect for subsequent copies.
void set_active_memcpy(MemcpyKind kind) noexcept;

/// Currently selected implementation.
MemcpyKind active_memcpy_kind() noexcept;

/// Copies through the active implementation.
void* active_memcpy(void* dst, const void* src, std::size_t n) noexcept;

/// Human-readable name ("intel" / "zc" / "zc_nt").
const char* to_string(MemcpyKind kind) noexcept;

/// Copies of at least this many bytes through the kZc active kind are
/// routed to the non-temporal variant automatically, for callers that do
/// not read a large copy back soon and want to spare the cache.
/// 0 (the default) disables auto-routing.  Thread-safe; takes effect for
/// later copies.
void set_memcpy_nt_threshold(std::size_t bytes) noexcept;

/// Current auto-streaming threshold (default 0 = off).
std::size_t memcpy_nt_threshold() noexcept;

/// RAII guard that selects a memcpy kind and restores the previous one.
class ScopedMemcpy {
 public:
  explicit ScopedMemcpy(MemcpyKind kind) noexcept
      : previous_(active_memcpy_kind()) {
    set_active_memcpy(kind);
  }
  ~ScopedMemcpy() { set_active_memcpy(previous_); }
  ScopedMemcpy(const ScopedMemcpy&) = delete;
  ScopedMemcpy& operator=(const ScopedMemcpy&) = delete;

 private:
  MemcpyKind previous_;
};

}  // namespace zc::tlibc
