// Cross-boundary argument marshalling.
//
// As in edger8r-generated stubs, every ocall copies its argument struct and
// any [in] buffer from trusted to untrusted memory, and copies the argument
// struct (return values) and any [out] buffer back after the call.  All of
// these copies go through tlibc's *active* memcpy, so the memcpy
// implementation choice (intel vs zc vs zc_nt) affects ocall throughput
// exactly as in the paper (Figs. 7 and 13).  The default is the paper's
// `zc_memcpy` (`rep movsb`); the SDK's `intel_memcpy` is the baseline a
// bench selects through ScopedMemcpy.
//
// Two data-plane generalizations layer on top of the classic double-copy
// scheme:
//
//  * Scatter-gather: a CallDesc may describe its [in]/[out] payload as
//    iovec-style segment lists instead of one contiguous buffer.  The
//    frame payload stays contiguous (handlers are oblivious); marshalling
//    gathers the [in] segments on entry and scatters the [out] bytes back
//    on exit.
//
//  * Single-copy: a CallDesc may carry an in-place producer/consumer pair
//    instead of materialized trusted buffers.  The producer writes the
//    [in] bytes directly into the untrusted frame (the paper's zero-copy
//    request building) and the consumer reads the [out] bytes directly
//    from it, eliminating the trusted staging copy on each side.  Only
//    valid against handlers registered in_place_capable; backends built
//    with `copy=single` advertise the mode via CallBackend::copy_mode().
#pragma once

#include <cstddef>
#include <cstdint>

#include "sgx/ocall_table.hpp"

namespace zc {

/// One gather segment of an [in] payload (iovec-style).
struct IoVec {
  const void* data = nullptr;
  std::size_t size = 0;
};

/// One scatter segment of an [out] payload.
struct IoVecMut {
  void* data = nullptr;
  std::size_t size = 0;
};

/// Writes exactly `n` [in] payload bytes into untrusted `dst` (single-copy
/// producers).  `ctx` is CallDesc::inplace_ctx.
using PayloadProducer = void (*)(void* dst, std::size_t n, void* ctx);
/// Reads exactly `n` [out] payload bytes from untrusted `src`.
using PayloadConsumer = void (*)(const void* src, std::size_t n, void* ctx);

/// Trusted-side description of one ocall. The pointed-to memory is
/// "enclave" memory; the marshalling layer never hands these pointers to
/// untrusted code, only copies of their contents.
///
/// Payload forms, in precedence order per direction:
///   1. in-place producer/consumer (`produce_in`/`consume_out` non-null;
///      `in_size`/`out_size` give the byte counts) — no trusted buffer;
///   2. segment list (`in_segs`/`out_segs` non-null) — gathered/scattered;
///   3. legacy single buffer (`in_payload`/`out_payload`).
struct CallDesc {
  std::uint32_t fn_id = 0;
  void* args = nullptr;          ///< in/out args struct (includes returns)
  std::uint32_t args_size = 0;
  const void* in_payload = nullptr;  ///< [in] buffer, copied t→u
  std::size_t in_size = 0;
  void* out_payload = nullptr;  ///< [out] buffer, copied u→t after the call
  std::size_t out_size = 0;

  const IoVec* in_segs = nullptr;  ///< optional [in] gather list
  std::uint32_t in_seg_count = 0;
  const IoVecMut* out_segs = nullptr;  ///< optional [out] scatter list
  std::uint32_t out_seg_count = 0;

  PayloadProducer produce_in = nullptr;   ///< single-copy [in] builder
  PayloadConsumer consume_out = nullptr;  ///< single-copy [out] reader
  void* inplace_ctx = nullptr;

  /// Total [in] bytes across whichever payload form is in use.
  std::size_t total_in_size() const noexcept {
    if (produce_in != nullptr || in_segs == nullptr) return in_size;
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < in_seg_count; ++i) n += in_segs[i].size;
    return n;
  }

  /// Total [out] bytes across whichever payload form is in use.
  std::size_t total_out_size() const noexcept {
    if (consume_out != nullptr || out_segs == nullptr) return out_size;
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < out_seg_count; ++i) n += out_segs[i].size;
    return n;
  }

  /// Untrusted payload capacity needed (single area serves both ways).
  std::size_t payload_capacity() const noexcept {
    const std::size_t in = total_in_size();
    const std::size_t out = total_out_size();
    return in > out ? in : out;
  }

  /// True when this descriptor uses the single-copy in-place path for at
  /// least one direction.
  bool single_copy() const noexcept {
    return produce_in != nullptr || consume_out != nullptr;
  }
};

/// Untrusted frame layout: FrameHeader | args bytes | payload bytes.
/// 32 bytes so the args area keeps its 16-byte alignment.
struct FrameHeader {
  std::uint32_t fn_id = 0;
  std::uint32_t args_size = 0;
  std::uint64_t payload_size = 0;
  std::uint32_t flags = 0;  ///< MarshalledCall::kSingleCopy etc.
  std::uint32_t reserved0 = 0;
  std::uint64_t reserved1 = 0;
};

/// Bytes of untrusted memory needed to marshal `desc`.
std::size_t frame_bytes(const CallDesc& desc) noexcept;

/// Marshals `desc` into the untrusted block `mem` (>= frame_bytes(desc)).
/// Copies args and gathers the [in] payload via the active memcpy — or,
/// on the single-copy path, lets desc.produce_in build it in place.
/// Returns the untrusted view handed to handlers/workers.
MarshalledCall marshal_into(void* mem, const CallDesc& desc) noexcept;

/// Re-creates the untrusted view of a previously marshalled frame.
MarshalledCall frame_view(void* mem) noexcept;

/// Copies results (args struct and [out] payload) back into trusted
/// memory, scattering across desc.out_segs when present — or, on the
/// single-copy path, lets desc.consume_out read them in place.
void unmarshal_from(const MarshalledCall& call, const CallDesc& desc) noexcept;

/// Trusted staging copies this descriptor avoids per round trip (0-2):
/// one per in-place producer/consumer present.  Backends add this to
/// their copies_elided counter as calls complete.
inline std::uint64_t copies_elided_by(const CallDesc& desc) noexcept {
  return (desc.produce_in != nullptr ? 1u : 0u) +
         (desc.consume_out != nullptr ? 1u : 0u);
}

}  // namespace zc
