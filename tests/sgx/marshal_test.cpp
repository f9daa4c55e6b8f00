#include "sgx/marshal.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "tlibc/memcpy.hpp"

namespace zc {
namespace {

struct DemoArgs {
  std::int32_t x = 0;
  std::int64_t ret = 0;
};

TEST(Marshal, FrameBytesCoversHeaderArgsAndPayload) {
  DemoArgs args;
  CallDesc desc;
  desc.args = &args;
  desc.args_size = sizeof(args);
  EXPECT_GE(frame_bytes(desc), sizeof(FrameHeader) + sizeof(args));

  desc.in_size = 100;
  static char buf[100];
  desc.in_payload = buf;
  EXPECT_GE(frame_bytes(desc), sizeof(FrameHeader) + sizeof(args) + 100);
}

TEST(Marshal, PayloadCapacityIsMaxOfInOut) {
  CallDesc desc;
  desc.in_size = 64;
  desc.out_size = 256;
  EXPECT_EQ(desc.payload_capacity(), 256u);
  desc.in_size = 512;
  EXPECT_EQ(desc.payload_capacity(), 512u);
}

TEST(Marshal, ArgsRoundTrip) {
  DemoArgs args;
  args.x = 7;
  CallDesc desc;
  desc.fn_id = 3;
  desc.args = &args;
  desc.args_size = sizeof(args);

  std::vector<std::byte> mem(frame_bytes(desc));
  MarshalledCall call = marshal_into(mem.data(), desc);

  // The marshalled copy is a *copy*: mutating it must not touch trusted
  // memory until unmarshal.
  auto* umargs = static_cast<DemoArgs*>(call.args);
  EXPECT_EQ(umargs->x, 7);
  umargs->ret = 99;
  EXPECT_EQ(args.ret, 0);

  unmarshal_from(call, desc);
  EXPECT_EQ(args.ret, 99);
}

TEST(Marshal, InPayloadIsCopiedOut) {
  DemoArgs args;
  const std::string payload = "sensitive-plaintext";
  CallDesc desc;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.in_payload = payload.data();
  desc.in_size = payload.size();

  std::vector<std::byte> mem(frame_bytes(desc));
  MarshalledCall call = marshal_into(mem.data(), desc);
  ASSERT_NE(call.payload, nullptr);
  EXPECT_EQ(call.payload_size, payload.size());
  EXPECT_EQ(std::memcmp(call.payload, payload.data(), payload.size()), 0);
}

TEST(Marshal, OutPayloadIsCopiedBack) {
  DemoArgs args;
  std::vector<char> out(32, '\0');
  CallDesc desc;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.out_payload = out.data();
  desc.out_size = out.size();

  std::vector<std::byte> mem(frame_bytes(desc));
  MarshalledCall call = marshal_into(mem.data(), desc);
  std::memset(call.payload, 'Z', call.payload_size);
  unmarshal_from(call, desc);
  for (char c : out) EXPECT_EQ(c, 'Z');
}

TEST(Marshal, BidirectionalPayloadSharesOneArea) {
  DemoArgs args;
  const std::string in = "ping";
  std::vector<char> out(in.size(), '\0');
  CallDesc desc;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.in_payload = in.data();
  desc.in_size = in.size();
  desc.out_payload = out.data();
  desc.out_size = out.size();

  std::vector<std::byte> mem(frame_bytes(desc));
  MarshalledCall call = marshal_into(mem.data(), desc);
  // Handler upper-cases in place.
  auto* p = static_cast<char*>(call.payload);
  for (std::size_t i = 0; i < call.payload_size; ++i) {
    p[i] = static_cast<char>(p[i] - 'a' + 'A');
  }
  unmarshal_from(call, desc);
  EXPECT_EQ(std::string(out.begin(), out.end()), "PING");
}

TEST(Marshal, FrameViewReconstructsMarshalledLayout) {
  DemoArgs args;
  args.x = 123;
  const std::string payload = "payload-bytes";
  CallDesc desc;
  desc.fn_id = 9;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.in_payload = payload.data();
  desc.in_size = payload.size();

  std::vector<std::byte> mem(frame_bytes(desc));
  MarshalledCall original = marshal_into(mem.data(), desc);
  MarshalledCall view = frame_view(mem.data());
  EXPECT_EQ(view.args, original.args);
  EXPECT_EQ(view.args_size, original.args_size);
  EXPECT_EQ(view.payload, original.payload);
  EXPECT_EQ(view.payload_size, original.payload_size);

  auto* header = reinterpret_cast<FrameHeader*>(mem.data());
  EXPECT_EQ(header->fn_id, 9u);
  EXPECT_EQ(header->args_size, sizeof(args));
}

TEST(Marshal, NoPayloadYieldsNullPayloadPointer) {
  DemoArgs args;
  CallDesc desc;
  desc.args = &args;
  desc.args_size = sizeof(args);
  std::vector<std::byte> mem(frame_bytes(desc));
  MarshalledCall call = marshal_into(mem.data(), desc);
  EXPECT_EQ(call.payload, nullptr);
  EXPECT_EQ(call.payload_size, 0u);
}

TEST(Marshal, ArgsAreAlignedTo16) {
  DemoArgs args;
  CallDesc desc;
  desc.args = &args;
  desc.args_size = sizeof(args);
  alignas(64) std::byte mem[256];
  MarshalledCall call = marshal_into(mem, desc);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(call.args) % 16, 0u);
}

// --- Scatter-gather payloads -------------------------------------------------

TEST(MarshalScatterGather, GathersInSegmentsIntoOneContiguousPayload) {
  DemoArgs args;
  const std::string a = "alpha-", b = "beta-", c = "gamma";
  const IoVec segs[3] = {{a.data(), a.size()},
                         {b.data(), b.size()},
                         {c.data(), c.size()}};
  CallDesc desc;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.in_segs = segs;
  desc.in_seg_count = 3;
  EXPECT_EQ(desc.total_in_size(), a.size() + b.size() + c.size());

  std::vector<std::byte> mem(frame_bytes(desc));
  MarshalledCall call = marshal_into(mem.data(), desc);
  ASSERT_NE(call.payload, nullptr);
  ASSERT_EQ(call.payload_size, desc.total_in_size());
  EXPECT_EQ(std::memcmp(call.payload, "alpha-beta-gamma", call.payload_size),
            0);
}

TEST(MarshalScatterGather, ScattersOutBytesAcrossSegments) {
  DemoArgs args;
  std::vector<char> head(4, '\0');
  std::vector<char> tail(12, '\0');
  const IoVecMut segs[2] = {{head.data(), head.size()},
                            {tail.data(), tail.size()}};
  CallDesc desc;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.out_segs = segs;
  desc.out_seg_count = 2;
  EXPECT_EQ(desc.total_out_size(), 16u);

  std::vector<std::byte> mem(frame_bytes(desc));
  MarshalledCall call = marshal_into(mem.data(), desc);
  ASSERT_EQ(call.payload_size, 16u);
  std::memcpy(call.payload, "HEADtail-payload", 16);
  unmarshal_from(call, desc);
  EXPECT_EQ(std::string(head.begin(), head.end()), "HEAD");
  EXPECT_EQ(std::string(tail.begin(), tail.end()), "tail-payload");
}

TEST(MarshalScatterGather, ZeroLengthSegmentsAreSkipped) {
  DemoArgs args;
  const std::string a = "xy", b = "z";
  const IoVec in_segs[4] = {{nullptr, 0},
                            {a.data(), a.size()},
                            {nullptr, 0},
                            {b.data(), b.size()}};
  std::vector<char> out(3, '\0');
  const IoVecMut out_segs[3] = {{nullptr, 0},
                                {out.data(), out.size()},
                                {nullptr, 0}};
  CallDesc desc;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.in_segs = in_segs;
  desc.in_seg_count = 4;
  desc.out_segs = out_segs;
  desc.out_seg_count = 3;
  EXPECT_EQ(desc.total_in_size(), 3u);
  EXPECT_EQ(desc.total_out_size(), 3u);

  std::vector<std::byte> mem(frame_bytes(desc));
  MarshalledCall call = marshal_into(mem.data(), desc);
  ASSERT_EQ(call.payload_size, 3u);
  EXPECT_EQ(std::memcmp(call.payload, "xyz", 3), 0);
  std::memcpy(call.payload, "ZYX", 3);
  unmarshal_from(call, desc);
  EXPECT_EQ(std::string(out.begin(), out.end()), "ZYX");
}

TEST(MarshalScatterGather, SegmentedRoundTripMatchesContiguous) {
  // The same logical payload marshalled segmented and contiguous must
  // produce identical frames, and the frame capacity must be reusable
  // across descriptor forms.
  DemoArgs args;
  std::vector<char> in(4096);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<char>(i * 31 + 7);
  }
  const IoVec segs[3] = {{in.data(), 1000},
                         {in.data() + 1000, 1},
                         {in.data() + 1001, in.size() - 1001}};
  CallDesc seg_desc;
  seg_desc.args = &args;
  seg_desc.args_size = sizeof(args);
  seg_desc.in_segs = segs;
  seg_desc.in_seg_count = 3;

  CallDesc flat_desc;
  flat_desc.args = &args;
  flat_desc.args_size = sizeof(args);
  flat_desc.in_payload = in.data();
  flat_desc.in_size = in.size();

  ASSERT_EQ(frame_bytes(seg_desc), frame_bytes(flat_desc));
  std::vector<std::byte> mem(frame_bytes(seg_desc));
  MarshalledCall seg_call = marshal_into(mem.data(), seg_desc);
  std::vector<std::byte> seg_frame(mem);  // snapshot

  // Reuse the same memory for the contiguous form.
  MarshalledCall flat_call = marshal_into(mem.data(), flat_desc);
  EXPECT_EQ(seg_call.payload_size, flat_call.payload_size);
  EXPECT_EQ(seg_frame, mem);
}

// --- Single-copy (in-place producer/consumer) --------------------------------

namespace single_copy {

struct ProduceCtx {
  const char* src;
  int calls = 0;
};

void fill_upper(void* dst, std::size_t n, void* ctx) {
  auto* c = static_cast<ProduceCtx*>(ctx);
  ++c->calls;
  for (std::size_t i = 0; i < n; ++i) {
    static_cast<char*>(dst)[i] =
        static_cast<char>(c->src[i] - 'a' + 'A');
  }
}

struct ConsumeCtx {
  std::vector<char> seen;
  int calls = 0;
};

void capture(const void* src, std::size_t n, void* ctx) {
  auto* c = static_cast<ConsumeCtx*>(ctx);
  ++c->calls;
  c->seen.assign(static_cast<const char*>(src),
                 static_cast<const char*>(src) + n);
}

}  // namespace single_copy

TEST(MarshalSingleCopy, ProducerWritesPayloadDirectlyIntoFrame) {
  DemoArgs args;
  single_copy::ProduceCtx ctx{"abcdef"};
  CallDesc desc;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.in_size = 6;
  desc.produce_in = &single_copy::fill_upper;
  desc.inplace_ctx = &ctx;
  EXPECT_TRUE(desc.single_copy());
  EXPECT_EQ(copies_elided_by(desc), 1u);
  EXPECT_EQ(desc.total_in_size(), 6u);

  std::vector<std::byte> mem(frame_bytes(desc));
  MarshalledCall call = marshal_into(mem.data(), desc);
  ASSERT_EQ(call.payload_size, 6u);
  EXPECT_EQ(std::memcmp(call.payload, "ABCDEF", 6), 0);
  EXPECT_EQ(ctx.calls, 1);
  EXPECT_NE(call.flags & MarshalledCall::kSingleCopy, 0u);

  auto* header = reinterpret_cast<FrameHeader*>(mem.data());
  EXPECT_NE(header->flags & MarshalledCall::kSingleCopy, 0u);
  EXPECT_NE(frame_view(mem.data()).flags & MarshalledCall::kSingleCopy, 0u);
}

TEST(MarshalSingleCopy, ConsumerReadsPayloadDirectlyFromFrame) {
  DemoArgs args;
  single_copy::ConsumeCtx ctx;
  CallDesc desc;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.out_size = 8;
  desc.consume_out = &single_copy::capture;
  desc.inplace_ctx = &ctx;
  EXPECT_EQ(copies_elided_by(desc), 1u);

  std::vector<std::byte> mem(frame_bytes(desc));
  MarshalledCall call = marshal_into(mem.data(), desc);
  ASSERT_EQ(call.payload_size, 8u);
  std::memcpy(call.payload, "RESULTS!", 8);
  unmarshal_from(call, desc);
  EXPECT_EQ(ctx.calls, 1);
  EXPECT_EQ(std::string(ctx.seen.begin(), ctx.seen.end()), "RESULTS!");
}

TEST(MarshalSingleCopy, BidirectionalElidesBothStagingCopies) {
  DemoArgs args;
  single_copy::ProduceCtx pctx{"hello"};
  single_copy::ConsumeCtx cctx;
  CallDesc desc;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.in_size = 5;
  desc.out_size = 5;
  desc.produce_in = &single_copy::fill_upper;
  desc.consume_out = &single_copy::capture;
  desc.inplace_ctx = &pctx;  // producer runs first...
  EXPECT_EQ(copies_elided_by(desc), 2u);

  std::vector<std::byte> mem(frame_bytes(desc));
  MarshalledCall call = marshal_into(mem.data(), desc);
  EXPECT_EQ(std::memcmp(call.payload, "HELLO", 5), 0);
  desc.inplace_ctx = &cctx;  // ...then the consumer reads the echo back
  unmarshal_from(call, desc);
  EXPECT_EQ(std::string(cctx.seen.begin(), cctx.seen.end()), "HELLO");
}

TEST(MarshalSingleCopy, DoubleCopyDescriptorElidesNothing) {
  CallDesc desc;
  static char buf[8];
  desc.in_payload = buf;
  desc.in_size = sizeof(buf);
  EXPECT_FALSE(desc.single_copy());
  EXPECT_EQ(copies_elided_by(desc), 0u);
}

class MarshalMemcpyKind : public ::testing::TestWithParam<tlibc::MemcpyKind> {};

TEST_P(MarshalMemcpyKind, RoundTripIdenticalUnderEveryMemcpy) {
  tlibc::ScopedMemcpy guard(GetParam());
  DemoArgs args;
  args.x = -5;
  std::vector<char> out(1031, '\0');  // odd size: exercises unaligned paths
  std::vector<char> in(1031);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<char>(i * 17);
  }
  CallDesc desc;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.in_payload = in.data();
  desc.in_size = in.size();
  desc.out_payload = out.data();
  desc.out_size = out.size();

  std::vector<std::byte> mem(frame_bytes(desc));
  MarshalledCall call = marshal_into(mem.data(), desc);
  unmarshal_from(call, desc);
  EXPECT_EQ(out, in);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MarshalMemcpyKind,
                         ::testing::Values(tlibc::MemcpyKind::kIntel,
                                           tlibc::MemcpyKind::kZc,
                                           tlibc::MemcpyKind::kZcNt),
                         [](const auto& info) {
                           return std::string(tlibc::to_string(info.param));
                         });

}  // namespace
}  // namespace zc
