#include "metered_backend.hpp"

#include "trace.hpp"

namespace zcbench {

namespace {

thread_local unsigned tl_slot = MeteredBackend::kMaxCallers;

}  // namespace

MeteredBackend::MeteredBackend(std::unique_ptr<zc::CallBackend> inner)
    : inner_(std::move(inner)) {}

void MeteredBackend::bind_caller(unsigned caller) noexcept {
  tl_slot = caller < kMaxCallers ? caller : kMaxCallers;
}

zc::CallPath MeteredBackend::invoke(const zc::CallDesc& desc) {
  issued_[tl_slot].add();
  const SpanScope span(SpanName::kInvoke);
  return inner_->invoke(desc);
}

std::uint64_t MeteredBackend::calls_issued() const noexcept {
  std::uint64_t sum = 0;
  for (const zc::PaddedCounter& c : issued_) sum += c.load();
  return sum;
}

}  // namespace zcbench
