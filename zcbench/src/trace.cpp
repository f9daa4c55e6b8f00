#include "trace.hpp"

#include <algorithm>
#include <ostream>

#include "common/cpu_meter.hpp"

namespace zcbench {

namespace {

thread_local std::vector<Span>* tl_buffer = nullptr;
thread_local std::uint32_t tl_open = kNoParent;
thread_local std::uint64_t tl_op = 0;

}  // namespace

const char* to_string(SpanName name) noexcept {
  switch (name) {
    case SpanName::kKvPut:
      return "apps.kissdb.put";
    case SpanName::kKvGet:
      return "apps.kissdb.get";
    case SpanName::kSectorWrite:
      return "apps.sector.write";
    case SpanName::kSectorRead:
      return "apps.sector.read";
    case SpanName::kFileWrite:
      return "apps.tfile.write";
    case SpanName::kFileRead:
      return "apps.tfile.read";
    case SpanName::kCallWrite:
      return "apps.ocall.write";
    case SpanName::kCallRead:
      return "apps.ocall.read";
    case SpanName::kInvoke:
      return "core.invoke";
  }
  return "?";
}

std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans) {
  // Direct children of each span, in buffer order (= start order).
  std::vector<std::vector<std::uint32_t>> children(spans.size());
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    const std::uint32_t p = spans[i].parent;
    if (p != kNoParent && p < i) children[p].push_back(i);
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::uint32_t>& kids = children[i];
    std::sort(kids.begin(), kids.end(), [&](std::uint32_t a, std::uint32_t b) {
      return spans[a].start_ns < spans[b].start_ns;
    });
    // Length of the union of the children's intervals, clipped to s.
    std::uint64_t covered = 0;
    std::uint64_t reach = s.start_ns;
    for (const std::uint32_t k : kids) {
      const std::uint64_t lo = std::max(spans[k].start_ns, reach);
      const std::uint64_t hi = std::min(spans[k].end_ns, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    self[i] = dur - std::min(dur, covered);
  }
  return self;
}

void trace_into(std::vector<Span>* buffer) noexcept {
  tl_buffer = buffer;
  tl_open = kNoParent;
  tl_op = 0;
}

void begin_op() noexcept { ++tl_op; }

SpanScope::SpanScope(SpanName name) noexcept : buffer_(tl_buffer) {
  if (buffer_ == nullptr) return;
  index_ = static_cast<std::uint32_t>(buffer_->size());
  buffer_->push_back(Span{name, tl_open, tl_op, zc::wall_ns(), 0});
  tl_open = index_;
}

SpanScope::~SpanScope() {
  if (buffer_ == nullptr) return;
  Span& s = (*buffer_)[index_];
  s.end_ns = zc::wall_ns();
  tl_open = s.parent;
}

void write_spans_csv(std::ostream& out, unsigned thread,
                     const std::vector<Span>& spans) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << thread << ',' << i << ',' << to_string(s.name) << ','
        << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
        << ',' << s.op << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
}

}  // namespace zcbench
