// In-memory span tracing for the benchmark's traced run.
//
// A span covers one call into a layer: the benchmark opens an op span
// around each app operation (KissDB::put, SectorStore::read_sector, ...)
// and the pass-through backend opens a `core.invoke` span around every
// CallBackend::invoke beneath it.  Spans live in per-thread buffers and
// are folded and written out between measurement windows, never during.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace zcbench {

enum class SpanName : std::uint32_t {
  kKvPut,
  kKvGet,
  kSectorWrite,
  kSectorRead,
  kFileWrite,
  kFileRead,
  kCallWrite,
  kCallRead,
  kInvoke,
};
const char* to_string(SpanName name) noexcept;

inline constexpr std::uint32_t kNoParent = UINT32_MAX;

struct Span {
  SpanName name = SpanName::kInvoke;
  std::uint32_t parent = kNoParent;  ///< index in the same thread's buffer
  std::uint64_t op = 0;              ///< op id shared by one op's spans
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Self time of every span in one thread's buffer: its duration minus the
/// part of it that its direct children cover.  Children must come after
/// their parent in the buffer (the recorder appends on open).
std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans);

/// Routes the calling thread's spans into `buffer` (nullptr stops
/// recording) and resets its op id and open-span stack.
void trace_into(std::vector<Span>* buffer) noexcept;

/// Starts the next op on the calling thread: later spans carry its id.
void begin_op() noexcept;

/// RAII span on the calling thread; costs one thread-local load when the
/// thread is not recording.
class SpanScope {
 public:
  explicit SpanScope(SpanName name) noexcept;
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::vector<Span>* buffer_;
  std::uint32_t index_ = kNoParent;
};

/// Writes spans as CSV rows (thread, index, name, parent, op, start, end).
void write_spans_csv(std::ostream& out, unsigned thread,
                     const std::vector<Span>& spans);

}  // namespace zcbench
