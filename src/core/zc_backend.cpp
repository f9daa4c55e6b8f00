#include "core/zc_backend.hpp"

#include <algorithm>
#include <exception>

namespace zc {

namespace {

// The worker this thread last reserved, per backend.  Starting the scan
// there lets a lone caller find its own worker's lines still in its cache,
// and keeps two callers from colliding on worker 0 every call.  Backends
// are told apart by a process-unique key, not by address: a backend built
// where a destroyed one lived starts every thread's scan at worker 0.
struct ReserveHint {
  std::uint64_t backend = 0;
  unsigned worker = 0;
};
thread_local ReserveHint t_hint;
std::atomic<std::uint64_t> g_next_hint_key{1};

}  // namespace

ZcBackend::ZcBackend(Enclave& enclave, ZcConfig cfg)
    : enclave_(enclave),
      cfg_(std::move(cfg)),
      hint_key_(g_next_hint_key.fetch_add(1, std::memory_order_relaxed)) {
  if (cfg_.pool == FramePoolKind::kSlab) {
    slab_ = std::make_unique<SlabPool>();
    slab_->set_counters(SlabPool::Counters{
        &stats_.slab_hits, &stats_.slab_misses, &stats_.slab_grows});
  }
  const unsigned max =
      cfg_.resolved_max_workers(enclave_.config().logical_cpus);
  workers_.reserve(max);
  for (unsigned i = 0; i < max; ++i) {
    workers_.push_back(
        std::make_unique<ZcWorker>(enclave_, cfg_, stats_, i));
  }
  scheduler_ = std::make_unique<ZcScheduler>(enclave_, cfg_, workers_, stats_,
                                             active_count_);
}

ZcBackend::~ZcBackend() { stop(); }

void ZcBackend::start() {
  if (running_.exchange(true)) return;
  for (auto& w : workers_) w->start();
  scheduler_->set_active(
      cfg_.resolved_initial_workers(enclave_.config().logical_cpus));
  if (cfg_.scheduler_enabled) scheduler_->start();
}

void ZcBackend::stop() {
  if (!running_.exchange(false)) return;
  scheduler_->stop();
  // Program termination (§IV-B): the scheduler sets a value in the workers'
  // buffers; workers clean up and switch to EXIT.
  for (auto& w : workers_) w->shutdown();
  active_count_.store(0, std::memory_order_release);
}

void ZcBackend::set_active_workers(unsigned m) { scheduler_->set_active(m); }

std::vector<std::uint64_t> ZcBackend::per_worker_served() const {
  std::vector<std::uint64_t> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) out.push_back(w->calls_served());
  return out;
}

void ZcBackend::execute_regular(const CallDesc& desc) {
  if (cfg_.direction == CallDirection::kOcall) {
    execute_regular_ocall(enclave_, desc);
  } else {
    execute_regular_ecall(enclave_, desc);
  }
}

CallPath ZcBackend::fallback(const CallDesc& desc) {
  execute_regular(desc);
  const std::uint64_t elided = copies_elided_by(desc);
  if (elided != 0) stats_.copies_elided.add(elided);
  stats_.fallback_calls.add();
  return CallPath::kFallback;
}

bool ZcBackend::try_invoke_switchless(const CallDesc& desc) {
  if (!running_.load(std::memory_order_relaxed)) return false;

  // Switchless-call selection (§IV-C): run switchlessly iff an idle worker
  // exists right now; otherwise refuse immediately (no busy waiting for
  // capacity).  Every active worker is tried before refusing; the scan
  // starts at this thread's last worker while that one is still active.
  const unsigned m = std::min(active_count_.load(std::memory_order_acquire),
                              static_cast<unsigned>(workers_.size()));
  unsigned i =
      t_hint.backend == hint_key_ && t_hint.worker < m ? t_hint.worker : 0;
  ZcWorker* worker = nullptr;
  for (unsigned tried = 0; tried < m; ++tried) {
    if (workers_[i]->try_reserve()) {
      worker = workers_[i].get();
      t_hint = ReserveHint{hint_key_, i};
      break;
    }
    if (++i == m) i = 0;
  }
  if (worker == nullptr) return false;

  // The gauge covers reservation through collection: it counts calls
  // occupying a worker right now, which is what least_loaded routing
  // wants to balance (fallbacks run on the caller's own thread and do
  // not occupy this backend, so they are deliberately not counted).
  stats_.in_flight.add();
  void* mem = slab_ != nullptr ? slab_->allocate(frame_bytes(desc))
                               : worker->alloc_frame(frame_bytes(desc));
  if (mem == nullptr) {
    // Request larger than the whole pool: cannot go switchless.  (The
    // slab never refuses — that is the large-payload cliff it removes.)
    worker->cancel_reservation();
    stats_.in_flight.sub();
    return false;
  }

  MarshalledCall call = marshal_into(mem, desc);
  worker->submit(mem);
  const std::exception_ptr error = worker->wait_done();
  if (error == nullptr) unmarshal_from(call, desc);
  worker->release();
  if (slab_ != nullptr) slab_->free(mem);
  stats_.in_flight.sub();
  // A throwing handler reaches the caller as on a regular ocall, and is
  // counted as fallback() counts one: not at all.
  if (error != nullptr) std::rethrow_exception(error);
  const std::uint64_t elided = copies_elided_by(desc);
  if (elided != 0) stats_.copies_elided.add(elided);
  stats_.switchless_calls.add();
  return true;
}

CallPath ZcBackend::invoke(const CallDesc& desc) {
  if (!running_.load(std::memory_order_relaxed)) {
    execute_regular(desc);
    const std::uint64_t elided = copies_elided_by(desc);
    if (elided != 0) stats_.copies_elided.add(elided);
    stats_.regular_calls.add();
    return CallPath::kRegular;
  }
  if (try_invoke_switchless(desc)) return CallPath::kSwitchless;
  return fallback(desc);
}

std::unique_ptr<ZcBackend> make_zc_backend(Enclave& enclave, ZcConfig cfg) {
  return std::make_unique<ZcBackend>(enclave, std::move(cfg));
}

}  // namespace zc
