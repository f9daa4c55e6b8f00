#include "sgx/enclave.hpp"

#include <algorithm>
#include <new>

#include "common/cycles.hpp"
#include "sgx/arena.hpp"

namespace zc {

Enclave::Enclave(const SimConfig& cfg) : cfg_(cfg), transitions_(cfg) {
  backend_ = std::make_unique<RegularBackend>(*this);
  ecall_backend_ = std::make_unique<RegularEcallBackend>(*this);
}

std::unique_ptr<Enclave> Enclave::create(const SimConfig& cfg) {
  return std::unique_ptr<Enclave>(new Enclave(cfg));
}

Enclave::~Enclave() {
  if (backend_) backend_->stop();
  if (ecall_backend_) ecall_backend_->stop();
}

void Enclave::set_backend(std::unique_ptr<CallBackend> backend) {
  if (!backend) {
    backend = std::make_unique<RegularBackend>(*this);
  }
  if (backend_) backend_->stop();
  backend_ = std::move(backend);
  backend_->start();
}

void Enclave::set_ecall_backend(std::unique_ptr<CallBackend> backend) {
  if (!backend) {
    backend = std::make_unique<RegularEcallBackend>(*this);
  }
  if (ecall_backend_) ecall_backend_->stop();
  ecall_backend_ = std::move(backend);
  ecall_backend_->start();
}

void Enclave::trusted_alloc(std::size_t bytes) {
  std::uint64_t fault_pages = 0;
  {
    std::lock_guard lock(heap_mu_);
    if (heap_used_ + bytes > cfg_.enclave_heap_bytes) throw std::bad_alloc();
    const std::size_t before = heap_used_;
    heap_used_ += bytes;
    heap_peak_ = std::max(heap_peak_, heap_used_);
    if (heap_used_ > cfg_.epc_usable_bytes) {
      const std::size_t over_before =
          before > cfg_.epc_usable_bytes ? before - cfg_.epc_usable_bytes : 0;
      const std::size_t over_after = heap_used_ - cfg_.epc_usable_bytes;
      fault_pages = (over_after + 4095) / 4096 - (over_before + 4095) / 4096;
      epc_faults_ += fault_pages;
    }
  }
  if (fault_pages != 0) {
    burn_cycles(fault_pages * cfg_.epc_page_fault_cycles);
  }
}

void Enclave::trusted_free(std::size_t bytes) noexcept {
  std::lock_guard lock(heap_mu_);
  heap_used_ = bytes > heap_used_ ? 0 : heap_used_ - bytes;
}

std::size_t Enclave::trusted_heap_used() const noexcept {
  std::lock_guard lock(heap_mu_);
  return heap_used_;
}

std::size_t Enclave::trusted_heap_peak() const noexcept {
  std::lock_guard lock(heap_mu_);
  return heap_peak_;
}

std::uint64_t Enclave::epc_faults() const noexcept {
  std::lock_guard lock(heap_mu_);
  return epc_faults_;
}

void execute_regular_ocall(Enclave& enclave, const CallDesc& desc) {
  void* mem = ScratchArena::for_current_thread().acquire(frame_bytes(desc));
  MarshalledCall call = marshal_into(mem, desc);
  enclave.transitions().eexit();
  {
    // EENTER is charged however the handler returns: a throwing handler
    // re-enters the enclave to deliver its exception, so eexit_count()
    // and eenter_count() stay paired.
    struct Reenter {
      TransitionModel& transitions;
      ~Reenter() { transitions.eenter(); }
    } reenter{enclave.transitions()};
    enclave.ocalls().dispatch(desc.fn_id, call);
  }
  unmarshal_from(call, desc);
}

void execute_regular_ecall(Enclave& enclave, const CallDesc& desc) {
  void* mem = ScratchArena::for_current_thread().acquire(frame_bytes(desc));
  MarshalledCall call = marshal_into(mem, desc);
  // One full transition pair: EENTER, trusted processing, EEXIT.
  enclave.transitions().ecall_roundtrip();
  enclave.ecalls().dispatch(desc.fn_id, call);
  unmarshal_from(call, desc);
}

}  // namespace zc
