#include "backend/cpu_backend.hpp"

#include <new>

namespace h2sketch::backend {

void* CpuBackend::do_allocate(std::size_t bytes) {
  return ::operator new(bytes, std::align_val_t{64});
}

void CpuBackend::do_deallocate(void* ptr, std::size_t bytes) {
  ::operator delete(ptr, bytes, std::align_val_t{64});
}

std::shared_ptr<CpuBackend> make_cpu_backend() {
  return std::shared_ptr<CpuBackend>(new CpuBackend());
}

} // namespace h2sketch::backend
