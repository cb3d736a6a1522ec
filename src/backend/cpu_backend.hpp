#pragma once

#include "backend/device_backend.hpp"

/// \file cpu_backend.hpp
/// The host backend: device memory is host memory — allocation is a
/// 64-byte-aligned heap allocation and every copy is a memcpy. The batched
/// primitives (src/batched/) run on the persistent work-stealing pool
/// through ExecutionContext's cost-chunked stream launches on any backend.

namespace h2sketch::backend {

class CpuBackend final : public DeviceBackend {
 public:
  std::string_view name() const override { return "cpu"; }
  bool is_device() const override { return false; }

 protected:
  void* do_allocate(std::size_t bytes) override;
  void do_deallocate(void* ptr, std::size_t bytes) override;

 private:
  CpuBackend() = default;
  friend std::shared_ptr<CpuBackend> make_cpu_backend();
};

/// Create a CpuBackend (backends are always shared: DeviceBuffers keep
/// their backend alive).
std::shared_ptr<CpuBackend> make_cpu_backend();

} // namespace h2sketch::backend
