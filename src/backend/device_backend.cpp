#include "backend/device_backend.hpp"

#include "obs/trace.hpp"

#include <cstring>

#include "common/check.hpp"

namespace h2sketch::backend {

void DeviceBuffer::release() {
  if (ptr_ != nullptr && backend_ != nullptr) {
    backend_->deallocations_.fetch_add(1, std::memory_order_relaxed);
    backend_->live_bytes_.fetch_sub(bytes_, std::memory_order_relaxed);
    backend_->do_deallocate(ptr_, bytes_);
  }
  backend_.reset();
  ptr_ = nullptr;
  bytes_ = 0;
}

KernelScope::KernelScope(const DeviceBackend* b) : b_(b) {
  if (b_ != nullptr) b_->kernel_enter();
}

KernelScope::~KernelScope() {
  if (b_ != nullptr) b_->kernel_exit();
}

DeviceBuffer DeviceBackend::allocate(std::size_t bytes) {
  if (bytes == 0) return DeviceBuffer();
  void* p = do_allocate(bytes);
  allocations_.fetch_add(1, std::memory_order_relaxed);
  const auto live = live_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  auto peak = peak_bytes_.load(std::memory_order_relaxed);
  while (live > peak && !peak_bytes_.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return DeviceBuffer(shared_from_this(), p, bytes);
}

void DeviceBackend::copy_to_device(void* dst_dev, const void* src_host, std::size_t bytes) {
  if (bytes == 0) return;
  obs::TraceSpan span("backend", "copy_to_device", "bytes", bytes);
  on_transfer(bytes);
  bytes_to_device_.fetch_add(bytes, std::memory_order_relaxed);
  KernelScope ks(this);
  std::memcpy(dst_dev, src_host, bytes);
}

void DeviceBackend::copy_to_host(void* dst_host, const void* src_dev, std::size_t bytes) {
  if (bytes == 0) return;
  obs::TraceSpan span("backend", "copy_to_host", "bytes", bytes);
  on_transfer(bytes);
  bytes_to_host_.fetch_add(bytes, std::memory_order_relaxed);
  KernelScope ks(this);
  std::memcpy(dst_host, src_dev, bytes);
}

void DeviceBackend::copy_on_device(void* dst_dev, const void* src_dev, std::size_t bytes) {
  if (bytes == 0) return;
  obs::TraceSpan span("backend", "copy_on_device", "bytes", bytes);
  on_transfer(bytes);
  bytes_on_device_.fetch_add(bytes, std::memory_order_relaxed);
  KernelScope ks(this);
  std::memcpy(dst_dev, src_dev, bytes);
}

void DeviceBackend::fill_zero(void* dst_dev, std::size_t bytes) {
  if (bytes == 0) return;
  obs::TraceSpan span("backend", "fill_zero", "bytes", bytes);
  on_transfer(bytes);
  bytes_on_device_.fetch_add(bytes, std::memory_order_relaxed);
  KernelScope ks(this);
  std::memset(dst_dev, 0, bytes);
}

namespace {

/// One scope + one byte-counter update for a whole strided-view copy; the
/// column loop itself is a plain memcpy per column.
void copy_columns(ConstMatrixView src, MatrixView dst) {
  H2S_CHECK(src.rows == dst.rows && src.cols == dst.cols, "backend copy: shape mismatch");
  const std::size_t col_bytes = static_cast<std::size_t>(src.rows) * sizeof(real_t);
  if (src.ld == src.rows && dst.ld == dst.rows) {
    std::memcpy(dst.data, src.data, col_bytes * static_cast<std::size_t>(src.cols));
    return;
  }
  for (index_t j = 0; j < src.cols; ++j)
    std::memcpy(dst.data + j * dst.ld, src.data + j * src.ld, col_bytes);
}

std::size_t view_bytes(ConstMatrixView v) {
  return static_cast<std::size_t>(v.rows) * static_cast<std::size_t>(v.cols) * sizeof(real_t);
}

} // namespace

void DeviceBackend::upload(ConstMatrixView host, MatrixView dev) {
  if (host.empty()) return;
  obs::TraceSpan span("backend", "upload", "bytes", view_bytes(host));
  on_transfer(view_bytes(host));
  bytes_to_device_.fetch_add(view_bytes(host), std::memory_order_relaxed);
  KernelScope ks(this);
  copy_columns(host, dev);
}

void DeviceBackend::download(ConstMatrixView dev, MatrixView host) {
  if (dev.empty()) return;
  obs::TraceSpan span("backend", "download", "bytes", view_bytes(dev));
  on_transfer(view_bytes(dev));
  bytes_to_host_.fetch_add(view_bytes(dev), std::memory_order_relaxed);
  KernelScope ks(this);
  copy_columns(dev, host);
}

void DeviceBackend::copy_device(ConstMatrixView src, MatrixView dst) {
  if (src.empty()) return;
  obs::TraceSpan span("backend", "copy_device", "bytes", view_bytes(src));
  on_transfer(view_bytes(src));
  bytes_on_device_.fetch_add(view_bytes(src), std::memory_order_relaxed);
  KernelScope ks(this);
  copy_columns(src, dst);
}

void DeviceBackend::fill_zero(MatrixView dev) {
  if (dev.empty()) return;
  obs::TraceSpan span("backend", "fill_zero", "bytes", view_bytes(dev));
  on_transfer(view_bytes(dev));
  bytes_on_device_.fetch_add(view_bytes(dev), std::memory_order_relaxed);
  KernelScope ks(this);
  const std::size_t col_bytes = static_cast<std::size_t>(dev.rows) * sizeof(real_t);
  if (dev.ld == dev.rows) {
    std::memset(dev.data, 0, col_bytes * static_cast<std::size_t>(dev.cols));
    return;
  }
  for (index_t j = 0; j < dev.cols; ++j) std::memset(dev.data + j * dev.ld, 0, col_bytes);
}

DeviceStatsSnapshot DeviceBackend::stats() const {
  DeviceStatsSnapshot s;
  s.bytes_to_device = bytes_to_device_.load(std::memory_order_relaxed);
  s.bytes_to_host = bytes_to_host_.load(std::memory_order_relaxed);
  s.bytes_on_device = bytes_on_device_.load(std::memory_order_relaxed);
  s.allocations = allocations_.load(std::memory_order_relaxed);
  s.deallocations = deallocations_.load(std::memory_order_relaxed);
  s.live_bytes = live_bytes_.load(std::memory_order_relaxed);
  s.peak_bytes = peak_bytes_.load(std::memory_order_relaxed);
  return s;
}

} // namespace h2sketch::backend
