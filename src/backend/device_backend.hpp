#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "common/matrix.hpp"

/// \file device_backend.hpp
/// The device memory model of the library (paper §IV-A).
///
/// A `DeviceBackend` is what a GPU runtime provides besides its kernels:
/// `DeviceBuffer` allocation from a backend-owned heap, explicit
/// host↔device and device↔device copies, and a zero-fill primitive (the
/// cudaMalloc / cudaMemcpy / cudaMemset analogues). On `CpuBackend` device
/// memory *is* host memory; on `SimulatedDevice` it is a separate heap that
/// host code must not dereference directly.
///
/// The batched primitives themselves are the free functions in
/// src/batched/ (and `kern::batched_generate`): each runs its batch as
/// `ExecutionContext` launches and reports the call to its context's
/// backend through `on_launch`, the hook a decorator overrides to simulate
/// failed kernel launches.
///
/// Compute that touches device memory may only run inside a **kernel
/// scope** (`kernel_scope()`): the RAII handle brackets the body of a
/// launch, a monolithic sampler product, or an internal copy. On
/// `SimulatedDevice` with poisoning enabled, device pages are inaccessible
/// outside kernel scopes, so a stray host-side dereference of marshaled
/// device data faults instead of silently working — "a GPU could run
/// behind this API" becomes a tested invariant.

namespace h2sketch::backend {

/// Launch granularity: one launch per batch entry (the per-block code path
/// a non-batched implementation would use) vs one launch per batch (the
/// GPU-shaped path). Historically named `Backend`; batched/device.hpp
/// aliases it back under that name for existing call sites.
enum class LaunchMode {
  Naive,  ///< per-block execution: O(#blocks) kernel launches
  Batched ///< one launch per level per operation: O(Csp log N) launches
};

/// Monotonic counters a backend records about its memory traffic. All
/// byte counts are cumulative since construction.
struct DeviceStatsSnapshot {
  std::uint64_t bytes_to_device = 0; ///< explicit host → device copies
  std::uint64_t bytes_to_host = 0;   ///< explicit device → host copies
  std::uint64_t bytes_on_device = 0; ///< device → device copies + zero fills
  std::uint64_t allocations = 0;     ///< DeviceBuffer allocations served
  std::uint64_t deallocations = 0;
  std::uint64_t live_bytes = 0; ///< currently allocated device bytes
  std::uint64_t peak_bytes = 0; ///< high-water mark of live_bytes
};

class DeviceBackend;

/// A runnable backend configuration: the device backend that owns memory,
/// plus the launch-granularity mode. The registry (backend/registry.hpp)
/// maps names ("cpu", "naive", "simdevice") to these.
struct ExecutionConfig {
  std::shared_ptr<DeviceBackend> device;
  LaunchMode mode = LaunchMode::Batched;
};

/// Move-only RAII handle to one device allocation. Holds shared ownership
/// of its backend, so buffers may outlive the ExecutionContext that
/// allocated them (e.g. ULV factors stored in solver objects).
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(std::shared_ptr<DeviceBackend> backend, void* ptr, std::size_t bytes)
      : backend_(std::move(backend)), ptr_(ptr), bytes_(bytes) {}
  ~DeviceBuffer() { release(); }

  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  DeviceBuffer(DeviceBuffer&& o) noexcept
      : backend_(std::move(o.backend_)), ptr_(std::exchange(o.ptr_, nullptr)),
        bytes_(std::exchange(o.bytes_, 0)) {}
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      release();
      backend_ = std::move(o.backend_);
      ptr_ = std::exchange(o.ptr_, nullptr);
      bytes_ = std::exchange(o.bytes_, 0);
    }
    return *this;
  }

  /// Device address. On SimulatedDevice this pointer must not be
  /// dereferenced by host code outside a kernel scope.
  void* data() const { return ptr_; }
  std::size_t bytes() const { return bytes_; }
  bool empty() const { return ptr_ == nullptr; }
  DeviceBackend* backend() const { return backend_.get(); }
  const std::shared_ptr<DeviceBackend>& backend_ptr() const { return backend_; }

  void release();

 private:
  std::shared_ptr<DeviceBackend> backend_;
  void* ptr_ = nullptr;
  std::size_t bytes_ = 0;
};

/// RAII bracket around compute that touches device memory (the body of a
/// kernel launch, a monolithic sampler product, an internal copy). On
/// backends with poisoning, device pages are accessible exactly while at
/// least one scope is alive.
class KernelScope {
 public:
  explicit KernelScope(const DeviceBackend* b);
  ~KernelScope();
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  const DeviceBackend* b_;
};

/// Abstract device backend: the memory model plus the launch hook. Always
/// create concrete backends through their factory functions
/// (make_cpu_backend / make_sim_device) or the registry — DeviceBuffers keep
/// their backend alive through shared ownership.
class DeviceBackend : public std::enable_shared_from_this<DeviceBackend> {
 public:
  virtual ~DeviceBackend() = default;

  virtual std::string_view name() const = 0;
  /// True when device buffers live in a separate address space (host code
  /// must marshal through explicit copies).
  virtual bool is_device() const = 0;

  /// The backend whose heap this backend's allocations physically live in.
  /// Identity for concrete backends; decorators (FaultInjectingDevice)
  /// forward to the wrapped backend, so affinity checks ("may this context
  /// touch these panels?") compare memory owners instead of raw backend
  /// pointers — a factor built through a decorator stays solvable through
  /// the undecorated base (the graceful-degradation path).
  virtual const DeviceBackend* memory_owner() const { return this; }

  // --- memory model -------------------------------------------------------

  /// Allocate `bytes` of device memory (64-byte aligned).
  DeviceBuffer allocate(std::size_t bytes);

  /// Explicit copies across the marshaling boundary. Byte counts feed the
  /// ablation benchmark; SimulatedDevice additionally unlocks its heap for
  /// the duration of the copy.
  void copy_to_device(void* dst_dev, const void* src_host, std::size_t bytes);
  void copy_to_host(void* dst_host, const void* src_dev, std::size_t bytes);
  void copy_on_device(void* dst_dev, const void* src_dev, std::size_t bytes);
  /// Device memset-to-zero (cudaMemset analogue).
  void fill_zero(void* dst_dev, std::size_t bytes);

  /// Column-wise strided-view forms of the copies above.
  void upload(ConstMatrixView host, MatrixView dev);
  void download(ConstMatrixView dev, MatrixView host);
  void copy_device(ConstMatrixView src, MatrixView dst);
  void fill_zero(MatrixView dev);

  /// Enter/leave compute that touches device memory.
  KernelScope kernel_scope() const { return KernelScope(this); }

  DeviceStatsSnapshot stats() const;

  /// Called once by every batched primitive on the issuing thread, after
  /// its trace label and span and before its checks and launch, with the
  /// primitive's name — the injection point a decorator overrides to
  /// simulate failed kernel launches. No-op by default.
  virtual void on_launch(std::string_view op) const { (void)op; }

 protected:
  DeviceBackend() = default;

  // Byte-level hooks a concrete backend implements. The public wrappers
  // above add stats accounting (and, via kernel scopes, poisoning).
  virtual void* do_allocate(std::size_t bytes) = 0;
  virtual void do_deallocate(void* ptr, std::size_t bytes) = 0;

  /// Called by every public copy/fill entry point before the transfer runs
  /// — the injection point a decorator overrides to simulate failed
  /// cudaMemcpy/cudaMemset calls. No-op by default.
  virtual void on_transfer(std::size_t bytes) const { (void)bytes; }

  // Protected-member passthroughs for decorator backends: a sibling
  // subclass cannot call another instance's protected virtuals directly,
  // but any DeviceBackend subclass can route through these statics.
  static void* forward_allocate(DeviceBackend& b, std::size_t bytes) {
    return b.do_allocate(bytes);
  }
  static void forward_deallocate(DeviceBackend& b, void* ptr, std::size_t bytes) {
    b.do_deallocate(ptr, bytes);
  }
  static void forward_kernel_enter(const DeviceBackend& b) { b.kernel_enter(); }
  static void forward_kernel_exit(const DeviceBackend& b) { b.kernel_exit(); }

  friend class KernelScope;
  friend class DeviceBuffer;
  /// Poisoning hooks; no-ops by default.
  virtual void kernel_enter() const {}
  virtual void kernel_exit() const {}

 private:
  mutable std::atomic<std::uint64_t> bytes_to_device_{0};
  mutable std::atomic<std::uint64_t> bytes_to_host_{0};
  mutable std::atomic<std::uint64_t> bytes_on_device_{0};
  mutable std::atomic<std::uint64_t> allocations_{0};
  mutable std::atomic<std::uint64_t> deallocations_{0};
  mutable std::atomic<std::uint64_t> live_bytes_{0};
  mutable std::atomic<std::uint64_t> peak_bytes_{0};
};

} // namespace h2sketch::backend
