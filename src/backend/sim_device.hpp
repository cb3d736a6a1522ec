#pragma once

#include <map>
#include <mutex>

#include "backend/device_backend.hpp"

/// \file sim_device.hpp
/// SimulatedDevice: a backend that behaves like a discrete accelerator
/// attached to the host, minus the actual accelerator.
///
///  * Device buffers come from a **separate heap** — a reserved virtual
///    address range distinct from the host allocator — so device pointers
///    and host pointers are never interchangeable by accident.
///  * Data crosses the boundary only through the explicit
///    `copy_to_device` / `copy_to_host` calls of the backend memory model,
///    whose byte counts the ablation benchmark reports as PCIe-equivalent
///    traffic.
///  * With **poisoning** enabled (the default; `H2SKETCH_DEVICE_POISON=0`
///    disables), device pages are mapped `PROT_NONE` whenever no kernel
///    scope is active: a host-side dereference of marshaled device data
///    faults immediately instead of silently reading through, which is
///    exactly the bug class a real `cudaMalloc` pointer would produce.
///
/// Compute is the same on every backend: the batched primitives
/// (src/batched/) execute the same arithmetic in the same order whatever
/// heap their operands live in, which is what makes `CpuBackend` vs
/// `SimulatedDevice` bitwise-identical by construction and isolates the
/// *memory discipline* as the thing under test.

namespace h2sketch::backend {

struct SimDeviceOptions {
  /// Reserved device-heap size. 0 → $H2SKETCH_SIMDEVICE_HEAP_MB or 4 GiB.
  std::size_t heap_bytes = 0;
  /// Poison device pages against host dereference outside kernel scopes:
  /// 1 = on, 0 = off, -1 → $H2SKETCH_DEVICE_POISON, default on. Poisoning
  /// requires mmap/mprotect; on platforms without them it is forced off.
  int poison = -1;
};

class SimulatedDevice final : public DeviceBackend {
 public:
  ~SimulatedDevice() override;

  std::string_view name() const override { return "simdevice"; }
  bool is_device() const override { return true; }

  /// Whether host-dereference poisoning is actually active.
  bool poison_active() const { return poison_; }

  /// True if p points into this device's heap (test/diagnostic helper).
  bool owns(const void* p) const;

  std::size_t heap_bytes() const { return heap_bytes_; }

 protected:
  void* do_allocate(std::size_t bytes) override;
  void do_deallocate(void* ptr, std::size_t bytes) override;
  void kernel_enter() const override;
  void kernel_exit() const override;

 private:
  explicit SimulatedDevice(const SimDeviceOptions& opts);
  friend std::shared_ptr<SimulatedDevice> make_sim_device(SimDeviceOptions opts);

  /// mprotect [base_, high_water_) to `prot`; requires mu_ held.
  void protect_all(int prot) const;

  std::byte* base_ = nullptr;      ///< reserved device address range
  std::size_t heap_bytes_ = 0;     ///< size of the reservation
  bool poison_ = false;
  bool mapped_ = false;            ///< base_ came from mmap (vs new[])

  mutable std::mutex mu_;          ///< guards the allocator and scope depth
  std::size_t high_water_ = 0;     ///< top of the ever-touched region
  std::size_t unlocked_limit_ = 0; ///< pages currently mapped readable (no-poison mode)
  std::map<std::size_t, std::size_t> free_blocks_; ///< offset -> size, page granular
  mutable int scope_depth_ = 0;    ///< live kernel scopes (process-wide unlock)
};

/// Create a SimulatedDevice. The heap is reserved up front (lazily
/// committed); creation fails loudly if the reservation cannot be made.
std::shared_ptr<SimulatedDevice> make_sim_device(SimDeviceOptions opts = {});

} // namespace h2sketch::backend
