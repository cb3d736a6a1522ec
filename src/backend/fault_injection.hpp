#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "backend/device_backend.hpp"
#include "common/errors.hpp"

/// \file fault_injection.hpp
/// `FaultInjectingDevice`: a decorator over any `DeviceBackend` that
/// injects typed failures at the three places a real accelerator fails —
/// allocation (`DeviceOomError`), explicit copies (`LaunchError`), and
/// batched-primitive launches (`LaunchError`, through the `on_launch` hook
/// every primitive calls once) — under a deterministic, seedable schedule.
/// Everything else (memory, poisoning) is forwarded to the wrapped backend
/// unchanged, and the arithmetic does not depend on the backend, so
/// post-recovery results are bitwise identical to a fault-free run on the
/// base backend.
///
/// Faults fire *synchronously at dispatch time* on the calling thread (the
/// cudaLaunchKernel-returned-an-error model, not an async-completion
/// model): every injection point is visited in the deterministic order the
/// algorithm issues work in, which is what lets the fault-sweep chaos test
/// (tests/test_faults.cpp) walk a one-shot fault across every index of a
/// build+serve cycle.
///
/// Schedules (programmatic via `set_schedule`, or the
/// `H2SKETCH_FAULT_SCHEDULE` environment variable read when the registry
/// singleton is first created):
///
///   off                      no injection (points are still counted)
///   oneshot:K[:SITE]         fail the K-th (0-based) matching point, once
///   every:N[:SITE]           fail every N-th matching point
///   prob:P[:SEED[:SITE]]     fail each matching point with probability P,
///                            deterministically derived from (SEED, index)
///
/// SITE is one of `alloc`, `copy`, `launch`, or `any` (default): which
/// class of injection point the schedule counts and fails.

namespace h2sketch::backend {

/// Class of injection point.
enum class FaultSite { Alloc, Copy, Launch };

std::string_view fault_site_name(FaultSite site);

/// Deterministic injection schedule. `site == nullopt` matches any site.
struct FaultSchedule {
  enum class Kind { Off, OneShot, EveryNth, Probability };

  Kind kind = Kind::Off;
  std::uint64_t index = 0;      ///< OneShot: 0-based index of the point that fails
  std::uint64_t period = 0;     ///< EveryNth: fail points index % period == period-1
  double probability = 0.0;     ///< Probability: per-point failure chance
  std::uint64_t seed = 0;       ///< Probability: hash seed
  std::optional<FaultSite> site;///< restrict to one site class (nullopt = any)

  static FaultSchedule off() { return {}; }
  static FaultSchedule one_shot_at(std::uint64_t k, std::optional<FaultSite> s = std::nullopt);
  static FaultSchedule every_nth(std::uint64_t n, std::optional<FaultSite> s = std::nullopt);
  static FaultSchedule with_probability(double p, std::uint64_t seed = 0,
                                        std::optional<FaultSite> s = std::nullopt);

  /// Parse the H2SKETCH_FAULT_SCHEDULE syntax documented above. Throws
  /// (std::runtime_error) on malformed specs.
  static FaultSchedule parse(std::string_view spec);
};

/// Injection-point counters. Points are counted whether or not a schedule
/// is active, so a fault-free probe run measures the index space a sweep
/// then walks.
struct FaultStats {
  std::uint64_t alloc_points = 0;  ///< allocation points visited
  std::uint64_t copy_points = 0;   ///< copy/fill points visited
  std::uint64_t launch_points = 0; ///< primitive launch points visited
  std::uint64_t considered = 0;    ///< points matching the active schedule's site filter
  std::uint64_t injected = 0;      ///< faults actually thrown

  std::uint64_t points() const { return alloc_points + copy_points + launch_points; }
};

/// Decorator backend injecting scheduled failures. Thread-safe: points may
/// be visited concurrently from client/lane threads; the schedule state is
/// mutex-guarded.
class FaultInjectingDevice final : public DeviceBackend {
 public:
  std::string_view name() const override { return name_; }
  bool is_device() const override { return inner_->is_device(); }
  const DeviceBackend* memory_owner() const override { return inner_->memory_owner(); }

  /// The wrapped backend (the graceful-degradation target).
  const std::shared_ptr<DeviceBackend>& inner() const { return inner_; }

  /// Install a schedule. Resets the injection-point counters and the
  /// one-shot state, so `index` is relative to this call.
  void set_schedule(FaultSchedule schedule);
  FaultSchedule schedule() const;

  /// Zero the counters and re-arm a one-shot schedule without changing it.
  void reset_fault_state();

  FaultStats fault_stats() const;

  /// One launch injection point per batched-primitive call.
  void on_launch(std::string_view op) const override;

 protected:
  // Never inject on deallocate or scope transitions: RAII teardown and
  // poison accounting must stay exception-free.
  void* do_allocate(std::size_t bytes) override;
  void do_deallocate(void* ptr, std::size_t bytes) override;
  void kernel_enter() const override { forward_kernel_enter(*inner_); }
  void kernel_exit() const override { forward_kernel_exit(*inner_); }
  void on_transfer(std::size_t bytes) const override;

 private:
  FaultInjectingDevice(std::string name, std::shared_ptr<DeviceBackend> inner,
                       FaultSchedule schedule);
  friend std::shared_ptr<FaultInjectingDevice> make_fault_injecting_device(
      std::shared_ptr<DeviceBackend> inner, std::string name,
      std::optional<FaultSchedule> schedule);

  /// Count one injection point at `site`; throw the site's typed error if
  /// the schedule selects it. `what` names the failing operation.
  void visit_point(FaultSite site, std::string_view what, std::size_t bytes) const;

  std::string name_;
  std::shared_ptr<DeviceBackend> inner_;

  mutable std::mutex mu_;
  FaultSchedule schedule_;
  mutable FaultStats stats_;
  mutable bool one_shot_fired_ = false;
};

/// Wrap `inner` in a fault injector. With no explicit schedule, the
/// H2SKETCH_FAULT_SCHEDULE environment variable is parsed (once, here);
/// unset means `off`. An empty name defaults to "faulty-<inner name>".
std::shared_ptr<FaultInjectingDevice> make_fault_injecting_device(
    std::shared_ptr<DeviceBackend> inner, std::string name = {},
    std::optional<FaultSchedule> schedule = std::nullopt);

} // namespace h2sketch::backend
