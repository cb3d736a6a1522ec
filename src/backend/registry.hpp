#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "backend/device_backend.hpp"

/// \file registry.hpp
/// Named backend configurations. A configuration pairs a device backend
/// (who owns memory) with a launch mode (how many launches a batch costs),
/// which is what `H2SKETCH_BACKEND` selects process-wide:
///
///   * `cpu`       — CpuBackend, batched launches (the default)
///   * `naive`     — CpuBackend, one launch per batch entry (ablation)
///   * `simdevice` — SimulatedDevice, batched launches (the GPU-shaped
///                   path with a separate, poisoned device heap)
///   * `faulty-cpu`, `faulty-simdevice` — the same devices wrapped in a
///                   `FaultInjectingDevice` (backend/fault_injection.hpp):
///                   scheduled allocation/copy/launch failures for
///                   fault-tolerance testing. The wrapper shares the base
///                   device's heap, so `degraded_backend_name()` gives a
///                   fault-free config that can still touch its buffers.
///
/// `registered_backends()` lets tests and benches iterate every
/// configuration; `shared_backend()` returns process-wide singletons so
/// that short-lived ExecutionContexts (convenience overloads create one
/// per call) share a device heap instead of re-reserving one each time.

namespace h2sketch::backend {

/// Names of every registered backend configuration.
std::span<const std::string_view> registered_backends();

/// Configuration backed by the process-wide shared device instance for
/// `name` ("cpu" and "naive" share one CpuBackend). Every configuration
/// shares its device, so operators built under one config and applied
/// under another always address the same device heap. Throws on unknown
/// names. Tests that need a private device with zeroed stats counters use
/// the device factories directly (`make_cpu_backend()`,
/// `make_sim_device()`).
ExecutionConfig shared_backend(std::string_view name);

/// The backend name default-constructed ExecutionContexts use: the
/// `set_default_backend()` override if one is installed, else
/// $H2SKETCH_BACKEND (validated), else "cpu". The environment is re-read on
/// every call — nothing is frozen at first use, so tests and servers that
/// stage the environment late are served correctly.
std::string default_backend_name();

/// Install an explicit process-wide default backend, overriding
/// $H2SKETCH_BACKEND. Throws on unknown names. Thread-safe.
void set_default_backend(std::string_view name);

/// Remove the override installed by `set_default_backend()`; the default
/// reverts to $H2SKETCH_BACKEND / "cpu".
void reset_default_backend();

/// shared_backend(default_backend_name()) — what a default-constructed
/// ExecutionContext uses.
ExecutionConfig default_backend();

class FaultInjectingDevice;

/// The fault-free configuration a degraded retry should fall back to:
/// "faulty-cpu" → "cpu", "faulty-simdevice" → "simdevice"; names that are
/// already fault-free map to themselves. The mapped configuration's device
/// is always the memory owner of the original's buffers, so operators
/// built under the faulty config remain applicable under the fallback.
std::string_view degraded_backend_name(std::string_view name);

/// The process-wide FaultInjectingDevice behind a "faulty-*" configuration
/// (tests and benches program schedules through this). Throws for names
/// without an injector.
std::shared_ptr<FaultInjectingDevice> fault_injector(std::string_view name);

} // namespace h2sketch::backend
