#include "backend/registry.hpp"

#include <array>
#include <cstdlib>
#include <mutex>

#include "backend/cpu_backend.hpp"
#include "backend/fault_injection.hpp"
#include "backend/sim_device.hpp"
#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace h2sketch::backend {

namespace {

constexpr std::array<std::string_view, 5> kNames = {"naive", "cpu", "simdevice", "faulty-cpu",
                                                    "faulty-simdevice"};

/// The process-wide device singletons. Hoisted out of shared_device so the
/// metrics collector can walk whatever backends exist at snapshot time.
/// Leaked: instrument collectors may outlive static destruction order.
struct DeviceSingletons {
  std::mutex mu;
  std::shared_ptr<DeviceBackend> cpu, sim;
  std::shared_ptr<FaultInjectingDevice> faulty_cpu, faulty_sim;
};

DeviceSingletons& singletons() {
  static DeviceSingletons* s = new DeviceSingletons;
  return *s;
}

void emit_device_metrics(obs::SnapshotBuilder& b, std::string_view name,
                         const DeviceBackend& dev) {
  const DeviceStatsSnapshot s = dev.stats();
  const std::string prefix = "backend_" + std::string(name) + "_";
  b.counter(prefix + "bytes_to_device", s.bytes_to_device);
  b.counter(prefix + "bytes_to_host", s.bytes_to_host);
  b.counter(prefix + "bytes_on_device", s.bytes_on_device);
  b.counter(prefix + "allocations", s.allocations);
  b.counter(prefix + "deallocations", s.deallocations);
  b.gauge(prefix + "live_bytes", static_cast<double>(s.live_bytes));
  b.gauge(prefix + "peak_bytes", static_cast<double>(s.peak_bytes));
}

void emit_fault_metrics(obs::SnapshotBuilder& b, std::string_view name,
                        const FaultInjectingDevice& dev) {
  const FaultStats f = dev.fault_stats();
  const std::string prefix = "backend_" + std::string(name) + "_fault_";
  b.counter(prefix + "points", f.points());
  b.counter(prefix + "considered", f.considered);
  b.counter(prefix + "injected", f.injected);
}

/// One pull collector folds every live backend's DeviceStatsSnapshot (and
/// the fault injectors' counters) into the global registry snapshot.
void register_device_collector() {
  static std::once_flag once;
  std::call_once(once, [] {
    obs::MetricsRegistry::global().add_collector([](obs::SnapshotBuilder& b) {
      DeviceSingletons& s = singletons();
      std::lock_guard<std::mutex> lk(s.mu);
      if (s.cpu) emit_device_metrics(b, "cpu", *s.cpu);
      if (s.sim) emit_device_metrics(b, "simdevice", *s.sim);
      if (s.faulty_cpu) emit_fault_metrics(b, "faulty-cpu", *s.faulty_cpu);
      if (s.faulty_sim) emit_fault_metrics(b, "faulty-simdevice", *s.faulty_sim);
    });
  });
}

std::shared_ptr<DeviceBackend> shared_device(std::string_view name) {
  // One device instance per kind for the whole process: contexts created
  // per call (convenience overloads, samplers) must share the device heap,
  // and mixing construction-time and solve-time contexts must see the same
  // address space. The faulty-* wrappers are likewise singletons, wrapping
  // the shared base device — their allocations live in the base heap, so a
  // degraded retry on the base config can touch them.
  register_device_collector();
  DeviceSingletons& sg = singletons();
  std::lock_guard<std::mutex> lk(sg.mu);
  if (name == "simdevice" || name == "faulty-simdevice") {
    if (!sg.sim) sg.sim = make_sim_device();
    if (name == "simdevice") return sg.sim;
    if (!sg.faulty_sim) sg.faulty_sim = make_fault_injecting_device(sg.sim, "faulty-simdevice");
    return sg.faulty_sim;
  }
  if (!sg.cpu) sg.cpu = make_cpu_backend();
  if (name == "faulty-cpu") {
    if (!sg.faulty_cpu) sg.faulty_cpu = make_fault_injecting_device(sg.cpu, "faulty-cpu");
    return sg.faulty_cpu;
  }
  return sg.cpu;
}

bool is_registered(std::string_view name) {
  for (std::string_view n : kNames)
    if (name == n) return true;
  return false;
}

std::mutex& default_name_mutex() {
  static std::mutex mu;
  return mu;
}

/// Explicit override installed by set_default_backend(); empty = read the
/// environment on each call. Guarded by default_name_mutex().
std::string& default_name_override() {
  static std::string name;
  return name;
}

} // namespace

std::span<const std::string_view> registered_backends() { return kNames; }

ExecutionConfig shared_backend(std::string_view name) {
  if (name == "naive") return {shared_device("cpu"), LaunchMode::Naive};
  if (is_registered(name)) return {shared_device(name), LaunchMode::Batched};
  H2S_CHECK(false, "unknown backend '" << std::string(name) << "' (registered: naive, cpu, "
                                       << "simdevice, faulty-cpu, faulty-simdevice)");
  return {};
}

std::string default_backend_name() {
  {
    std::lock_guard<std::mutex> lk(default_name_mutex());
    if (!default_name_override().empty()) return default_name_override();
  }
  if (const char* s = std::getenv("H2SKETCH_BACKEND")) {
    const std::string v(s);
    H2S_CHECK(is_registered(v), "H2SKETCH_BACKEND='"
                                    << v << "' is not a registered backend "
                                    << "(naive, cpu, simdevice, faulty-cpu, faulty-simdevice)");
    return v;
  }
  return std::string("cpu");
}

void set_default_backend(std::string_view name) {
  H2S_CHECK(is_registered(name), "set_default_backend('"
                                     << std::string(name) << "'): not a registered backend "
                                     << "(naive, cpu, simdevice, faulty-cpu, faulty-simdevice)");
  std::lock_guard<std::mutex> lk(default_name_mutex());
  default_name_override() = std::string(name);
}

void reset_default_backend() {
  std::lock_guard<std::mutex> lk(default_name_mutex());
  default_name_override().clear();
}

ExecutionConfig default_backend() { return shared_backend(default_backend_name()); }

std::string_view degraded_backend_name(std::string_view name) {
  if (name == "faulty-cpu") return "cpu";
  if (name == "faulty-simdevice") return "simdevice";
  return name;
}

std::shared_ptr<FaultInjectingDevice> fault_injector(std::string_view name) {
  H2S_CHECK(name == "faulty-cpu" || name == "faulty-simdevice",
            "fault_injector('" << std::string(name) << "'): not a fault-injecting backend "
                               << "(faulty-cpu, faulty-simdevice)");
  auto dev = std::dynamic_pointer_cast<FaultInjectingDevice>(shared_device(name));
  H2S_CHECK(dev != nullptr, "fault_injector: registry did not produce a FaultInjectingDevice");
  return dev;
}

} // namespace h2sketch::backend
