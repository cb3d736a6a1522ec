#include "serve/telemetry.hpp"

namespace h2sketch::serve {

MetricsSnapshot OperatorMetrics::snapshot() const {
  MetricsSnapshot s;
  s.requests = requests.load(std::memory_order_relaxed);
  s.matvecs = matvecs.load(std::memory_order_relaxed);
  s.solves = solves.load(std::memory_order_relaxed);
  s.batches = batches.load(std::memory_order_relaxed);
  s.coalesced_rhs = coalesced_rhs.load(std::memory_order_relaxed);
  s.flush_full = flush_full.load(std::memory_order_relaxed);
  s.flush_timeout = flush_timeout.load(std::memory_order_relaxed);
  s.launch_failures = launch_failures.load(std::memory_order_relaxed);
  s.degraded_launches = degraded_launches.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired.load(std::memory_order_relaxed);
  // An empty sketch answers NaN; reporters poll snapshots from the moment
  // an operator is cached, long before the first request completes.
  const obs::QuantileSketch sk = latency_sketch.snapshot();
  if (!sk.empty()) {
    s.p50_seconds = sk.quantile(0.50);
    s.p99_seconds = sk.quantile(0.99);
  }
  return s;
}

} // namespace h2sketch::serve
