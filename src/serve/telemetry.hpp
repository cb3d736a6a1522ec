#pragma once

#include <atomic>
#include <cstdint>

#include "common/types.hpp"
#include "obs/metrics.hpp"

/// \file telemetry.hpp
/// Serving-side observability: per-operator request counters (lock-free
/// atomics) plus a KLL quantile sketch of request latency (~1% rank error,
/// a short mutex hold per record). Request threads record concurrently
/// while a reporter thread snapshots.

namespace h2sketch::serve {

/// Plain-value snapshot of one operator's serving counters.
struct MetricsSnapshot {
  std::uint64_t requests = 0;      ///< requests submitted
  std::uint64_t matvecs = 0;       ///< single-RHS matvec requests completed
  std::uint64_t solves = 0;        ///< single-RHS solve requests completed
  std::uint64_t batches = 0;       ///< coalesced launches issued
  std::uint64_t coalesced_rhs = 0; ///< total RHS columns across batches
  std::uint64_t flush_full = 0;    ///< batches flushed because max_batch was reached
  std::uint64_t flush_timeout = 0; ///< batches flushed because max_delay expired
  std::uint64_t launch_failures = 0;  ///< coalesced launches that raised a retryable error
  std::uint64_t degraded_launches = 0;///< launches re-run successfully on the fallback backend
  std::uint64_t deadline_expired = 0; ///< requests failed with DeadlineExceededError
  /// Request latency quantiles (submit -> complete) from the latency
  /// sketch; 0 until the first request completes.
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;

  /// Mean RHS per coalesced launch — the batching win over one-launch-per-request.
  double mean_batch() const {
    return batches == 0 ? 0.0 : static_cast<double>(coalesced_rhs) / static_cast<double>(batches);
  }
};

/// Per-operator serving counters. Lives with the cache entry so every handle
/// to an operator shares one set of counters.
class OperatorMetrics {
 public:
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> matvecs{0};
  std::atomic<std::uint64_t> solves{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> coalesced_rhs{0};
  std::atomic<std::uint64_t> flush_full{0};
  std::atomic<std::uint64_t> flush_timeout{0};
  std::atomic<std::uint64_t> launch_failures{0};
  std::atomic<std::uint64_t> degraded_launches{0};
  std::atomic<std::uint64_t> deadline_expired{0};
  /// Latency of every completed request (submit -> complete).
  obs::SketchMetric latency_sketch;

  MetricsSnapshot snapshot() const;
};

} // namespace h2sketch::serve
