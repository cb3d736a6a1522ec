#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/errors.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "geometry/point_cloud.hpp"
#include "kernels/kernel.hpp"
#include "serve/clock.hpp"
#include "serve/telemetry.hpp"
#include "h2/h2_matrix.hpp"
#include "solver/ulv.hpp"

/// \file operator_cache.hpp
/// The construct/factor-once half of the serving story (H2Opus phase
/// separation): compressed+factored operators are cached under a key of
/// (kernel, geometry fingerprint, tolerance, backend) and handed out as
/// pin-counted handles. Eviction is byte-budgeted LRU and never evicts an
/// operator that still has live handles (in-flight requests pin the
/// operator for their whole lifetime). Concurrent misses on the same key
/// coalesce into a single build — the other callers block on the builder's
/// future instead of compressing the same operator twice.

namespace h2sketch::serve {

/// Cache key. Two requests share an operator iff every field matches: the
/// kernel identity string (name; fold parameters in if they vary), the
/// geometry fingerprint (point coordinates + clustering leaf size), the
/// compression tolerance, and the backend configuration the operator's
/// panels live on.
struct OperatorKey {
  std::string kernel;
  std::uint64_t geometry = 0;
  real_t tol = 0;
  std::string backend;

  bool operator==(const OperatorKey&) const = default;
};

struct OperatorKeyHash {
  std::size_t operator()(const OperatorKey& k) const;
};

/// FNV-1a over the raw coordinates, point count, dimension and leaf size —
/// the clustering is deterministic in those, so equal fingerprints mean the
/// same permuted operator.
std::uint64_t geometry_fingerprint(const geo::PointCloud& points, index_t leaf_size);

/// One cached, factored, read-only operator: the compressed HSS matrix (the
/// weak-admissibility H2Matrix, for matvec requests), its ULV Cholesky
/// factor (for solve requests), and the per-operator serving counters every
/// handle shares.
struct ServedOperator {
  std::shared_ptr<const tree::ClusterTree> tree;
  h2::H2Matrix matrix;
  solver::UlvCholesky factor;
  std::string backend;    ///< backend config name the panels were built on
  std::size_t bytes = 0;  ///< device-resident matrix + factor arena bytes (the LRU budget unit)
  core::ConstructionStats build_stats;
  /// Shared serving counters (behind a pointer so the operator stays
  /// movable; atomics pin their address).
  std::unique_ptr<OperatorMetrics> metrics = std::make_unique<OperatorMetrics>();

  index_t size() const { return matrix.size(); }
};

namespace detail {
struct CacheEntry {
  ServedOperator op;
  std::atomic<std::uint64_t> pins{0}; ///< live handles; >0 blocks eviction
  std::uint64_t last_use = 0;         ///< LRU stamp, guarded by the cache mutex
};
} // namespace detail

/// Pin-counted reference to a cached operator. Copyable (each copy is a
/// pin); the operator cannot be evicted while any handle exists, and stays
/// alive (shared_ptr) even if the cache drops it. Default-constructed
/// handles are empty.
class OperatorHandle {
 public:
  OperatorHandle() = default;
  OperatorHandle(const OperatorHandle& o) : entry_(o.entry_) { pin(); }
  OperatorHandle(OperatorHandle&& o) noexcept : entry_(std::move(o.entry_)) { o.entry_.reset(); }
  OperatorHandle& operator=(OperatorHandle o) noexcept {
    std::swap(entry_, o.entry_);
    return *this;
  }
  ~OperatorHandle() { unpin(); }

  explicit operator bool() const { return entry_ != nullptr; }
  ServedOperator& operator*() const { return entry_->op; }
  ServedOperator* operator->() const { return &entry_->op; }
  /// Stable identity of the cached entry (coalescer group key).
  const void* id() const { return entry_.get(); }

 private:
  friend class OperatorCache;
  explicit OperatorHandle(std::shared_ptr<detail::CacheEntry> e) : entry_(std::move(e)) {
    pin();
  }
  void pin() {
    if (entry_) entry_->pins.fetch_add(1, std::memory_order_relaxed);
  }
  void unpin() {
    if (entry_) entry_->pins.fetch_sub(1, std::memory_order_relaxed);
  }

  std::shared_ptr<detail::CacheEntry> entry_;
};

struct CacheStats {
  std::uint64_t hits = 0;           ///< acquire() found a completed entry
  std::uint64_t misses = 0;         ///< acquire() had to build or join a build
  std::uint64_t builds = 0;         ///< builder invocations (misses minus joins)
  std::uint64_t evictions = 0;      ///< entries dropped by the LRU sweep
  std::uint64_t eviction_skips = 0; ///< pinned entries the sweep had to pass over
  std::uint64_t build_retries = 0;  ///< builder re-invocations after a retryable Error
  std::uint64_t build_failures = 0; ///< builds that failed after all retries
  std::uint64_t cooldown_rejects = 0; ///< acquires rejected from the failure cooldown cache
  std::uint64_t oom_evictions = 0;  ///< entries evicted to satisfy a DeviceOomError retry
  std::size_t bytes_cached = 0;     ///< current resident operator bytes
};

/// Cache policy, including the build-failure recovery knobs.
struct CacheOptions {
  std::size_t byte_budget = 0; ///< 0 = unbounded (never evicts)

  /// Builder re-invocations after a retryable `Error` (taxonomy only —
  /// exceptions outside `h2sketch::Error` propagate immediately, since the
  /// cache cannot judge whether retrying an unknown failure is safe).
  int max_build_retries = 2;
  double backoff_initial_seconds = 0.05; ///< first retry delay; doubles per retry
  double backoff_max_seconds = 1.0;      ///< backoff cap

  /// Negative-result cooldown: after a build fails all retries, re-acquires
  /// of that key within this window rethrow the stored failure instead of
  /// re-running the expensive build. 0 (default) disables the cooldown — a
  /// failed key may rebuild immediately.
  double failure_cooldown_seconds = 0.0;

  std::shared_ptr<const Clock> clock;    ///< cooldown time source (default SteadyClock)
  std::function<void(double)> sleep_fn;  ///< backoff sleep (default real sleep); tests no-op it
};

/// Byte-budgeted LRU cache of factored operators. All public methods are
/// thread-safe; builds run outside the cache lock so unrelated keys are
/// served while an operator compresses.
class OperatorCache {
 public:
  using Builder = std::function<ServedOperator()>;

  explicit OperatorCache(CacheOptions opts);
  /// byte_budget 0 = unbounded (never evicts).
  explicit OperatorCache(std::size_t byte_budget = 0)
      : OperatorCache([byte_budget] {
          CacheOptions opts;
          opts.byte_budget = byte_budget;
          return opts;
        }()) {}
  ~OperatorCache();
  OperatorCache(const OperatorCache&) = delete;
  OperatorCache& operator=(const OperatorCache&) = delete;

  /// Return a handle for `key`, invoking `build` on a miss. Concurrent
  /// misses on one key run a single build; a build that throws propagates
  /// to every waiter and leaves no cache entry behind. After inserting, the
  /// LRU sweep runs — the freshly returned handle pins its own entry, so
  /// the new operator is never its own victim.
  ///
  /// Recovery (see CacheOptions): retryable `Error`s re-invoke the builder
  /// under capped exponential backoff; a `DeviceOomError` first evicts
  /// unpinned LRU entries to cover the failed allocation and retries
  /// without consuming an attempt while eviction makes progress. A key
  /// whose build failed terminally rethrows from the cooldown cache for
  /// `failure_cooldown_seconds` before the builder runs again.
  OperatorHandle acquire(const OperatorKey& key, const Builder& build);

  /// Lookup without building: empty handle on miss (does not count as a
  /// hit/miss and does not join pending builds).
  OperatorHandle find(const OperatorKey& key);

  CacheStats stats() const;
  std::size_t bytes_cached() const;
  std::size_t byte_budget() const { return opts_.byte_budget; }

 private:
  using EntryPtr = std::shared_ptr<detail::CacheEntry>;
  struct FailedBuild {
    double expires_at = 0.0;
    std::exception_ptr error;
  };

  void touch_locked(const EntryPtr& e) { e->last_use = ++use_clock_; }
  void evict_locked();
  /// Drop unpinned LRU entries until at least `requested` bytes are freed
  /// (or nothing evictable remains). True if any entry was evicted.
  bool free_bytes_for_oom(std::size_t requested);
  ServedOperator build_with_recovery(const Builder& build);

  const CacheOptions opts_;
  mutable std::mutex mu_;
  std::unordered_map<OperatorKey, EntryPtr, OperatorKeyHash> map_;
  std::unordered_map<OperatorKey, std::shared_future<EntryPtr>, OperatorKeyHash> pending_;
  std::unordered_map<OperatorKey, FailedBuild, OperatorKeyHash> failed_;
  std::uint64_t use_clock_ = 0;
  CacheStats stats_;
  std::uint64_t collector_id_ = 0; ///< metrics-registry pull collector
};

/// Build inputs for the stock kernel-matrix serving operator.
struct ServeBuildOptions {
  index_t leaf_size = 64;
  core::ConstructionOptions construction; ///< tol, sampling knobs, seed
};

/// Cache key for a kernel-matrix operator (geometry fingerprint includes
/// the leaf size; tol comes from the construction options).
OperatorKey make_operator_key(const geo::PointCloud& points, const kern::KernelFunction& kernel,
                              const ServeBuildOptions& opts, std::string_view backend_name);

/// The standard build: cluster, sketch-compress to HSS, ULV-factor — all on
/// the process-wide shared device of `backend_name`, so any context made
/// from the registry can apply the result. The kernel must be SPD on the
/// points (e.g. RidgeKernel) for the factorization to succeed.
ServedOperator build_served_operator(const geo::PointCloud& points,
                                     const kern::KernelFunction& kernel,
                                     const ServeBuildOptions& opts,
                                     std::string_view backend_name);

} // namespace h2sketch::serve
