#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "kernels/entry_gen.hpp"
#include "kernels/sampler.hpp"
#include "obs/trace.hpp"

/// \file timed.hpp
/// Decorators that measure the kernels layer from outside: they forward
/// every call to the wrapped sampler / entry generator and count the time
/// and work it took. Both interfaces are plain virtuals that nothing in the
/// library inspects by type, so a decorated run computes exactly what an
/// undecorated one does.

namespace h2sketch::suite {

inline std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times every Kblk product. The construction calls `sample` from one
/// thread at a time, but the counters are atomic so a concurrent caller
/// stays safe.
class TimedSampler final : public kern::MatVecSampler {
 public:
  /// The wrapped sampler must outlive the decorator.
  explicit TimedSampler(kern::MatVecSampler& inner) : inner_(inner) {}

  index_t size() const override { return inner_.size(); }

  void sample(ConstMatrixView omega, MatrixView y) override {
    obs::TraceSpan span("bench", "kernels.sample", "cols", static_cast<std::uint64_t>(omega.cols));
    const std::int64_t t0 = steady_ns();
    inner_.sample(omega, y);
    busy_ns_.fetch_add(steady_ns() - t0, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
    record_samples(omega.cols);
  }

  double seconds() const { return 1e-9 * static_cast<double>(busy_ns_.load()); }
  std::int64_t calls() const { return calls_.load(); }

 private:
  kern::MatVecSampler& inner_;
  std::atomic<std::int64_t> busy_ns_{0};
  std::atomic<std::int64_t> calls_{0};
};

/// Times every block evaluation. Blocks are generated concurrently on pool
/// workers, so `busy_seconds` sums thread time, not wall time. No trace span
/// per block: one build evaluates tens of thousands of blocks, which would
/// fill the per-thread trace ring and drop the spans of every later layer.
class TimedEntryGenerator final : public kern::EntryGenerator {
 public:
  /// The wrapped generator must outlive the decorator.
  explicit TimedEntryGenerator(const kern::EntryGenerator& inner) : inner_(inner) {}

  void generate_block(const_index_span rows, const_index_span cols, MatrixView out) const override {
    const std::int64_t t0 = steady_ns();
    inner_.generate_block(rows, cols, out);
    busy_ns_.fetch_add(steady_ns() - t0, std::memory_order_relaxed);
    blocks_.fetch_add(1, std::memory_order_relaxed);
    record_entries(out.rows * out.cols);
  }

  double busy_seconds() const { return 1e-9 * static_cast<double>(busy_ns_.load()); }
  std::int64_t blocks() const { return blocks_.load(); }

 private:
  const kern::EntryGenerator& inner_;
  mutable std::atomic<std::int64_t> busy_ns_{0};
  mutable std::atomic<std::int64_t> blocks_{0};
};

} // namespace h2sketch::suite
