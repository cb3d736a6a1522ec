#pragma once

#include <cstdint>
#include <vector>

/// \file quantile_sketch.hpp
/// Mergeable KLL-style streaming quantile sketch (Karnin–Lang–Liberty).
///
/// Fixed memory: a stack of compactor levels where level `l` holds items of
/// weight 2^l; when a level overflows, its sorted contents are halved (keep
/// every other item from a pseudo-random even/odd offset) and the survivors
/// promoted one level up. Retained items total O(k log(n/k)); rank error is
/// ~1/k at the median (k = 200 gives roughly 1% normalized rank error).
/// It is the one latency quantile estimator: serving records every request
/// latency into one per operator and one process-wide.
///
/// Determinism: compaction offsets come from an internal splitmix64 stream
/// seeded at construction (never from time or global RNG state), per the
/// repo-wide seeding rules — the same update sequence on the same seed
/// yields a bitwise-identical sketch, and merge(a, b) is deterministic in
/// the receiver's stream.

namespace h2sketch::obs {

class QuantileSketch {
 public:
  /// `k` bounds the top-level compactor (larger k = lower rank error,
  /// ~1.7/k normalized); `seed` drives compaction coin flips.
  explicit QuantileSketch(int k = 200, std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Stream one value in. Amortized O(1); worst case compacts O(log n) levels.
  void update(double v);

  /// Fold another sketch in (level-wise concatenation + re-compaction).
  /// Error bounds compose: the merged sketch keeps the KLL guarantee.
  void merge(const QuantileSketch& other);

  /// Total values streamed in (not retained count).
  std::uint64_t count() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Estimated value at normalized rank q in [0, 1]; q=0.5 is the median.
  /// Returns NaN on an empty sketch.
  double quantile(double q) const;

  /// Estimated normalized rank of `v`: fraction of streamed items <= v.
  double rank(double v) const;

  /// Exact stream extrema (tracked outside the compactors).
  double min() const;
  double max() const;

  int k() const { return k_; }

  /// Items currently held across all levels — the memory bound under test.
  std::size_t retained() const;

  void reset();

 private:
  /// Capacity of `level` given the current stack height: the top level gets
  /// k items and each step down shrinks by 2/3, floored at 8.
  std::size_t level_capacity(std::size_t level) const;
  std::size_t total_capacity() const;

  /// Halve the lowest over-full level, promoting survivors upward.
  void compress();

  std::uint64_t next_random();

  int k_;
  std::uint64_t rng_state_;
  std::uint64_t n_ = 0;
  double min_ = 0.0, max_ = 0.0;
  /// levels_[l] holds items of weight 2^l; level 0 is the raw (unsorted)
  /// ingest buffer, higher levels are kept sorted by compaction.
  std::vector<std::vector<double>> levels_;
};

} // namespace h2sketch::obs
