#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "batched/device.hpp"
#include "common/matrix.hpp"
#include "kernels/kernel.hpp"
#include "tree/cluster_tree.hpp"

/// \file entry_gen.hpp
/// Batched entry generation (the paper's batchedGen, §IV-A): the second
/// input to the construction algorithm, a function that evaluates a *batch*
/// of sub-blocks K(I, J) with a single kernel launch. All index sets are in
/// the cluster tree's permuted position space.

namespace h2sketch::kern {

/// One block to evaluate: out = K(rows, cols).
struct BlockRequest {
  const_index_span rows;
  const_index_span cols;
  MatrixView out;
};

/// Interface for evaluating arbitrary sub-blocks of the (permuted) matrix.
class EntryGenerator {
 public:
  virtual ~EntryGenerator() = default;

  /// Fill out(i, j) = K(rows[i], cols[j]).
  virtual void generate_block(const_index_span rows, const_index_span cols,
                              MatrixView out) const = 0;

  /// Number of entries generated so far (for cost reporting). Thread-safe:
  /// blocks are generated concurrently inside batched launches.
  index_t entries_generated() const { return entries_.load(std::memory_order_relaxed); }

 protected:
  void record_entries(index_t n) const { entries_.fetch_add(n, std::memory_order_relaxed); }
  mutable std::atomic<index_t> entries_{0};
};

/// Evaluate all requested blocks in one launch (the batched mode) or one
/// launch per block (naive mode), per the context's backend. Stream form:
/// the request vector is moved into the launch; the index sets and output
/// buffers it references must stay alive until the stream is synced.
void batched_generate(batched::ExecutionContext& ctx, batched::StreamId stream,
                      const EntryGenerator& gen, std::vector<BlockRequest> requests);

/// Synchronous form: completed on return.
void batched_generate(batched::ExecutionContext& ctx, const EntryGenerator& gen,
                      std::span<const BlockRequest> requests);

/// Entry generator for a kernel matrix on clustered geometry:
/// K(i, j) = kernel(x_i, x_j), where x_p is the point at permuted position p
/// for p < N and appended point p - N for p >= N. Appended points (proxy
/// surfaces, interpolation grids) are given point-major, `dim` coordinates
/// each, and extend the index space past the tree's points. The kernel is
/// evaluated here and nowhere else in the library. Caches all coordinates
/// contiguously for locality.
class KernelEntryGenerator final : public EntryGenerator {
 public:
  KernelEntryGenerator(const tree::ClusterTree& tree, const KernelFunction& kernel,
                       std::span<const real_t> appended = {});

  void generate_block(const_index_span rows, const_index_span cols, MatrixView out) const override;

 private:
  const KernelFunction* kernel_;
  index_t dim_;
  std::vector<real_t> coords_; ///< tree points in permuted order, then the appended ones
};

/// Entry generator reading from an explicit dense matrix (already permuted):
/// used for frontal matrices and as a test oracle.
class DenseEntryGenerator final : public EntryGenerator {
 public:
  explicit DenseEntryGenerator(ConstMatrixView a) : a_(a) {}

  void generate_block(const_index_span rows, const_index_span cols, MatrixView out) const override;

 private:
  ConstMatrixView a_;
};

} // namespace h2sketch::kern
