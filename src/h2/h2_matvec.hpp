#pragma once

#include <mutex>
#include <span>

#include "batched/device.hpp"
#include "h2/h2_matrix.hpp"
#include "kernels/sampler.hpp"

/// \file h2_matvec.hpp
/// The O(N) H2 matrix-(multi)vector product: upward pass (project inputs
/// onto cluster bases through the transfer tree), per-level coupling phase
/// (block-sparse products with the B matrices), downward pass (expand
/// contributions back down), and the dense near-field phase. Each phase is
/// one batched launch per level — this is also the structure of the H2Opus
/// matvec the paper plugs in as Kblk.

namespace h2sketch::h2 {

/// y = A * x with x, y (N x d) in the tree's permuted position order.
void h2_matvec(batched::ExecutionContext& ctx, const H2Matrix& a, ConstMatrixView x,
               MatrixView y);

/// One level of the upward pass, asynchronous on `stream`: at the leaf
/// level coeffs[i] = U_i^T x(I_i, :) for the N-row panel x; above it
/// coeffs[i] = E_left^T below[2i] + E_right^T below[2i + 1] over the
/// level + 1 coefficients, as two launches (left, then right accumulating).
/// Rank-0 nodes and children contribute nothing, so `coeffs` must start
/// zeroed. The shared upsweep of the matvec and the sketching
/// construction's sample sweep.
void upsweep_level(batched::ExecutionContext& ctx, batched::StreamId stream, const H2Matrix& a,
                   index_t level, ConstMatrixView x, std::span<const MatrixView> below,
                   std::span<const MatrixView> coeffs);

/// Convenience overload with an internal batched context.
void h2_matvec(const H2Matrix& a, ConstMatrixView x, MatrixView y);

/// Black-box sampler backed by the fast H2 matvec: the Kblk oracle for
/// reconstruction experiments and the error estimator.
class H2Sampler final : public kern::MatVecSampler {
 public:
  /// The H2 matrix must outlive the sampler. The embedded context binds to
  /// the device the matrix's arenas live on.
  explicit H2Sampler(const H2Matrix& a) : a_(&a), ctx_(a.execution_config()) {}

  index_t size() const override { return a_->size(); }
  void sample(ConstMatrixView omega, MatrixView y) override {
    // The embedded context (its workspace arena in particular) is mutable
    // shared state: serialize samples so one sampler instance may be shared
    // across threads. Callers wanting concurrency use h2_matvec directly
    // with per-thread contexts.
    std::lock_guard<std::mutex> lk(mu_);
    h2_matvec(ctx_, *a_, omega, y);
    record_samples(omega.cols);
  }

 private:
  const H2Matrix* a_;
  std::mutex mu_;
  batched::ExecutionContext ctx_;
};

} // namespace h2sketch::h2
