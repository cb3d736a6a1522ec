#pragma once

#include "h2/h2_entry_eval.hpp"
#include "h2/h2_matvec.hpp"
#include "la/blas.hpp"
#include "la/lowrank.hpp"

/// \file update_sampler.hpp
/// The paper's third application (Fig. 5(c)): recompressing
///   K' = K_H2 + U V^T
/// into a fresh H2 matrix. The sketching operator is the fast H2 matvec
/// plus the low-rank product; the entry generator reads entries from both
/// representations. Both factors live in the tree's permuted position space.

namespace h2sketch::h2 {

/// Kblk for an H2 matrix plus a low-rank update.
class UpdatedH2Sampler final : public kern::MatVecSampler {
 public:
  /// Both referenced objects must outlive the sampler.
  UpdatedH2Sampler(const H2Matrix& a, const la::LowRank& update) : a_(&a), lr_(&update) {
    H2S_CHECK(update.rows() == a.size() && update.cols() == a.size(),
              "UpdatedH2Sampler: update shape mismatch");
  }

  index_t size() const override { return a_->size(); }
  void sample(ConstMatrixView omega, MatrixView y) override {
    h2_matvec(ctx_, *a_, omega, y);
    lr_->apply(1.0, omega, y);
    record_samples(omega.cols);
  }

 private:
  const H2Matrix* a_;
  const la::LowRank* lr_;
  batched::ExecutionContext ctx_;
};

/// batchedGen for an H2 matrix plus a low-rank update.
class UpdatedH2EntryGenerator final : public kern::EntryGenerator {
 public:
  UpdatedH2EntryGenerator(const H2Matrix& a, const la::LowRank& update)
      : base_(a), lr_(&update) {}

  void generate_block(const_index_span rows, const_index_span cols,
                      MatrixView out) const override {
    base_.generate_block(rows, cols, out);
    // + U(rows, :) V(cols, :)^T on the gathered factor rows.
    Matrix u(out.rows, lr_->rank()), v(out.cols, lr_->rank());
    gather_rows(lr_->u.view(), rows, u.view());
    gather_rows(lr_->v.view(), cols, v.view());
    la::gemm(1.0, u.view(), la::Op::None, v.view(), la::Op::Trans, 1.0, out);
    record_entries(out.rows * out.cols);
  }

 private:
  H2EntryGenerator base_;
  const la::LowRank* lr_;
};

} // namespace h2sketch::h2
