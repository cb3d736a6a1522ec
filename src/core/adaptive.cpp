#include <cmath>

#include "batched/batched_gemm.hpp"
#include "batched/batched_qr.hpp"
#include "batched/batched_rand.hpp"
#include "batched/bsr_gemm.hpp"
#include "core/builder.hpp"
#include "la/blas.hpp"
#include "obs/metrics.hpp"

/// \file adaptive.cpp
/// Sampling, the updateSamples upsweep, and the convergence test of
/// Algorithm 1 (paper §III-B): new samples arrive in blocks of d columns and
/// are replayed through the transforms of every already-skeletonized level
/// (dense subtraction + skeleton-row restriction at the leaves, coupling
/// subtraction + transfer products above) until they reach the level being
/// processed.

namespace h2sketch::core::detail {

real_t H2SketchBuilder::eps_abs() const { return opts_.tol * stats_.norm_estimate; }

void H2SketchBuilder::sample_columns(index_t d_new) {
  PhaseScope scope(stats_.phases, Phase::Sampling);
  // Appending columns reallocates (Omega, Y); any in-flight launch from the
  // previous round may still hold views into them, so this is a barrier.
  // The initial round (d_total_ == 0) skips it: nothing references the
  // still-empty matrices, which lets the first sampler product overlap the
  // asynchronous near-field generation.
  if (d_total_ > 0) ctx_.sync_all();
  const index_t n = tree_->num_points();
  const index_t c0 = d_total_;
  backend::DeviceBackend& dev = ctx_.device();
  if (omega_global_.rows() == 0) {
    omega_global_.resize(dev, n, c0 + d_new);
    y_global_.resize(dev, n, c0 + d_new);
  } else {
    omega_global_.append_cols(dev, d_new);
    y_global_.append_cols(dev, d_new);
  }
  MatrixView new_omega = omega_global_.view().col_range(c0, d_new);
  batched::batched_fill_gaussian(ctx_, new_omega, stream_, rand_offset_);
  rand_offset_ += static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(d_new);
  MatrixView new_y = y_global_.view().col_range(c0, d_new);
  {
    // The monolithic Kblk product is itself a kernel launch over the
    // device-resident (Omega, Y) pair; the scope keeps the device heap
    // accessible for whatever engine the sampler runs.
    backend::KernelScope ks(&dev);
    sampler_.sample(new_omega, new_y);
  }
  d_total_ += d_new;
  ++stats_.sample_rounds;

  if (stats_.sample_rounds == 1) {
    // Norm estimate for the absolute threshold eps_abs = tol * ||K||: a
    // reduction kernel over the device-resident samples.
    backend::KernelScope ks(&dev);
    stats_.norm_estimate = opts_.norm_est == NormEstimate::Given
                               ? opts_.given_norm
                               : la::norm_f(new_y) / std::sqrt(static_cast<real_t>(d_new));
    H2S_CHECK(stats_.norm_estimate > 0.0, "norm estimate must be positive");
  }
}

void H2SketchBuilder::extend_yloc(index_t level, index_t c0, index_t dn) {
  // Consumer of all three pipelines: the near-field / coupling blocks
  // (entry-gen stream), the upswept samples (sample stream) and the upswept
  // random vectors (basis stream) all feed the local sample assembly below.
  ctx_.sync_all();
  const index_t leaf = tree_->leaf_level();
  const index_t nodes = tree_->nodes_at(level);
  const auto ul = static_cast<size_t>(level);
  auto& yl = yloc_[ul];

  // Row count of a node's local sample block.
  auto yloc_rows = [&](index_t i) {
    if (level == leaf) return tree_->size(level, i);
    return out_.ranks[ul + 1][static_cast<size_t>(2 * i)] +
           out_.ranks[ul + 1][static_cast<size_t>(2 * i + 1)];
  };

  {
    PhaseScope scope(stats_.phases, Phase::Misc);
    if (yl.empty()) {
      H2S_ASSERT(c0 == 0, "first Y_loc build must start at column 0");
      yl.resize(static_cast<size_t>(nodes));
      for (index_t i = 0; i < nodes; ++i)
        yl[static_cast<size_t>(i)].resize(ctx_.device(), yloc_rows(i), dn);
    } else {
      for (index_t i = 0; i < nodes; ++i)
        yl[static_cast<size_t>(i)].append_cols(ctx_.device(), dn);
    }
  }

  if (level == leaf) {
    // Y_loc = Y(I_tau, cols) - sum_b D_{tau,b} Omega(I_b, cols)   (Line 9).
    {
      PhaseScope scope(stats_.phases, Phase::Misc);
      for (index_t i = 0; i < nodes; ++i)
        ctx_.device().copy_device(
            y_global_.view().block(tree_->begin(level, i), c0, tree_->size(level, i), dn),
            yl[static_cast<size_t>(i)].view().col_range(c0, dn));
    }
    PhaseScope scope(stats_.phases, Phase::BsrGemm);
    const auto& near = out_.mtree.near_leaf;
    if (!near.empty()) {
      std::vector<ConstMatrixView> blocks, xv;
      std::vector<MatrixView> yv;
      for (index_t e = 0; e < out_.dense.count(); ++e) blocks.push_back(out_.dense.dev(e));
      for (index_t i = 0; i < nodes; ++i) {
        xv.push_back(
            omega_global_.view().block(tree_->begin(level, i), c0, tree_->size(level, i), dn));
        yv.push_back(yl[static_cast<size_t>(i)].view().col_range(c0, dn));
      }
      // Asynchronous on the sample stream: every later consumer of Y_loc
      // (min-diag probe, row ID, shrink) launches on the same stream, so
      // FIFO order stands in for a barrier.
      batched::bsr_gemm(ctx_, batched::kSampleStream, -1.0,
                        {near.row_ptr.begin(), near.row_ptr.end()},
                        {near.col.begin(), near.col.end()}, std::move(blocks), std::move(xv),
                        std::move(yv));
    }
    return;
  }

  // Inner level: stack the children's upswept samples, then subtract the
  // child-level coupling contributions (Lines 24 / 27).
  const index_t child_level = level + 1;
  const auto uc = static_cast<size_t>(child_level);
  {
    PhaseScope scope(stats_.phases, Phase::Misc);
    for (index_t i = 0; i < nodes; ++i) {
      const index_t r1 = out_.ranks[uc][static_cast<size_t>(2 * i)];
      const index_t r2 = out_.ranks[uc][static_cast<size_t>(2 * i + 1)];
      MatrixView dst = yl[static_cast<size_t>(i)].view();
      if (r1 > 0)
        ctx_.device().copy_device(y_up_[uc][static_cast<size_t>(2 * i)].view().col_range(c0, dn),
                                  dst.block(0, c0, r1, dn));
      if (r2 > 0)
        ctx_.device().copy_device(
            y_up_[uc][static_cast<size_t>(2 * i + 1)].view().col_range(c0, dn),
            dst.block(r1, c0, r2, dn));
    }
  }
  PhaseScope scope(stats_.phases, Phase::BsrGemm);
  const auto& far_child = out_.mtree.far[uc];
  if (!far_child.empty()) {
    std::vector<ConstMatrixView> blocks, xv;
    std::vector<MatrixView> yv;
    for (index_t e = 0; e < out_.coupling[uc].count(); ++e)
      blocks.push_back(out_.coupling[uc].dev(e));
    for (index_t nu = 0; nu < tree_->nodes_at(child_level); ++nu) {
      const auto un = static_cast<size_t>(nu);
      xv.push_back(omega_up_[uc][un].view().col_range(c0, dn));
      const index_t parent = nu / 2;
      const index_t r1 = out_.ranks[uc][static_cast<size_t>(2 * parent)];
      const index_t row0 = (nu % 2 == 0) ? 0 : r1;
      const index_t rn = out_.ranks[uc][un];
      yv.push_back(yl[static_cast<size_t>(parent)].view().block(row0, c0, rn, dn));
    }
    batched::bsr_gemm(ctx_, batched::kSampleStream, -1.0,
                      {far_child.row_ptr.begin(), far_child.row_ptr.end()},
                      {far_child.col.begin(), far_child.col.end()}, std::move(blocks),
                      std::move(xv), std::move(yv));
  }
}

void H2SketchBuilder::extend_upswept(index_t level, index_t c0, index_t dn) {
  PhaseScope scope(stats_.phases, Phase::Upsweep);
  const index_t leaf = tree_->leaf_level();
  const index_t nodes = tree_->nodes_at(level);
  const auto ul = static_cast<size_t>(level);

  for (index_t i = 0; i < nodes; ++i) {
    y_up_[ul][static_cast<size_t>(i)].append_cols(ctx_.device(), dn);
    omega_up_[ul][static_cast<size_t>(i)].append_cols(ctx_.device(), dn);
  }

  // y_up(:, new) = Y_loc(J, new) — batchedShrink on the new columns, on the
  // sample stream (FIFO after the Y_loc assembly), concurrent with the
  // omega_up extension on the basis stream below.
  {
    std::vector<ConstMatrixView> src;
    std::vector<MatrixView> dst;
    for (index_t i = 0; i < nodes; ++i) {
      const auto ui = static_cast<size_t>(i);
      src.push_back(yloc_[ul][ui].view().col_range(c0, dn));
      dst.push_back(y_up_[ul][ui].view().col_range(c0, dn));
    }
    batched::batched_gather_rows(ctx_, batched::kSampleStream, std::move(src), jlocal_[ul],
                                 std::move(dst));
  }

  // omega_up(:, new): U^T Omega(I, new) at the leaf, transfer products above.
  if (level == leaf) {
    std::vector<ConstMatrixView> av, bv;
    std::vector<MatrixView> cv;
    for (index_t i = 0; i < nodes; ++i) {
      const auto ui = static_cast<size_t>(i);
      av.push_back(out_.basis[ul].dev(i));
      bv.push_back(
          omega_global_.view().block(tree_->begin(level, i), c0, tree_->size(level, i), dn));
      cv.push_back(omega_up_[ul][ui].view().col_range(c0, dn));
    }
    batched::batched_gemm(ctx_, batched::kBasisStream, 1.0, std::move(av), la::Op::Trans,
                          std::move(bv), la::Op::None, 0.0, std::move(cv));
  } else {
    for (int side = 0; side < 2; ++side) {
      std::vector<ConstMatrixView> av, bv;
      std::vector<MatrixView> cv;
      for (index_t i = 0; i < nodes; ++i) {
        const auto ui = static_cast<size_t>(i);
        const index_t k = out_.ranks[ul][ui];
        const index_t r1 = out_.ranks[ul + 1][static_cast<size_t>(2 * i)];
        const index_t rs = side == 0 ? r1 : out_.ranks[ul + 1][static_cast<size_t>(2 * i + 1)];
        const index_t row0 = side == 0 ? 0 : r1;
        if (k == 0 || rs == 0) {
          // Appended columns start zeroed; skipping equals the beta=0 case.
          av.push_back(ConstMatrixView());
          bv.push_back(ConstMatrixView());
          cv.push_back(MatrixView());
          continue;
        }
        av.push_back(out_.basis[ul].dev(i).block(row0, 0, rs, k));
        bv.push_back(omega_up_[ul + 1][static_cast<size_t>(2 * i + side)].view().col_range(c0, dn));
        cv.push_back(omega_up_[ul][ui].view().col_range(c0, dn));
      }
      batched::batched_gemm(ctx_, batched::kBasisStream, 1.0, std::move(av), la::Op::Trans,
                            std::move(bv), la::Op::None, side == 0 ? 0.0 : 1.0, std::move(cv));
    }
  }
}

void H2SketchBuilder::add_sample_round(index_t level) {
  const index_t c0 = d_total_;
  const index_t dn = opts_.sample_block;
  sample_columns(dn);
  // updateSamples (Lines 13 / 31): replay the new columns through every
  // completed level, then extend the current level's local samples.
  for (index_t l = tree_->leaf_level(); l > level; --l) {
    extend_yloc(l, c0, dn);
    extend_upswept(l, c0, dn);
  }
  extend_yloc(level, c0, dn);
}

index_t H2SketchBuilder::unconverged_nodes(index_t level) {
  PhaseScope scope(stats_.phases, Phase::Convergence);
  const index_t nodes = tree_->nodes_at(level);
  const auto ul = static_cast<size_t>(level);
  // Probe on a working copy of Y_loc whose factorization persists across
  // adaptive rounds: each probe ingests only the appended sample columns
  // (bitwise identical to a from-scratch QR of the full panel), so a
  // level's probes cost O(m d^2) total instead of O(rounds m d^2).
  ctx_.sync(batched::kSampleStream); // Y_loc writers are FIFO on this stream
  if (probe_level_ != level) {
    probe_level_ = level;
    probe_cols_ = 0;
    probe_work_.clear();
    probe_work_.resize(static_cast<size_t>(nodes));
    probe_tau_.assign(static_cast<size_t>(nodes), {});
    for (index_t i = 0; i < nodes; ++i)
      probe_work_[static_cast<size_t>(i)].resize(ctx_.device(),
                                                 yloc_[ul][static_cast<size_t>(i)].rows(), 0);
  }
  const index_t c0 = probe_cols_;
  const index_t dn = d_total_ - c0;
  std::vector<MatrixView> work(static_cast<size_t>(nodes));
  std::vector<index_t> factored(static_cast<size_t>(nodes), c0);
  for (index_t i = 0; i < nodes; ++i) {
    const auto ui = static_cast<size_t>(i);
    probe_work_[ui].append_cols(ctx_.device(), dn);
    ctx_.device().copy_device(yloc_[ul][ui].view().col_range(c0, dn),
                              probe_work_[ui].view().col_range(c0, dn));
    work[ui] = probe_work_[ui].view();
  }
  std::vector<real_t> mins(static_cast<size_t>(nodes));
  batched::batched_min_r_diag_update(ctx_, work, factored, probe_tau_, mins);
  probe_cols_ = d_total_;
  // The adaptive loop's residual estimates (per-node min |R_ii| of the
  // probe) feed the process-wide sketch: long-running builders report
  // residual quantiles without storing per-node samples.
  obs::SketchMetric& residual_sketch =
      obs::MetricsRegistry::global().sketch("construction_probe_residual");
  for (index_t i = 0; i < nodes; ++i) residual_sketch.record(mins[static_cast<size_t>(i)]);
  const real_t eps = eps_abs();
  index_t failing = 0;
  for (index_t i = 0; i < nodes; ++i) {
    const index_t m = yloc_[ul][static_cast<size_t>(i)].rows();
    // A node whose sample count reaches its row count cannot learn more.
    if (d_total_ >= m) continue;
    if (mins[static_cast<size_t>(i)] >= eps) ++failing;
  }
  return failing;
}

} // namespace h2sketch::core::detail
