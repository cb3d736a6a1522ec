#pragma once

#include <memory>
#include <vector>

#include "backend/block_arena.hpp"
#include "batched/device.hpp"
#include "h2/h2_matrix.hpp"

/// \file ulv.hpp
/// ULV Cholesky factorization of a symmetric positive definite HSS matrix —
/// the H2Matrix of a weak-admissibility build (solver/hss_construction.hpp)
/// — and the forward/backward solve sweeps (the missing piece the
/// compressed frontal matrices of Fig. 6(b) feed into). The factorization
/// reads the matrix in place: the generators are `basis[l]`, the coupling
/// of sibling pair (2p, 2p+1) is far entry 2p of `coupling[l]`, and the leaf
/// diagonals are `dense`. Any other block pattern is rejected.
///
/// Per node, bottom-up (compress - eliminate - merge):
///   1. QR the node's (merged) generator G = Q [R; 0]: after rotating the
///      local variables by Q^T, only the leading `rank` rows still couple to
///      the rest of the matrix (their off-diagonal block row is R B ...);
///      the trailing n_loc - rank rows are interior.
///   2. Transform the local diagonal Dh = Q^T D Q, Cholesky-eliminate the
///      interior block: Dh_zz = Lz Lz^T, W = Dh_sz Lz^{-T}, leaving the
///      Schur complement S = Dh_ss - W W^T on the skeleton variables.
///   3. Merge siblings at the parent: D_p = [S_1, R_1 B R_2^T; ., S_2] and
///      G_p = [R_1 E_1; R_2 E_2], and recurse; the root system is factored
///      densely.
///
/// The level sweep is executed as cost-annotated batches on one
/// ExecutionContext stream (assemble+QR+transform, then batched potrf /
/// trsm / gemm from batched_solve.hpp); FIFO stream order replaces explicit
/// level barriers, so independent nodes overlap while the numerics stay
/// bitwise identical for every thread count.
///
/// Steps 1-2 (the `ulv_compress` launch) are level-3: a blocked Householder
/// QR (la::householder_qr_blocked) and a compact-WY two-sided rotation
/// (la::apply_qt_d_q), whose products run on la::gemm_parallel. Its tiles
/// depend on the shape alone, so the top levels, one or two nodes per
/// launch task, split their work over the pool without losing bitwise
/// determinism. la::householder_qr stays level-2 because the adaptive
/// probe's continuation is pinned bitwise to it, and the solve sweeps keep
/// the level-2 apply_q_transpose / apply_q because they rotate only 1-16
/// right-hand sides.

namespace h2sketch::solver {

/// Recovery knobs for `ulv_factor`. A non-positive pivot (`NumericalError`)
/// is deterministic — retrying the identical factorization cannot help — so
/// recovery escalates instead: each retry factors A + ridge*I with a ridge
/// of `ridge_rel * growth^k * scale` (scale = largest |diagonal entry|).
/// The default ladder (1e-10, 1e-8, 1e-6 of the diagonal scale) rescues
/// matrices that are SPD up to rounding but is far too small to mask a
/// genuinely indefinite matrix, which still throws after the last attempt.
struct UlvOptions {
  int max_ridge_retries = 3;       ///< extra attempts after the ridge-free one
  real_t ridge_rel = real_t{1e-10};///< first ridge, relative to the diagonal scale
  real_t ridge_growth = real_t{100};///< ridge multiplier per subsequent retry
};

/// Per-node factor metadata. The actual panels (qr, dhat, utilde) live
/// packed in the factor's per-level device arenas (`UlvCholesky::panels_`,
/// slot layout [qr x nodes][dhat x nodes][utilde x nodes]) — written and
/// read only inside the factor/solve kernel launches, with the root system
/// marshaled back to the host through explicit copies; `tau` is small
/// per-node pivot metadata kept host-side.
struct UlvNode {
  index_t n_loc = 0; ///< local dimension at elimination time
  index_t rank = 0;  ///< rows surviving to the parent (HSS rank)
  std::vector<real_t> tau; ///< Householder scalars of the qr panel

  index_t nz() const { return n_loc - rank; }
};

/// The factored form: per-level node panels plus the dense root factor.
/// Self-contained (shares tree ownership), movable, independent of the
/// matrix it was factored from.
class UlvCholesky {
 public:
  /// Solve A x = b for one right-hand side; b and x are length-N vectors in
  /// the cluster tree's permuted position order (like h2_matvec).
  void solve(const_real_span b, real_span x) const;

  /// Same, on a caller-provided context — the serving form: one context
  /// reused across many solves (e.g. every pcg iteration).
  void solve(const_real_span b, real_span x, batched::ExecutionContext& ctx) const;

  /// Multi-RHS solve: B and X are N x nrhs, permuted order. Level sweeps run
  /// as batched launches on the context's streams.
  void solve_many(ConstMatrixView b, MatrixView x, batched::ExecutionContext& ctx) const;

  /// Convenience overload with an internal Batched context.
  void solve_many(ConstMatrixView b, MatrixView x) const;

  index_t size() const { return tree_ ? tree_->num_points() : 0; }
  const tree::ClusterTree& tree() const { return *tree_; }

  /// Factor panel bytes (per-node QR/Dh/R plus the root factor).
  std::size_t memory_bytes() const;

  /// Real device-resident bytes of the factor's panel arenas (alignment
  /// padding included) — what the serving cache budgets and eviction frees.
  std::size_t device_bytes() const;

  /// A context configuration bound to the device backend that owns the
  /// factor panels (the process default when the factor is root-only).
  /// The convenience solve overloads and pcg use this, so a factor built
  /// on one device is never solved through a context on another — the
  /// explicit-context overloads check the same affinity.
  backend::ExecutionConfig execution_config() const;

  /// The ridge actually folded into the factorization: 0 when the first
  /// (exact) attempt succeeded, else the A + ridge*I bump that did.
  real_t ridge_applied() const { return ridge_; }

  /// The dense factor of the final reduced root system (tests/bench).
  const Matrix& root_factor() const { return root_factor_; }
  const UlvNode& node(index_t level, index_t i) const {
    return nodes_[static_cast<size_t>(level)][static_cast<size_t>(i)];
  }

 private:
  friend UlvCholesky ulv_factor(const h2::H2Matrix& a, batched::ExecutionContext& ctx,
                                const UlvOptions& opts);

  std::shared_ptr<const tree::ClusterTree> tree_;
  /// nodes_[l][i] for levels 1..leaf; levels 0 stays empty (the root system
  /// is root_factor_).
  std::vector<std::vector<UlvNode>> nodes_;
  /// panels_[l]: one packed device arena per level holding every node's
  /// qr / dhat / utilde panel (slots [qr x nodes][dhat x nodes]
  /// [utilde x nodes]); level 0 stays empty.
  std::vector<backend::BlockArena> panels_;
  /// Single-slot arena: the dense root factor resident on the panels'
  /// device, uploaded once at factor time so solves never round-trip the
  /// root block through the host. Empty for root-only factors.
  backend::BlockArena root_arena_;
  Matrix root_factor_; ///< lower Cholesky of the merged root system (host copy)
  real_t ridge_ = 0.0; ///< diagonal bump the successful attempt used
};

/// ULV-factor an SPD HSS matrix, retrying failed pivots with an escalating
/// ridge per `opts` (see UlvOptions). Throws `NumericalError` when the
/// compressed matrix is not numerically SPD even after the last ridge, and
/// std::runtime_error when `a` does not have the weak-admissibility (HSS)
/// block pattern.
UlvCholesky ulv_factor(const h2::H2Matrix& a, batched::ExecutionContext& ctx,
                       const UlvOptions& opts);

/// Same under default recovery options.
UlvCholesky ulv_factor(const h2::H2Matrix& a, batched::ExecutionContext& ctx);

/// Convenience overload with an internal Batched context.
UlvCholesky ulv_factor(const h2::H2Matrix& a);

} // namespace h2sketch::solver
