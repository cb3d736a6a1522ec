#pragma once

#include <memory>

#include "core/stats.hpp"
#include "solver/hss_construction.hpp"
#include "solver/ulv.hpp"
#include "sparse/nested_dissection.hpp"

/// \file multifrontal.hpp
/// Dense-front multifrontal partial Cholesky over a nested-dissection tree.
/// Each front assembles the original entries of its eliminated variables
/// plus the children's update (Schur) matrices via extend-add, eliminates
/// its variables, and passes the update up. The fully-assembled *root*
/// frontal matrix — the Schur complement of the top separator — is the
/// dense matrix the paper's frontal-matrix experiments compress.
///
/// With `compress_root` the root front is not factored densely: it is
/// HSS-compressed (solver/hss_construction.hpp) over the separator geometry
/// and ULV-factored (solver/ulv.hpp), and solve() routes the root block
/// through the ULV sweeps — the end-to-end Fig. 6(b) story, where the
/// compressed front actually serves a solver instead of only a memory
/// comparison.

namespace h2sketch::sparse {

struct Front {
  std::vector<index_t> sep; ///< variables eliminated at this front
  std::vector<index_t> bd;  ///< boundary variables (stay in the parent)
};

struct MultifrontalOptions {
  index_t max_leaf = 64; ///< nested-dissection subdomain size
  /// Keep every front's factor panels so the result supports solve().
  bool keep_factors = false;
  /// HSS-compress + ULV-factor the root front instead of dense partial
  /// Cholesky (requires keep_factors for the solve path to be useful).
  bool compress_root = false;
  real_t root_tol = 1e-9;      ///< HSS compression tolerance for the root
  index_t root_leaf_size = 32; ///< cluster-tree leaf size over the separator
};

/// The compressed-root state: the HSS form, its ULV factorization, and the
/// separator-geometry permutation tying them to root_vars order.
struct RootCompression {
  h2::H2Matrix hss;
  solver::UlvCholesky ulv;
  /// permuted position -> index into root_vars (the cluster tree's perm).
  std::vector<index_t> perm;
  core::ConstructionStats stats; ///< HSS construction statistics
};

struct MultifrontalResult {
  NdTree tree;
  std::vector<Front> fronts; ///< parallel to tree.nodes

  /// Assembled root frontal matrix (original entries + all extend-adds),
  /// i.e. the Schur complement of the root separator onto itself, before
  /// elimination.
  Matrix root_front;
  /// Grid indices of the root separator (row/col order of root_front).
  std::vector<index_t> root_vars;

  /// Factor panels per front (only with keep_factors): the partially
  /// factored front [L11 0; L21 I] with the root fully factored. With
  /// compress_root the root entry stays empty and root_ulv holds the
  /// factorization instead.
  std::vector<Matrix> factors;

  /// Set when compress_root was requested (and keep_factors).
  std::unique_ptr<RootCompression> root_ulv;

  /// Solve A x = b using the stored factors (requires keep_factors).
  /// Forward substitution walks fronts bottom-up, backward top-down; a
  /// compressed root solves through the ULV sweeps.
  void solve(const_real_span b, real_span x) const;
};

/// Run nested dissection + numeric multifrontal partial factorization.
/// The matrix must be SPD on the grid (the Poisson operators are).
MultifrontalResult multifrontal_root_front(const CsrMatrix& a, const Grid& g,
                                           const MultifrontalOptions& opts);

} // namespace h2sketch::sparse
