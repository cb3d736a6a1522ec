#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/matrix.hpp"
#include "common/random.hpp"
#include "geometry/point_cloud.hpp"
#include "kernels/entry_gen.hpp"
#include "kernels/kernel.hpp"
#include "la/blas.hpp"
#include "tree/cluster_tree.hpp"

/// \file test_common.hpp
/// Shared fixture layer for the h2sketch test suites: dense reference
/// matrices, random test data, error metrics, cluster-tree builders and the
/// tolerance constants the suites agree on. Every suite includes this header
/// instead of carrying its own copy of these helpers.

namespace h2sketch::test_util {

/// Dense blocks that must agree entry-for-entry, up to roundoff.
inline constexpr real_t kExactTol = 1e-14;
/// Factorizations/orthogonality checks where error accumulates mildly.
inline constexpr real_t kTightTol = 1e-12;
/// Per-entry evaluation against a densified operator.
inline constexpr real_t kEntryTol = 1e-11;
/// Matvec vs densify agreement, relative to ||A||_F.
inline constexpr real_t kMatvecRelTol = 1e-10;
/// Statistical moment checks on ~1e5 variates (mean, variance).
inline constexpr real_t kMeanTol = 0.02;
inline constexpr real_t kVarTol = 0.03;

/// m x n matrix with iid standard Gaussian entries, deterministic in seed.
inline Matrix random_matrix(index_t m, index_t n, std::uint64_t seed) {
  Matrix a(m, n);
  SmallRng rng(seed);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) a(i, j) = rng.next_gaussian();
  return a;
}

/// Length-n vector with iid standard Gaussian entries, deterministic in seed.
inline std::vector<real_t> random_vector(index_t n, std::uint64_t seed) {
  std::vector<real_t> v(static_cast<size_t>(n));
  SmallRng rng(seed);
  for (auto& x : v) x = rng.next_gaussian();
  return v;
}

/// Rank-r m x n matrix built as a product of Gaussian factors.
inline Matrix rank_r_matrix(index_t m, index_t n, index_t r, std::uint64_t seed) {
  const Matrix u = random_matrix(m, r, seed);
  const Matrix v = random_matrix(r, n, seed + 1);
  Matrix a(m, n);
  la::gemm(1.0, u.view(), la::Op::None, v.view(), la::Op::None, 0.0, a.view());
  return a;
}

/// Relative Frobenius error ||approx - exact||_F / ||exact||_F.
inline real_t rel_fro_error(ConstMatrixView approx, ConstMatrixView exact) {
  Matrix diff = to_matrix(approx);
  for (index_t j = 0; j < diff.cols(); ++j)
    for (index_t i = 0; i < diff.rows(); ++i) diff(i, j) -= exact(i, j);
  return la::norm_f(diff.view()) / la::norm_f(exact);
}

/// Largest entry error of `out` against the (rows, cols) block of the dense
/// reference `ref`. Returns +inf as soon as a difference is not finite, so a
/// NaN fails every `<= tol` check (a plain running std::max would drop it).
inline real_t block_error(ConstMatrixView out, ConstMatrixView ref, const_index_span rows,
                          const_index_span cols) {
  Matrix want(out.rows, out.cols);
  gather_block(ref, rows, cols, want.view());
  real_t err = 0.0;
  for (index_t j = 0; j < out.cols; ++j)
    for (index_t i = 0; i < out.rows; ++i) {
      const real_t e = std::abs(out(i, j) - want(i, j));
      if (!std::isfinite(e)) return std::numeric_limits<real_t>::infinity();
      err = std::max(err, e);
    }
  return err;
}

/// Evaluates the (rows, cols) block through `gen` and returns its
/// block_error against the dense reference `ref`.
inline real_t block_error(const kern::EntryGenerator& gen, ConstMatrixView ref,
                          const_index_span rows, const_index_span cols) {
  Matrix out(static_cast<index_t>(rows.size()), static_cast<index_t>(cols.size()));
  gen.generate_block(rows, cols, out.view());
  return block_error(out.view(), ref, rows, cols);
}

/// Cluster tree over n uniform random points in the unit dim-cube.
inline tree::ClusterTree cube_tree(index_t n, index_t dim, std::uint64_t seed,
                                   index_t leaf_size) {
  return tree::ClusterTree::build(geo::uniform_random_cube(n, dim, seed), leaf_size);
}

/// Shared-ownership variant for APIs that keep the tree alive.
inline std::shared_ptr<tree::ClusterTree> build_cube_tree(index_t n, index_t dim,
                                                          std::uint64_t seed,
                                                          index_t leaf_size) {
  return std::make_shared<tree::ClusterTree>(cube_tree(n, dim, seed, leaf_size));
}

/// Positions of node (l, i) of `t`, in tree order.
inline std::vector<index_t> node_positions(const tree::ClusterTree& t, index_t l, index_t i) {
  std::vector<index_t> p;
  for (index_t q = t.begin(l, i); q < t.end(l, i); ++q) p.push_back(q);
  return p;
}

/// Dense kernel matrix in tree-permuted ordering: the O(N^2) ground truth
/// every compression test measures against.
inline Matrix dense_kernel_matrix(const tree::ClusterTree& t, const kern::KernelFunction& k) {
  const index_t n = t.num_points();
  kern::KernelEntryGenerator gen(t, k);
  std::vector<index_t> all(static_cast<size_t>(n));
  for (index_t i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
  Matrix kd(n, n);
  gen.generate_block(all, all, kd.view());
  return kd;
}

} // namespace h2sketch::test_util
