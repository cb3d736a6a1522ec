#include "h2/h2_dense.hpp"

#include "common/parallel.hpp"
#include "la/blas.hpp"

namespace h2sketch::h2 {

Matrix expand_basis(const H2Matrix& a, index_t level, index_t node) {
  const tree::ClusterTree& t = *a.tree;
  // Diagnostic path: read through the arenas' lazy host mirrors.
  if (level == t.leaf_level()) return a.basis[static_cast<size_t>(level)].host(node);
  const Matrix left = expand_basis(a, level + 1, 2 * node);
  const Matrix right = expand_basis(a, level + 1, 2 * node + 1);
  const Matrix& tr = a.basis[static_cast<size_t>(level)].host(node);
  const index_t r = a.rank(level, node);
  Matrix u(t.size(level, node), r);
  if (r == 0) return u;
  // U = [U_left E_left; U_right E_right].
  la::gemm(1.0, left.view(), la::Op::None, tr.view().block(0, 0, left.cols(), r), la::Op::None, 0.0,
           u.view().row_range(0, left.rows()));
  la::gemm(1.0, right.view(), la::Op::None, tr.view().block(left.cols(), 0, right.cols(), r),
           la::Op::None, 0.0, u.view().row_range(left.rows(), right.rows()));
  return u;
}

Matrix densify(const H2Matrix& a) {
  const tree::ClusterTree& t = *a.tree;
  const index_t n = t.num_points();
  Matrix k(n, n);

  for (index_t l = 0; l < t.num_levels(); ++l) {
    const auto& far = a.mtree.far[static_cast<size_t>(l)];
    if (far.empty()) continue;
    // Expand every basis the level's block list touches (as a row or column
    // node) up front, in parallel, so the per-entry loop below only reads.
    std::vector<char> needed(static_cast<size_t>(t.nodes_at(l)), 0);
    for (index_t s = 0; s < t.nodes_at(l); ++s) {
      for (index_t j = 0; j < far.row_count(s); ++j) {
        const index_t e = far.row_ptr[static_cast<size_t>(s)] + j;
        needed[static_cast<size_t>(s)] = 1;
        needed[static_cast<size_t>(far.col[static_cast<size_t>(e)])] = 1;
      }
    }
    std::vector<Matrix> expanded(static_cast<size_t>(t.nodes_at(l)));
    parallel_for(t.nodes_at(l), [&](index_t i) {
      if (needed[static_cast<size_t>(i)]) expanded[static_cast<size_t>(i)] = expand_basis(a, l, i);
    });
    // Each mirrored pair is one stored block B_{s,c} (s < c): row s writes
    // the (s, c) block of K and its exact transpose at (c, s). No two rows
    // write the same block, so the densification runs one task per row.
    parallel_for(t.nodes_at(l), [&](index_t s) {
      for (index_t j = 0; j < far.row_count(s); ++j) {
        const index_t c = far.col_at(s, j);
        if (c < s) continue;
        const Matrix& b =
            a.coupling[static_cast<size_t>(l)].host(far.row_ptr[static_cast<size_t>(s)] + j);
        Matrix ub(t.size(l, s), b.cols());
        la::gemm(1.0, expanded[static_cast<size_t>(s)].view(), la::Op::None, b.view(),
                 la::Op::None, 0.0, ub.view());
        MatrixView blk = k.view().block(t.begin(l, s), t.begin(l, c), t.size(l, s), t.size(l, c));
        la::gemm(1.0, ub.view(), la::Op::None, expanded[static_cast<size_t>(c)].view(),
                 la::Op::Trans, 1.0, blk);
        copy_transposed(blk, k.view().block(t.begin(l, c), t.begin(l, s), t.size(l, c),
                                            t.size(l, s)));
      }
    });
  }

  const index_t leaf = t.leaf_level();
  const auto& near = a.mtree.near_leaf;
  for (index_t s = 0; s < t.nodes_at(leaf); ++s) {
    for (index_t j = 0; j < near.row_count(s); ++j) {
      const index_t e = near.row_ptr[static_cast<size_t>(s)] + j;
      const index_t c = near.col[static_cast<size_t>(e)];
      copy(a.dense.host(e).view(),
           k.view().block(t.begin(leaf, s), t.begin(leaf, c), t.size(leaf, s), t.size(leaf, c)));
    }
  }
  return k;
}

} // namespace h2sketch::h2
