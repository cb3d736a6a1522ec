#include "la/id.hpp"

#include "la/blas.hpp"
#include "la/qr.hpp"

namespace h2sketch::la {

ColumnID column_id(ConstMatrixView a, real_t abs_tol, index_t max_rank) {
  const index_t n = a.cols;
  Matrix work = to_matrix(a);
  std::vector<real_t> tau;
  const Cpqr f = cpqr(work.view(), tau, abs_tol, max_rank);
  const index_t k = f.rank;

  ColumnID id;
  id.skeleton.assign(f.piv.begin(), f.piv.begin() + k);
  id.interp.resize(k, n);
  if (k == 0) return id;

  // T = R1^{-1} R2 where [R1 R2] is the leading k rows of R.
  Matrix t(k, n - k);
  for (index_t j = 0; j < n - k; ++j)
    for (index_t i = 0; i < k; ++i) t(i, j) = work(i, k + j);
  if (n - k > 0) trsm_upper_left(work.block(0, 0, k, k), Op::None, t.view());

  // X = [I T] P^T: column piv[j] of X is e_j for j < k, T(:, j-k) otherwise.
  for (index_t j = 0; j < k; ++j) id.interp(j, f.piv[static_cast<size_t>(j)]) = 1.0;
  for (index_t j = k; j < n; ++j)
    for (index_t i = 0; i < k; ++i)
      id.interp(i, f.piv[static_cast<size_t>(j)]) = t(i, j - k);
  return id;
}

RowID row_id(ConstMatrixView a, real_t abs_tol, index_t max_rank) {
  // Row ID of A = column ID of A^T.
  Matrix at(a.cols, a.rows);
  copy_transposed(a, at.view());
  ColumnID cid = column_id(at.view(), abs_tol, max_rank);

  RowID id;
  id.skeleton = std::move(cid.skeleton);
  const index_t k = static_cast<index_t>(id.skeleton.size());
  id.interp.resize(a.rows, k);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < a.rows; ++i) id.interp(i, j) = cid.interp(j, i);
  return id;
}

real_t column_id_rel_error(ConstMatrixView a, const ColumnID& id) {
  const index_t k = static_cast<index_t>(id.skeleton.size());
  Matrix cols(a.rows, k);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < a.rows; ++i) cols(i, j) = a(i, id.skeleton[static_cast<size_t>(j)]);
  Matrix rec = to_matrix(a);
  gemm(-1.0, cols.view(), Op::None, id.interp.view(), Op::None, 1.0, rec.view());
  const real_t na = norm_f(a);
  return na == 0.0 ? norm_f(rec.view()) : norm_f(rec.view()) / na;
}

real_t row_id_rel_error(ConstMatrixView a, const RowID& id) {
  const index_t k = static_cast<index_t>(id.skeleton.size());
  Matrix rows(k, a.cols);
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < k; ++i) rows(i, j) = a(id.skeleton[static_cast<size_t>(i)], j);
  Matrix rec = to_matrix(a);
  gemm(-1.0, id.interp.view(), Op::None, rows.view(), Op::None, 1.0, rec.view());
  const real_t na = norm_f(a);
  return na == 0.0 ? norm_f(rec.view()) : norm_f(rec.view()) / na;
}

} // namespace h2sketch::la
