#include "la/blas.hpp"

#include <cmath>
#include <string>

#include "common/errors.hpp"

#include "la/gemm_engine.hpp"

namespace h2sketch::la {

namespace {

/// Column-block width for the blocked triangular solves and the threshold at
/// which they take over from the scalar substitution loops: below that, the
/// gemm updates are too small for the engine to win.
constexpr index_t kTrsmBlock = 32;

bool use_blocked_solve(index_t n, index_t nrhs) { return n > 2 * kTrsmBlock && nrhs >= 4; }

/// Scalar back/forward substitution for op(R) X = B with upper-triangular R.
/// Used standalone for small systems and as the diagonal-block solver of the
/// blocked path.
void trsm_upper_scalar(ConstMatrixView r, Op op_r, MatrixView b, bool unit_diag) {
  const index_t n = r.rows;
  if (op_r == Op::None) {
    // Back substitution: solve R X = B.
    for (index_t j = 0; j < b.cols; ++j) {
      for (index_t i = n - 1; i >= 0; --i) {
        real_t s = b(i, j);
        for (index_t k = i + 1; k < n; ++k) s -= r(i, k) * b(k, j);
        b(i, j) = unit_diag ? s : s / r(i, i);
      }
    }
  } else {
    // Forward substitution: solve R^T X = B.
    for (index_t j = 0; j < b.cols; ++j) {
      for (index_t i = 0; i < n; ++i) {
        real_t s = b(i, j);
        for (index_t k = 0; k < i; ++k) s -= r(k, i) * b(k, j);
        b(i, j) = unit_diag ? s : s / r(i, i);
      }
    }
  }
}

/// Scalar substitution for op(L) X = B with lower-triangular L and the
/// unit-diagonal option (the general form behind trsm_lower_left).
void trsm_lower_scalar(ConstMatrixView l, Op op_l, MatrixView b, bool unit_diag) {
  const index_t n = l.rows;
  if (op_l == Op::None) {
    for (index_t j = 0; j < b.cols; ++j) {
      for (index_t i = 0; i < n; ++i) {
        real_t s = b(i, j);
        for (index_t p = 0; p < i; ++p) s -= l(i, p) * b(p, j);
        b(i, j) = unit_diag ? s : s / l(i, i);
      }
    }
  } else {
    for (index_t j = 0; j < b.cols; ++j) {
      for (index_t i = n - 1; i >= 0; --i) {
        real_t s = b(i, j);
        for (index_t p = i + 1; p < n; ++p) s -= l(p, i) * b(p, j);
        b(i, j) = unit_diag ? s : s / l(i, i);
      }
    }
  }
}

/// Scalar substitution for X op(L) = B (right-side solve; B is m x n, L n x n).
void trsm_lower_right_scalar(ConstMatrixView l, Op op_l, MatrixView b, bool unit_diag) {
  const index_t n = l.rows;
  const index_t m = b.rows;
  if (op_l == Op::None) {
    // X L = B: column i of X depends on the already-solved columns > i.
    for (index_t i = n - 1; i >= 0; --i) {
      for (index_t r = 0; r < m; ++r) {
        real_t s = b(r, i);
        for (index_t k = i + 1; k < n; ++k) s -= b(r, k) * l(k, i);
        b(r, i) = unit_diag ? s : s / l(i, i);
      }
    }
  } else {
    // X L^T = B: L^T is upper triangular, solve columns left to right.
    for (index_t i = 0; i < n; ++i) {
      for (index_t r = 0; r < m; ++r) {
        real_t s = b(r, i);
        for (index_t k = 0; k < i; ++k) s -= b(r, k) * l(i, k);
        b(r, i) = unit_diag ? s : s / l(i, i);
      }
    }
  }
}

} // namespace

void gemv(real_t alpha, ConstMatrixView a, Op op_a, const_real_span x, real_t beta, real_span y) {
  const index_t m = op_rows(a, op_a);
  const index_t n = op_cols(a, op_a);
  H2S_CHECK(static_cast<index_t>(x.size()) == n && static_cast<index_t>(y.size()) == m,
            "gemv: shape mismatch");
  ConstMatrixView xv(x.data(), n, 1, n == 0 ? 1 : n);
  MatrixView yv(y.data(), m, 1, m == 0 ? 1 : m);
  gemm(alpha, a, op_a, xv, Op::None, beta, yv);
}

void trsm_upper_left(ConstMatrixView r, Op op_r, MatrixView b, bool unit_diag) {
  const index_t n = r.rows;
  H2S_CHECK(r.rows == r.cols && b.rows == n, "trsm: shape mismatch");
  if (n == 0 || b.cols == 0) return;
  if (!use_blocked_solve(n, b.cols)) {
    trsm_upper_scalar(r, op_r, b, unit_diag);
    return;
  }
  // Blocked substitution: scalar-solve a kTrsmBlock diagonal block, then
  // push its contribution into the remaining rows with a gemm the engine can
  // accelerate.
  if (op_r == Op::None) {
    for (index_t i1 = n; i1 > 0;) {
      const index_t nb = std::min(kTrsmBlock, i1);
      const index_t i0 = i1 - nb;
      if (i1 < n)
        gemm(-1.0, r.block(i0, i1, nb, n - i1), Op::None, b.row_range(i1, n - i1), Op::None, 1.0,
             b.row_range(i0, nb));
      trsm_upper_scalar(r.block(i0, i0, nb, nb), Op::None, b.row_range(i0, nb), unit_diag);
      i1 = i0;
    }
  } else {
    for (index_t i0 = 0; i0 < n; i0 += kTrsmBlock) {
      const index_t nb = std::min(kTrsmBlock, n - i0);
      if (i0 > 0)
        gemm(-1.0, r.block(0, i0, i0, nb), Op::Trans, b.row_range(0, i0), Op::None, 1.0,
             b.row_range(i0, nb));
      trsm_upper_scalar(r.block(i0, i0, nb, nb), Op::Trans, b.row_range(i0, nb), unit_diag);
    }
  }
}

void trsm_lower_left(ConstMatrixView l, Op op_l, MatrixView b, bool unit_diag) {
  const index_t n = l.rows;
  H2S_CHECK(l.rows == l.cols && b.rows == n, "trsm_lower_left: shape mismatch");
  if (n == 0 || b.cols == 0) return;
  if (!use_blocked_solve(n, b.cols)) {
    trsm_lower_scalar(l, op_l, b, unit_diag);
    return;
  }
  if (op_l == Op::None) {
    // Forward: solve a diagonal block, push it into the rows below.
    for (index_t i0 = 0; i0 < n; i0 += kTrsmBlock) {
      const index_t nb = std::min(kTrsmBlock, n - i0);
      if (i0 > 0)
        gemm(-1.0, l.block(i0, 0, nb, i0), Op::None, b.row_range(0, i0), Op::None, 1.0,
             b.row_range(i0, nb));
      trsm_lower_scalar(l.block(i0, i0, nb, nb), Op::None, b.row_range(i0, nb), unit_diag);
    }
  } else {
    // Backward: L^T is upper triangular, sweep bottom-up.
    for (index_t i1 = n; i1 > 0;) {
      const index_t nb = std::min(kTrsmBlock, i1);
      const index_t i0 = i1 - nb;
      if (i1 < n)
        gemm(-1.0, l.block(i1, i0, n - i1, nb), Op::Trans, b.row_range(i1, n - i1), Op::None, 1.0,
             b.row_range(i0, nb));
      trsm_lower_scalar(l.block(i0, i0, nb, nb), Op::Trans, b.row_range(i0, nb), unit_diag);
      i1 = i0;
    }
  }
}

void trsm_lower_right(ConstMatrixView l, Op op_l, MatrixView b, bool unit_diag) {
  const index_t n = l.rows;
  H2S_CHECK(l.rows == l.cols && b.cols == n, "trsm_lower_right: shape mismatch");
  if (n == 0 || b.rows == 0) return;
  // The "right-hand-side count" of the right-side solve is the row count.
  if (!use_blocked_solve(n, b.rows)) {
    trsm_lower_right_scalar(l, op_l, b, unit_diag);
    return;
  }
  if (op_l == Op::None) {
    // X L = B: solve column blocks right to left, then update the columns to
    // the left with the sub-diagonal panel of L.
    for (index_t j1 = n; j1 > 0;) {
      const index_t nb = std::min(kTrsmBlock, j1);
      const index_t j0 = j1 - nb;
      trsm_lower_right_scalar(l.block(j0, j0, nb, nb), Op::None, b.col_range(j0, nb), unit_diag);
      if (j0 > 0)
        gemm(-1.0, b.col_range(j0, nb), Op::None, l.block(j0, 0, nb, j0), Op::None, 1.0,
             b.col_range(0, j0));
      j1 = j0;
    }
  } else {
    // X L^T = B: L^T is upper triangular, solve column blocks left to right.
    for (index_t j0 = 0; j0 < n; j0 += kTrsmBlock) {
      const index_t nb = std::min(kTrsmBlock, n - j0);
      if (j0 > 0)
        gemm(-1.0, b.col_range(0, j0), Op::None, l.block(j0, 0, nb, j0), Op::Trans, 1.0,
             b.col_range(j0, nb));
      trsm_lower_right_scalar(l.block(j0, j0, nb, nb), Op::Trans, b.col_range(j0, nb), unit_diag);
    }
  }
}

namespace {

/// Scalar left-looking Cholesky (the original kernel): diagonal blocks of
/// the blocked path and whole small matrices.
void cholesky_scalar(MatrixView a) {
  const index_t n = a.rows;
  for (index_t k = 0; k < n; ++k) {
    real_t d = a(k, k);
    for (index_t p = 0; p < k; ++p) d -= a(k, p) * a(k, p);
    // Typed failure: callers (ulv_factor's ridge retry, the operator
    // cache) must be able to tell "not numerically SPD" from operational
    // errors — NumericalError is the non-retryable branch of the taxonomy.
    if (!(d > 0.0))
      throw NumericalError("cholesky: non-positive pivot at column " + std::to_string(k) +
                           " (matrix is not numerically SPD)");
    d = std::sqrt(d);
    a(k, k) = d;
    for (index_t i = k + 1; i < n; ++i) {
      real_t s = a(i, k);
      for (index_t p = 0; p < k; ++p) s -= a(i, p) * a(k, p);
      a(i, k) = s / d;
    }
  }
}

} // namespace

void cholesky(MatrixView a) {
  const index_t n = a.rows;
  H2S_CHECK(a.rows == a.cols, "cholesky: square matrix required");
  // Small systems (the batched per-node blocks) stay on the scalar kernel;
  // large ones go blocked so the O(n^3) is spent in the gemm engine:
  // right-looking with a scalar diagonal factor, a right-side trsm for the
  // panel and a gemm trailing update on the lower triangle.
  constexpr index_t kCholBlock = 128;
  if (n <= 2 * kCholBlock) {
    cholesky_scalar(a);
    return;
  }
  for (index_t k0 = 0; k0 < n; k0 += kCholBlock) {
    const index_t nb = std::min(kCholBlock, n - k0);
    cholesky_scalar(a.block(k0, k0, nb, nb));
    const index_t rest = n - k0 - nb;
    if (rest == 0) continue;
    // Panel: L21 L11^T = A21.
    trsm_lower_right(a.block(k0, k0, nb, nb), Op::Trans, a.block(k0 + nb, k0, rest, nb));
    // Trailing update A22 -= L21 L21^T, lower triangle only: per column
    // strip, a scalar rank-nb update on the diagonal block (preserving the
    // untouched-upper contract) and one tall gemm for the rows below it.
    for (index_t j0 = 0; j0 < rest; j0 += kCholBlock) {
      const index_t jb = std::min(kCholBlock, rest - j0);
      ConstMatrixView lj(a.block(k0 + nb + j0, k0, jb, nb));
      MatrixView d = a.block(k0 + nb + j0, k0 + nb + j0, jb, jb);
      for (index_t j = 0; j < jb; ++j)
        for (index_t i = j; i < jb; ++i) {
          real_t s = 0.0;
          for (index_t p = 0; p < nb; ++p) s += lj(i, p) * lj(j, p);
          d(i, j) -= s;
        }
      const index_t below = rest - j0 - jb;
      if (below > 0)
        gemm(-1.0, a.block(k0 + nb + j0 + jb, k0, below, nb), Op::None, lj, Op::Trans, 1.0,
             a.block(k0 + nb + j0 + jb, k0 + nb + j0, below, jb));
    }
  }
}

void cholesky_solve(ConstMatrixView l, MatrixView b) {
  H2S_CHECK(l.rows == l.cols && b.rows == l.rows, "cholesky_solve: shape mismatch");
  // Forward sweep L Z = B, backward sweep L^T X = Z; both inherit the
  // blocked-vs-scalar dispatch from trsm_lower_left.
  trsm_lower_left(l, Op::None, b);
  trsm_lower_left(l, Op::Trans, b);
}

real_t norm_f(ConstMatrixView a) {
  real_t s = 0.0;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) s += a(i, j) * a(i, j);
  return std::sqrt(s);
}

real_t norm2(const_real_span x) {
  real_t s = 0.0;
  for (real_t v : x) s += v * v;
  return std::sqrt(s);
}

real_t dot(const_real_span x, const_real_span y) {
  H2S_CHECK(x.size() == y.size(), "dot: size mismatch");
  real_t s = 0.0;
  for (size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

void axpy(real_t alpha, const_real_span x, real_span y) {
  H2S_CHECK(x.size() == y.size(), "axpy: size mismatch");
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(real_t alpha, real_span x) {
  for (real_t& v : x) v *= alpha;
}

} // namespace h2sketch::la
