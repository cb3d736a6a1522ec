#include "la/qr.hpp"

#include <algorithm>
#include <cmath>

#include "la/blas.hpp"

namespace h2sketch::la {

namespace {

/// Build a Householder reflector for x (length len, stride 1):
/// H = I - tau v v^T with v(0) = 1 zeroes x(1:). On exit x(0) = beta (the R
/// diagonal) and x(1:) holds v(1:). Returns tau (0 when x(1:) is zero).
real_t make_reflector(real_t* x, index_t len) {
  if (len <= 1) return 0.0;
  real_t xnorm = 0.0;
  for (index_t i = 1; i < len; ++i) xnorm += x[i] * x[i];
  if (xnorm == 0.0) return 0.0;
  const real_t alpha = x[0];
  const real_t beta = -std::copysign(std::sqrt(alpha * alpha + xnorm), alpha);
  const real_t tau = (beta - alpha) / beta;
  const real_t inv = 1.0 / (alpha - beta);
  for (index_t i = 1; i < len; ++i) x[i] *= inv;
  x[0] = beta;
  return tau;
}

/// Apply H = I - tau v v^T (v packed below a(k,k), v(0)=1) to A(k:, j0:).
void apply_reflector(MatrixView a, index_t k, real_t tau, index_t j0) {
  if (tau == 0.0) return;
  const index_t m = a.rows;
  for (index_t j = j0; j < a.cols; ++j) {
    real_t* col = a.data + j * a.ld;
    const real_t* v = a.data + k * a.ld; // column k holds the reflector
    real_t w = col[k];
    for (index_t i = k + 1; i < m; ++i) w += v[i] * col[i];
    w *= tau;
    col[k] -= w;
    for (index_t i = k + 1; i < m; ++i) col[i] -= w * v[i];
  }
}

/// Compact-WY form of the jb reflectors stored in columns k0..k0+jb-1 of a
/// geqrf-layout `qr` (tau their scalars): H_k0 ... H_{k0+jb-1} = I - V T V^T
/// on rows k0.., with V unit lower trapezoidal and T upper triangular
/// (LAPACK larft, forward columnwise). V is held explicitly, with VT = V T,
/// so Q_b^T X = X - V (X^T VT)^T and X Q_b = X - (X VT) V^T are two
/// products each.
struct BlockReflector {
  Matrix v;  ///< (qr.rows - k0) x jb: unit diagonal, zeros above it
  Matrix vt; ///< V T
};

BlockReflector block_reflector(ConstMatrixView qr, const real_t* tau, index_t k0, index_t jb) {
  const index_t mb = qr.rows - k0;
  BlockReflector h{Matrix(mb, jb), Matrix(mb, jb)};
  for (index_t c = 0; c < jb; ++c) {
    h.v(c, c) = 1.0;
    for (index_t r = c + 1; r < mb; ++r) h.v(r, c) = qr(k0 + r, k0 + c);
  }
  // T(i, i) = tau_i and T(0:i, i) = -tau_i T(0:i, 0:i) V(:, 0:i)^T v_i,
  // where v_i is zero above row i.
  Matrix t(jb, jb);
  std::vector<real_t> w(static_cast<size_t>(jb));
  for (index_t i = 0; i < jb; ++i) {
    t(i, i) = tau[i];
    if (tau[i] == 0.0) continue;
    const real_t* vi = h.v.data() + i * mb;
    for (index_t p = 0; p < i; ++p) {
      const real_t* vp = h.v.data() + p * mb;
      real_t s = 0.0;
      for (index_t r = i; r < mb; ++r) s += vp[r] * vi[r];
      w[static_cast<size_t>(p)] = s;
    }
    for (index_t p = 0; p < i; ++p) {
      real_t s = 0.0;
      for (index_t q = p; q < i; ++q) s += t(p, q) * w[static_cast<size_t>(q)];
      t(p, i) = -tau[i] * s;
    }
  }
  gemm_parallel(1.0, h.v.view(), Op::None, t.view(), Op::None, 0.0, h.vt.view());
  return h;
}

} // namespace

void householder_qr(MatrixView a, std::vector<real_t>& tau) {
  const index_t kmax = std::min(a.rows, a.cols);
  tau.assign(static_cast<size_t>(kmax), 0.0);
  for (index_t k = 0; k < kmax; ++k) {
    tau[static_cast<size_t>(k)] = make_reflector(a.data + k + k * a.ld, a.rows - k);
    apply_reflector(a, k, tau[static_cast<size_t>(k)], k + 1);
  }
}

void householder_qr_continue(MatrixView a, std::vector<real_t>& tau, index_t from) {
  const index_t kmax = std::min(a.rows, a.cols);
  const index_t kdone = std::min(from, kmax);
  H2S_CHECK(from <= a.cols && static_cast<index_t>(tau.size()) == kdone,
            "householder_qr_continue: tau does not match the factored prefix");
  if (from >= a.cols) return;
  // Replay H_0..H_{kdone-1} on the appended columns in factorization order —
  // exactly the updates a full QR would have applied to them.
  for (index_t t = 0; t < kdone; ++t) apply_reflector(a, t, tau[static_cast<size_t>(t)], from);
  tau.resize(static_cast<size_t>(kmax), 0.0);
  for (index_t k = kdone; k < kmax; ++k) {
    tau[static_cast<size_t>(k)] = make_reflector(a.data + k + k * a.ld, a.rows - k);
    apply_reflector(a, k, tau[static_cast<size_t>(k)], k + 1);
  }
}

void householder_qr_blocked(MatrixView a, std::vector<real_t>& tau) {
  const index_t m = a.rows, n = a.cols;
  const index_t kmax = std::min(m, n);
  tau.assign(static_cast<size_t>(kmax), 0.0);
  std::vector<real_t> panel_tau;
  Matrix w;
  for (index_t k0 = 0; k0 < kmax; k0 += kQrPanel) {
    const index_t jb = std::min(kQrPanel, kmax - k0);
    householder_qr(a.block(k0, k0, m - k0, jb), panel_tau);
    std::copy(panel_tau.begin(), panel_tau.end(), tau.begin() + k0);
    const index_t n2 = n - k0 - jb;
    if (n2 == 0) continue;
    // Trailing columns: A2 := Q_b^T A2 = A2 - V (A2^T VT)^T.
    const BlockReflector h = block_reflector(a, tau.data() + k0, k0, jb);
    MatrixView a2 = a.block(k0, k0 + jb, m - k0, n2);
    w.resize(n2, jb);
    gemm_parallel(1.0, a2, Op::Trans, h.vt.view(), Op::None, 0.0, w.view());
    gemm_parallel(-1.0, h.v.view(), Op::None, w.view(), Op::Trans, 1.0, a2);
  }
}

void apply_qt_d_q(ConstMatrixView qr, const std::vector<real_t>& tau, MatrixView d) {
  const index_t m = qr.rows;
  H2S_CHECK(d.rows == m && d.cols == m, "apply_qt_d_q: shape mismatch");
  const index_t k = static_cast<index_t>(tau.size());
  // Q^T d Q = Q_p^T ... Q_0^T d Q_0 ... Q_p: rotate by one panel at a time.
  // Panel b acts on indices k0.. only: rows k0.. from the left, columns k0..
  // from the right.
  Matrix w;
  for (index_t k0 = 0; k0 < k; k0 += kQrPanel) {
    const index_t jb = std::min(kQrPanel, k - k0), mb = m - k0;
    const BlockReflector h = block_reflector(qr, tau.data() + k0, k0, jb);
    w.resize(m, jb);
    MatrixView rows = d.row_range(k0, mb);
    gemm_parallel(1.0, rows, Op::Trans, h.vt.view(), Op::None, 0.0, w.view());
    gemm_parallel(-1.0, h.v.view(), Op::None, w.view(), Op::Trans, 1.0, rows);
    MatrixView cols = d.col_range(k0, mb);
    gemm_parallel(1.0, cols, Op::None, h.vt.view(), Op::None, 0.0, w.view());
    gemm_parallel(-1.0, w.view(), Op::None, h.v.view(), Op::Trans, 1.0, cols);
  }
}

void apply_q_transpose(ConstMatrixView qr, const std::vector<real_t>& tau, MatrixView b) {
  H2S_CHECK(b.rows == qr.rows, "apply_q_transpose: shape mismatch");
  const index_t k = static_cast<index_t>(tau.size());
  // Q^T = H_{k-1} ... H_1 H_0 applied in order 0..k-1.
  for (index_t t = 0; t < k; ++t) {
    if (tau[static_cast<size_t>(t)] == 0.0) continue;
    for (index_t j = 0; j < b.cols; ++j) {
      real_t* col = b.data + j * b.ld;
      const real_t* v = qr.data + t * qr.ld;
      real_t w = col[t];
      for (index_t i = t + 1; i < qr.rows; ++i) w += v[i] * col[i];
      w *= tau[static_cast<size_t>(t)];
      col[t] -= w;
      for (index_t i = t + 1; i < qr.rows; ++i) col[i] -= w * v[i];
    }
  }
}

void apply_q(ConstMatrixView qr, const std::vector<real_t>& tau, MatrixView b) {
  H2S_CHECK(b.rows == qr.rows, "apply_q: shape mismatch");
  const index_t k = static_cast<index_t>(tau.size());
  // Q = H_0 H_1 ... H_{k-1} applied in reverse order.
  for (index_t t = k - 1; t >= 0; --t) {
    if (tau[static_cast<size_t>(t)] == 0.0) continue;
    for (index_t j = 0; j < b.cols; ++j) {
      real_t* col = b.data + j * b.ld;
      const real_t* v = qr.data + t * qr.ld;
      real_t w = col[t];
      for (index_t i = t + 1; i < qr.rows; ++i) w += v[i] * col[i];
      w *= tau[static_cast<size_t>(t)];
      col[t] -= w;
      for (index_t i = t + 1; i < qr.rows; ++i) col[i] -= w * v[i];
    }
  }
}

Matrix form_q(ConstMatrixView qr, const std::vector<real_t>& tau, index_t k) {
  H2S_CHECK(k <= qr.rows, "form_q: too many columns requested");
  Matrix q(qr.rows, k);
  for (index_t j = 0; j < k; ++j) q(j, j) = 1.0;
  apply_q(qr, tau, q.view());
  return q;
}

real_t min_abs_r_diag(ConstMatrixView a) {
  if (a.rows == 0 || a.cols == 0) return 0.0;
  Matrix work = to_matrix(a);
  std::vector<real_t> tau;
  householder_qr(work.view(), tau);
  const index_t kmax = std::min(a.rows, a.cols);
  real_t mn = std::abs(work(0, 0));
  for (index_t i = 1; i < kmax; ++i) mn = std::min(mn, std::abs(work(i, i)));
  return mn;
}

Cpqr cpqr(MatrixView a, std::vector<real_t>& tau, real_t abs_tol, index_t max_rank) {
  const index_t m = a.rows, n = a.cols;
  const index_t kcap = max_rank < 0 ? std::min(m, n) : std::min({m, n, max_rank});
  Cpqr out;
  out.piv.resize(static_cast<size_t>(n));
  for (index_t j = 0; j < n; ++j) out.piv[static_cast<size_t>(j)] = j;
  tau.assign(static_cast<size_t>(std::min(m, n)), 0.0);

  // Column norms, with originals kept for the downdating safeguard.
  std::vector<real_t> cnorm(static_cast<size_t>(n)), corig(static_cast<size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    real_t s = 0.0;
    for (index_t i = 0; i < m; ++i) s += a(i, j) * a(i, j);
    cnorm[static_cast<size_t>(j)] = std::sqrt(s);
    corig[static_cast<size_t>(j)] = cnorm[static_cast<size_t>(j)];
  }

  for (index_t k = 0; k < kcap; ++k) {
    // Pivot: largest remaining column norm.
    index_t jmax = k;
    for (index_t j = k + 1; j < n; ++j)
      if (cnorm[static_cast<size_t>(j)] > cnorm[static_cast<size_t>(jmax)]) jmax = j;
    if (cnorm[static_cast<size_t>(jmax)] <= abs_tol) {
      out.rank = k;
      return out;
    }
    if (jmax != k) {
      for (index_t i = 0; i < m; ++i) std::swap(a(i, k), a(i, jmax));
      std::swap(cnorm[static_cast<size_t>(k)], cnorm[static_cast<size_t>(jmax)]);
      std::swap(corig[static_cast<size_t>(k)], corig[static_cast<size_t>(jmax)]);
      std::swap(out.piv[static_cast<size_t>(k)], out.piv[static_cast<size_t>(jmax)]);
    }
    tau[static_cast<size_t>(k)] = make_reflector(a.data + k + k * a.ld, m - k);
    apply_reflector(a, k, tau[static_cast<size_t>(k)], k + 1);
    // Downdate remaining column norms; recompute on cancellation.
    for (index_t j = k + 1; j < n; ++j) {
      real_t& cn = cnorm[static_cast<size_t>(j)];
      if (cn == 0.0) continue;
      const real_t t = std::abs(a(k, j)) / cn;
      real_t f = std::max(0.0, (1.0 - t) * (1.0 + t));
      const real_t rel = cn / corig[static_cast<size_t>(j)];
      if (f * rel * rel < 1e-14) {
        real_t s = 0.0;
        for (index_t i = k + 1; i < m; ++i) s += a(i, j) * a(i, j);
        cn = std::sqrt(s);
        corig[static_cast<size_t>(j)] = cn;
      } else {
        cn *= std::sqrt(f);
      }
    }
  }
  out.rank = kcap;
  return out;
}

} // namespace h2sketch::la
