#include "la/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "la/blas.hpp"

namespace h2sketch::la {

Svd jacobi_svd(ConstMatrixView a) {
  // Work on A (or A^T so rows >= cols), orthogonalize columns by plane
  // rotations, accumulate V; at the end sigma_j = ||col_j||, U = A V / sigma.
  const bool transposed = a.rows < a.cols;
  Matrix w = transposed ? Matrix(a.cols, a.rows) : to_matrix(a);
  if (transposed) copy_transposed(a, w.view());
  const index_t m = w.rows(), n = w.cols();
  Matrix v = Matrix::identity(n);

  const real_t eps = 1e-15;
  const int max_sweeps = 60;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool rotated = false;
    for (index_t p = 0; p < n - 1; ++p) {
      for (index_t q = p + 1; q < n; ++q) {
        real_t app = 0, aqq = 0, apq = 0;
        for (index_t i = 0; i < m; ++i) {
          app += w(i, p) * w(i, p);
          aqq += w(i, q) * w(i, q);
          apq += w(i, p) * w(i, q);
        }
        if (std::abs(apq) <= eps * std::sqrt(app * aqq) || apq == 0.0) continue;
        rotated = true;
        const real_t zeta = (aqq - app) / (2.0 * apq);
        const real_t t = std::copysign(1.0, zeta) / (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const real_t c = 1.0 / std::sqrt(1.0 + t * t);
        const real_t s = c * t;
        for (index_t i = 0; i < m; ++i) {
          const real_t wp = w(i, p), wq = w(i, q);
          w(i, p) = c * wp - s * wq;
          w(i, q) = s * wp + c * wq;
        }
        for (index_t i = 0; i < n; ++i) {
          const real_t vp = v(i, p), vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
    if (!rotated) break;
  }

  // Extract singular values and left vectors; sort descending.
  std::vector<real_t> sig(static_cast<size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    real_t s = 0;
    for (index_t i = 0; i < m; ++i) s += w(i, j) * w(i, j);
    sig[static_cast<size_t>(j)] = std::sqrt(s);
  }
  std::vector<index_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), index_t{0});
  std::sort(order.begin(), order.end(),
            [&](index_t x, index_t y) { return sig[static_cast<size_t>(x)] > sig[static_cast<size_t>(y)]; });

  Svd out;
  out.sigma.resize(static_cast<size_t>(n));
  out.u.resize(m, n);
  out.v.resize(n, n);
  for (index_t j = 0; j < n; ++j) {
    const index_t src = order[static_cast<size_t>(j)];
    const real_t s = sig[static_cast<size_t>(src)];
    out.sigma[static_cast<size_t>(j)] = s;
    const real_t inv = s > 0 ? 1.0 / s : 0.0;
    for (index_t i = 0; i < m; ++i) out.u(i, j) = w(i, src) * inv;
    for (index_t i = 0; i < n; ++i) out.v(i, j) = v(i, src);
  }
  if (transposed) std::swap(out.u, out.v);
  return out;
}

index_t svd_rank(const Svd& s, real_t rel_tol) {
  if (s.sigma.empty() || s.sigma[0] == 0.0) return 0;
  index_t r = 0;
  for (real_t v : s.sigma)
    if (v > rel_tol * s.sigma[0]) ++r;
  return r;
}

} // namespace h2sketch::la
