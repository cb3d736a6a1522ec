#include "la/qr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "la/blas.hpp"
#include "test_common.hpp"

namespace h2sketch::la {
namespace {

using test_util::random_matrix;
using test_util::rank_r_matrix;

Matrix upper_triangle(ConstMatrixView qr) {
  Matrix r(std::min(qr.rows, qr.cols), qr.cols);
  for (index_t j = 0; j < qr.cols; ++j)
    for (index_t i = 0; i <= std::min(j, r.rows() - 1); ++i) r(i, j) = qr(i, j);
  return r;
}

/// The unblocked and the blocked factorization share one contract; every
/// QrShapes check runs on both.
using QrFn = void (*)(MatrixView, std::vector<real_t>&);
constexpr QrFn kQrKernels[] = {householder_qr, householder_qr_blocked};

class QrShapes : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(QrShapes, ReconstructsA) {
  const auto [m, n] = GetParam();
  const Matrix a = random_matrix(m, n, 42);
  for (QrFn qr_fn : kQrKernels) {
    Matrix f = to_matrix(a.view());
    std::vector<real_t> tau;
    qr_fn(f.view(), tau);
    const Matrix r = upper_triangle(f.view());
    const Matrix q = form_q(f.view(), tau, std::min(m, n));
    Matrix qr_prod(m, n);
    gemm(1.0, q.view(), Op::None, r.view(), Op::None, 0.0, qr_prod.view());
    EXPECT_LT(max_abs_diff(qr_prod.view(), a.view()), 1e-12)
        << (qr_fn == householder_qr ? "unblocked" : "blocked");
  }
}

TEST_P(QrShapes, QHasOrthonormalColumns) {
  const auto [m, n] = GetParam();
  const index_t k = std::min(m, n);
  for (QrFn qr_fn : kQrKernels) {
    Matrix f = random_matrix(m, n, 17);
    std::vector<real_t> tau;
    qr_fn(f.view(), tau);
    const Matrix q = form_q(f.view(), tau, k);
    Matrix qtq(k, k);
    gemm(1.0, q.view(), Op::Trans, q.view(), Op::None, 0.0, qtq.view());
    EXPECT_LT(max_abs_diff(qtq.view(), Matrix::identity(k).view()), 1e-13)
        << (qr_fn == householder_qr ? "unblocked" : "blocked");
  }
}

INSTANTIATE_TEST_SUITE_P(TallSquareWide, QrShapes,
                         ::testing::Values(std::make_pair<index_t, index_t>(12, 5),
                                           std::make_pair<index_t, index_t>(7, 7),
                                           std::make_pair<index_t, index_t>(4, 9),
                                           std::make_pair<index_t, index_t>(1, 1),
                                           std::make_pair<index_t, index_t>(20, 3)));

/// Shapes whose reflector count min(m, n) — or, for m < n, whose trailing
/// column count — straddles the blocked kernels' panel width: one short of
/// a panel, exactly one, one past it, and two panels plus a partial third.
constexpr index_t kNb = kQrPanel;
std::vector<std::pair<index_t, index_t>> panel_edge_shapes() {
  std::vector<std::pair<index_t, index_t>> shapes;
  for (index_t c : {kNb - 1, kNb, kNb + 1, 2 * kNb + 3}) {
    shapes.emplace_back(3 * kNb, c);  // tall
    shapes.emplace_back(c, c);        // square
    shapes.emplace_back(c, c + 9);    // m < n: min(m, n) = c
    shapes.emplace_back(kNb / 2, c);  // m < n: one partial panel, c trailing columns
  }
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(PanelEdges, QrShapes, ::testing::ValuesIn(panel_edge_shapes()));

/// max|R_blocked - R| / max|R| between the blocked and the unblocked
/// factorization of A, plus the check that apply_q_transpose with the
/// blocked (qr, tau) maps A onto the blocked R (zero below the diagonal).
void expect_blocked_matches_unblocked(const Matrix& a, const char* what) {
  Matrix fu = to_matrix(a.view()), fb = to_matrix(a.view());
  std::vector<real_t> tau_u, tau_b;
  householder_qr(fu.view(), tau_u);
  householder_qr_blocked(fb.view(), tau_b);
  ASSERT_EQ(tau_b.size(), tau_u.size()) << what;
  const Matrix ru = upper_triangle(fu.view()), rb = upper_triangle(fb.view());
  real_t rmax = 0.0;
  for (index_t j = 0; j < ru.cols(); ++j)
    for (index_t i = 0; i < ru.rows(); ++i) rmax = std::max(rmax, std::abs(ru(i, j)));
  const real_t scale = rmax > 0.0 ? rmax : 1.0;
  EXPECT_LT(max_abs_diff(rb.view(), ru.view()) / scale, 1e-12) << what;

  Matrix qta = to_matrix(a.view());
  apply_q_transpose(fb.view(), tau_b, qta.view());
  real_t err = 0.0;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i)
      err = std::max(err, std::abs(qta(i, j) - (i <= j ? fb(i, j) : 0.0)));
  EXPECT_LT(err / scale, 1e-12) << what;
}

TEST(QrBlocked, MatchesUnblockedAcrossPanelEdges) {
  std::uint64_t seed = 100;
  for (const auto& [m, n] : panel_edge_shapes()) {
    const std::string what = std::to_string(m) + "x" + std::to_string(n);
    expect_blocked_matches_unblocked(random_matrix(m, n, ++seed), what.c_str());
  }
}

TEST(QrBlocked, ZeroColumnsGiveZeroTau) {
  // A zero column stays zero under earlier reflectors, so its own reflector
  // is the identity (tau = 0) — here once in the first panel and once in the
  // middle of the second, where T's recurrence must carry the gap.
  Matrix a = random_matrix(3 * kNb, 2 * kNb + 3, 7);
  for (index_t j : {index_t{5}, kNb + 7})
    for (index_t i = 0; i < a.rows(); ++i) a(i, j) = 0.0;
  expect_blocked_matches_unblocked(a, "zero columns");
  Matrix f = to_matrix(a.view());
  std::vector<real_t> tau;
  householder_qr_blocked(f.view(), tau);
  EXPECT_EQ(tau[5], 0.0);
  EXPECT_EQ(tau[static_cast<size_t>(kNb + 7)], 0.0);
}

TEST(QrBlocked, RankDeficientInput) {
  // Past the numerical rank the reflectors are built from rounding noise and
  // need not agree between the two kernels; R, the factorization identity
  // and the collapse of the trailing diagonal must.
  const Matrix a = rank_r_matrix(3 * kNb, 2 * kNb + 3, kNb / 2, 9);
  expect_blocked_matches_unblocked(a, "rank deficient");
  Matrix f = to_matrix(a.view());
  std::vector<real_t> tau;
  householder_qr_blocked(f.view(), tau);
  EXPECT_LT(std::abs(f(kNb, kNb)), 1e-10 * norm_f(a.view()));
}

/// Reference two-sided rotation: Q^T D by apply_q_transpose, then D Q as
/// (Q^T D^T)^T through explicit transposes — the level-2 form the blocked
/// kernel replaces.
Matrix rotate_reference(ConstMatrixView qr, const std::vector<real_t>& tau, ConstMatrixView d) {
  Matrix w = to_matrix(d);
  apply_q_transpose(qr, tau, w.view());
  Matrix wt(w.cols(), w.rows());
  for (index_t j = 0; j < w.cols(); ++j)
    for (index_t i = 0; i < w.rows(); ++i) wt(j, i) = w(i, j);
  apply_q_transpose(qr, tau, wt.view());
  for (index_t j = 0; j < w.cols(); ++j)
    for (index_t i = 0; i < w.rows(); ++i) w(i, j) = wt(j, i);
  return w;
}

TEST(QrBlocked, TwoSidedRotationMatchesLevel2Reference) {
  std::uint64_t seed = 200;
  for (index_t m : {kNb - 1, 3 * kNb, 2 * kNb + 3}) {
    for (index_t r : {index_t{0}, kNb - 1, kNb, kNb + 1, 2 * kNb + 3}) {
      if (r > m) continue;
      const Matrix b = random_matrix(m, m, ++seed);
      Matrix d(m, m); // symmetric, like the ULV node diagonals
      for (index_t j = 0; j < m; ++j)
        for (index_t i = 0; i < m; ++i) d(i, j) = b(i, j) + b(j, i);
      real_t dmax = 0.0;
      for (index_t j = 0; j < m; ++j)
        for (index_t i = 0; i < m; ++i) dmax = std::max(dmax, std::abs(d(i, j)));
      for (QrFn qr_fn : kQrKernels) {
        Matrix g = random_matrix(m, r, ++seed);
        std::vector<real_t> tau;
        qr_fn(g.view(), tau);
        const Matrix ref = rotate_reference(g.view(), tau, d.view());
        Matrix got = to_matrix(d.view());
        apply_qt_d_q(g.view(), tau, got.view());
        EXPECT_LT(max_abs_diff(got.view(), ref.view()), 1e-12 * dmax)
            << m << "x" << r << (qr_fn == householder_qr ? " unblocked" : " blocked");
      }
    }
  }
}

TEST(Qr, ApplyQTransposeInvertsApplyQ) {
  Matrix f = random_matrix(9, 4, 3);
  std::vector<real_t> tau;
  householder_qr(f.view(), tau);
  const Matrix b = random_matrix(9, 2, 4);
  Matrix w = to_matrix(b.view());
  apply_q(f.view(), tau, w.view());
  apply_q_transpose(f.view(), tau, w.view());
  EXPECT_LT(max_abs_diff(w.view(), b.view()), 1e-12);
}

TEST(Qr, QTransposeTimesAGivesR) {
  const Matrix a = random_matrix(8, 5, 5);
  Matrix f = to_matrix(a.view());
  std::vector<real_t> tau;
  householder_qr(f.view(), tau);
  Matrix w = to_matrix(a.view());
  apply_q_transpose(f.view(), tau, w.view());
  // Below-diagonal entries of Q^T A must vanish.
  for (index_t j = 0; j < 5; ++j)
    for (index_t i = j + 1; i < 8; ++i) EXPECT_NEAR(w(i, j), 0.0, 1e-12);
}

TEST(MinAbsRDiag, DetectsRankDeficiency) {
  // Rank-3 matrix with 6 columns: some R diagonal must be ~0.
  const Matrix a = rank_r_matrix(20, 6, 3, 7);
  EXPECT_LT(min_abs_r_diag(a.view()), 1e-10);
  // Full-rank Gaussian: diagonal bounded away from zero.
  const Matrix b = random_matrix(20, 6, 8);
  EXPECT_GT(min_abs_r_diag(b.view()), 1e-3);
}

TEST(MinAbsRDiag, EmptyAndZeroMatrices) {
  Matrix z(5, 3);
  EXPECT_EQ(min_abs_r_diag(z.view()), 0.0);
  Matrix e(0, 0);
  EXPECT_EQ(min_abs_r_diag(e.view()), 0.0);
}

TEST(Cpqr, PivotsAreAPermutation) {
  Matrix a = random_matrix(10, 8, 9);
  std::vector<real_t> tau;
  const Cpqr f = cpqr(a.view(), tau, 0.0);
  std::vector<index_t> sorted = f.piv;
  std::sort(sorted.begin(), sorted.end());
  for (index_t j = 0; j < 8; ++j) EXPECT_EQ(sorted[static_cast<size_t>(j)], j);
  EXPECT_EQ(f.rank, 8);
}

TEST(Cpqr, DiagonalMagnitudesNonIncreasing) {
  Matrix a = random_matrix(16, 10, 10);
  std::vector<real_t> tau;
  const Cpqr f = cpqr(a.view(), tau, 0.0);
  for (index_t i = 0; i + 1 < f.rank; ++i)
    EXPECT_GE(std::abs(a(i, i)) * (1 + 1e-12), std::abs(a(i + 1, i + 1)));
}

TEST(Cpqr, DetectsNumericalRank) {
  const Matrix a = rank_r_matrix(30, 20, 5, 11);
  Matrix f = to_matrix(a.view());
  std::vector<real_t> tau;
  const Cpqr res = cpqr(f.view(), tau, 1e-10 * norm_f(a.view()));
  EXPECT_EQ(res.rank, 5);
}

TEST(Cpqr, MaxRankCapsFactorization) {
  Matrix a = random_matrix(12, 12, 12);
  std::vector<real_t> tau;
  const Cpqr res = cpqr(a.view(), tau, 0.0, /*max_rank=*/4);
  EXPECT_EQ(res.rank, 4);
}

TEST(Cpqr, ReconstructsPermutedMatrix) {
  const Matrix a = random_matrix(9, 6, 13);
  Matrix f = to_matrix(a.view());
  std::vector<real_t> tau;
  const Cpqr res = cpqr(f.view(), tau, 0.0);
  const Matrix q = form_q(f.view(), tau, 6);
  const Matrix r = upper_triangle(f.view());
  Matrix qr_prod(9, 6);
  gemm(1.0, q.view(), Op::None, r.view(), Op::None, 0.0, qr_prod.view());
  for (index_t j = 0; j < 6; ++j)
    for (index_t i = 0; i < 9; ++i)
      EXPECT_NEAR(qr_prod(i, j), a(i, res.piv[static_cast<size_t>(j)]), 1e-12);
}

TEST(Cpqr, ZeroMatrixHasRankZero) {
  Matrix z(6, 4);
  std::vector<real_t> tau;
  const Cpqr res = cpqr(z.view(), tau, 1e-14);
  EXPECT_EQ(res.rank, 0);
}

} // namespace
} // namespace h2sketch::la
