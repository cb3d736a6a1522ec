#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.hpp"
#include "la/blas.hpp"
#include "la/gemm_engine.hpp"
#include "test_common.hpp"

/// \file test_blas_fuzz.cpp
/// Property/fuzz suite for `la::gemm` (unpacked register tiles), its
/// pool-split form `gemm_parallel` and the blocked triangular solves,
/// against the naive reference kernels.
///
/// The register tiles fail in shape-dependent ways (row and column tails,
/// partial vectors, staged transposes, the staged long inner dimension,
/// strided views), so the suite draws dimensions from a pool biased toward
/// the danger zone: 0, 1, primes, and every tile and panel size +- 1. Every
/// case checks that entries of the backing buffer outside the C view are
/// never touched (the ld-correctness property).

namespace h2sketch::la {
namespace {

using test_util::random_matrix;

/// Dimension pool biased toward the tile boundaries: 4, 8 or 32 rows of 2-,
/// 4- or 8-wide vectors per ISA by 4 columns (3-5, 7-9, 15-17, 31-33 and
/// 63-65 hit a whole tile, a vector tail and a second tile), the inner
/// dimension past which op(A) is staged and gemm_parallel's row panel (both
/// 128), twice that, primes, and the degenerate sizes 0 and 1.
index_t draw_dim(SmallRng& rng) {
  static const std::vector<index_t> pool = {
      0,  1,  2,  3,  4,  5,  7,  8,  9,  13, 15, 16, 17, 31,  32,  33,
      61, 63, 64, 65, 97, kGemmMC - 1, kGemmMC, kGemmMC + 1, 255, 256, 257};
  if (rng.next_real() < 0.7) return pool[static_cast<size_t>(rng.next_index(
      static_cast<index_t>(pool.size())))];
  return rng.next_index(300);
}

real_t draw_scalar(SmallRng& rng) {
  switch (rng.next_index(4)) {
    case 0: return 0.0;
    case 1: return 1.0;
    case 2: return -1.0;
    default: return 2.0 * rng.next_real() - 1.0;
  }
}

Op draw_op(SmallRng& rng) { return rng.next_index(2) == 0 ? Op::None : Op::Trans; }

/// A view of shape m x n with leading dimension rows(backing) >= m, placed
/// at a random row/col offset inside `backing` so ld != m most of the time.
struct EmbeddedView {
  Matrix backing;
  index_t r0 = 0, c0 = 0, m = 0, n = 0;

  EmbeddedView(index_t m_, index_t n_, SmallRng& rng, std::uint64_t seed) : m(m_), n(n_) {
    const index_t pad_r = rng.next_index(5);
    const index_t pad_c = rng.next_index(3);
    backing = random_matrix(m + pad_r, n + pad_c, seed);
    r0 = pad_r > 0 ? rng.next_index(pad_r + 1) : 0;
    c0 = pad_c > 0 ? rng.next_index(pad_c + 1) : 0;
  }
  MatrixView view() { return backing.block(r0, c0, m, n); }
  ConstMatrixView cview() const { return backing.block(r0, c0, m, n); }
};

TEST(BlasFuzz, GemmMatchesNaiveReference) {
  SmallRng rng(20250728);
  int split_cases = 0, single_panel_cases = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const index_t m = draw_dim(rng), n = draw_dim(rng), k = draw_dim(rng);
    const Op oa = draw_op(rng), ob = draw_op(rng);
    const real_t alpha = draw_scalar(rng), beta = draw_scalar(rng);

    const std::uint64_t s = 1000 + static_cast<std::uint64_t>(iter) * 7;
    EmbeddedView a(oa == Op::None ? m : k, oa == Op::None ? k : m, rng, s);
    EmbeddedView b(ob == Op::None ? k : n, ob == Op::None ? n : k, rng, s + 1);
    EmbeddedView c_gemm(m, n, rng, s + 2);
    // Same C contents (and same backing) for the gemm_parallel and
    // reference runs.
    EmbeddedView c_par = c_gemm;
    Matrix c_ref_backing = to_matrix(c_gemm.backing.view());
    MatrixView c_ref = c_ref_backing.block(c_gemm.r0, c_gemm.c0, m, n);
    const Matrix before = to_matrix(c_gemm.backing.view());

    gemm(alpha, a.cview(), oa, b.cview(), ob, beta, c_gemm.view());
    gemm_parallel(alpha, a.cview(), oa, b.cview(), ob, beta, c_par.view());
    gemm_naive(alpha, a.cview(), oa, b.cview(), ob, beta, c_ref);

    // Reordered/FMA summation differs from the scalar order by O(k * eps *
    // |A||B|); an indexing or padding bug shows up as O(1).
    const real_t tol = 1e-12 * static_cast<real_t>(k + 1);
    for (EmbeddedView* got : {&c_gemm, &c_par}) {
      const char* path = got == &c_gemm ? "gemm" : "gemm_parallel";
      EXPECT_LT(max_abs_diff(got->view(), c_ref), tol)
          << path << " m=" << m << " n=" << n << " k=" << k << " oa=" << static_cast<int>(oa)
          << " ob=" << static_cast<int>(ob) << " alpha=" << alpha << " beta=" << beta;

      // The ld property: nothing outside the C view may change.
      for (index_t j = 0; j < got->backing.cols(); ++j)
        for (index_t i = 0; i < got->backing.rows(); ++i) {
          const bool inside =
              i >= got->r0 && i < got->r0 + m && j >= got->c0 && j < got->c0 + n;
          if (!inside)
            ASSERT_EQ(got->backing(i, j), before(i, j))
                << path << " wrote outside the view at (" << i << "," << j << ")";
        }
    }
    // gemm_parallel's tiles run gemm on sub-views: the same bits.
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i)
        ASSERT_EQ(c_par.view()(i, j), c_gemm.view()(i, j))
            << "gemm_parallel differs from gemm at (" << i << "," << j << ") m=" << m
            << " n=" << n << " k=" << k;

    if (m > kGemmMC && n >= 8 && k >= 8)
      ++split_cases;
    else
      ++single_panel_cases;
  }
  // Sanity: the pool must reach both products gemm_parallel splits into
  // row panels and products it runs whole.
  EXPECT_GE(split_cases, 20);
  EXPECT_GE(single_panel_cases, 20);
}

TEST(BlasFuzz, GemmEntriesDoNotDependOnTheirTile) {
  // Every entry of C runs the same instruction sequence wherever it sits in
  // the register tiling, so a product restricted to any block of C (the
  // matching rows of op(A), columns of op(B)) reproduces that block of the
  // full product bit for bit. gemm_parallel relies on this to split
  // products over the pool.
  SmallRng rng(4711);
  for (int iter = 0; iter < 150; ++iter) {
    const index_t m = 1 + rng.next_index(80), n = 1 + rng.next_index(24),
                  k = 1 + rng.next_index(160);
    const Op oa = draw_op(rng), ob = draw_op(rng);
    const real_t alpha = draw_scalar(rng), beta = draw_scalar(rng);
    const Matrix a = random_matrix(oa == Op::None ? m : k, oa == Op::None ? k : m, 40 + iter);
    const Matrix b = random_matrix(ob == Op::None ? k : n, ob == Op::None ? n : k, 50 + iter);
    const Matrix c0 = random_matrix(m, n, 60 + iter);
    Matrix full = to_matrix(c0.view());
    gemm(alpha, a.view(), oa, b.view(), ob, beta, full.view());

    const index_t r0 = rng.next_index(m), c0i = rng.next_index(n);
    const index_t mb = 1 + rng.next_index(m - r0), nb = 1 + rng.next_index(n - c0i);
    const ConstMatrixView a_rows =
        oa == Op::None ? a.block(r0, 0, mb, k) : a.block(0, r0, k, mb);
    const ConstMatrixView b_cols =
        ob == Op::None ? b.block(0, c0i, k, nb) : b.block(c0i, 0, nb, k);
    Matrix part = to_matrix(c0.block(r0, c0i, mb, nb));
    gemm(alpha, a_rows, oa, b_cols, ob, beta, part.view());
    for (index_t j = 0; j < nb; ++j)
      for (index_t i = 0; i < mb; ++i)
        ASSERT_EQ(part(i, j), full(r0 + i, c0i + j))
            << "m=" << m << " n=" << n << " k=" << k << " block (" << r0 << "," << c0i << ") "
            << mb << "x" << nb << " oa=" << static_cast<int>(oa) << " ob=" << static_cast<int>(ob);
  }
}

TEST(BlasFuzz, GemmExactTileBoundaries) {
  // Deterministic sweep of every (m, n, k) within +-1 of a register-tile,
  // staging or panel boundary in at least one dimension, through both
  // entry points.
  const std::vector<index_t> edges = {3, 4, 5, 7, 8, 9, 31, 33, kGemmMC - 1, kGemmMC + 1};
  for (index_t m : edges)
    for (index_t n : {index_t{3}, index_t{5}, index_t{33}})
      for (index_t k : {index_t{1}, kGemmMC - 1, kGemmMC + 1, index_t{257}}) {
        const Matrix a = random_matrix(m, k, static_cast<std::uint64_t>(m * 31 + k));
        const Matrix b = random_matrix(k, n, static_cast<std::uint64_t>(n * 17 + k));
        Matrix c1(m, n), c2(m, n), c3(m, n);
        gemm(1.0, a.view(), Op::None, b.view(), Op::None, 0.0, c1.view());
        gemm_parallel(1.0, a.view(), Op::None, b.view(), Op::None, 0.0, c3.view());
        gemm_naive(1.0, a.view(), Op::None, b.view(), Op::None, 0.0, c2.view());
        EXPECT_LT(max_abs_diff(c1.view(), c2.view()), 1e-12 * static_cast<real_t>(k + 1))
            << "m=" << m << " n=" << n << " k=" << k;
        EXPECT_EQ(max_abs_diff(c3.view(), c1.view()), 0.0) << "m=" << m << " n=" << n << " k=" << k;
      }
}

TEST(BlasFuzz, BlockedTrsmSolvesWhatItClaims) {
  // Property check: after trsm, op(R) X == B_original. Sizes chosen to cross
  // the blocked-substitution threshold in both directions.
  SmallRng rng(909);
  for (int iter = 0; iter < 40; ++iter) {
    const index_t n = 1 + rng.next_index(180);
    const index_t nrhs = 1 + rng.next_index(48);
    const bool unit = rng.next_index(2) == 0;
    const Op op = draw_op(rng);
    Matrix r(n, n);
    // Off-diagonal magnitude 0.1 keeps even the implicit-unit-diagonal
    // system well conditioned (a unit triangular matrix with N(0,1)
    // off-diagonals is exponentially ill-conditioned in n, which would turn
    // this into a conditioning test rather than a solver test).
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i <= j; ++i)
        r(i, j) = 0.1 * rng.next_gaussian() + (i == j ? 6.0 : 0.0);
    const Matrix x = random_matrix(n, nrhs, 4000 + static_cast<std::uint64_t>(iter));
    Matrix b(n, nrhs);
    if (unit) {
      // op(R) with implicit unit diagonal: form B with the diagonal forced
      // to one, using a copy.
      Matrix r1 = to_matrix(r.view());
      for (index_t i = 0; i < n; ++i) r1(i, i) = 1.0;
      gemm_naive(1.0, r1.view(), op, x.view(), Op::None, 0.0, b.view());
    } else {
      gemm_naive(1.0, r.view(), op, x.view(), Op::None, 0.0, b.view());
    }
    trsm_upper_left(r.view(), op, b.view(), unit);
    EXPECT_LT(max_abs_diff(b.view(), x.view()), 1e-9)
        << "n=" << n << " nrhs=" << nrhs << " unit=" << unit << " op=" << static_cast<int>(op);
  }
}

TEST(BlasFuzz, LowerLeftTrsmSolvesWhatItClaims) {
  // Same property as the upper-left suite for the new ULV-facing variant:
  // after trsm_lower_left, op(L) X == B_original. Sizes cross the blocked
  // threshold in both directions.
  SmallRng rng(911);
  for (int iter = 0; iter < 40; ++iter) {
    const index_t n = 1 + rng.next_index(180);
    const index_t nrhs = 1 + rng.next_index(48);
    const bool unit = rng.next_index(2) == 0;
    const Op op = draw_op(rng);
    Matrix l(n, n);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = j; i < n; ++i)
        l(i, j) = 0.1 * rng.next_gaussian() + (i == j ? 6.0 : 0.0);
    const Matrix x = random_matrix(n, nrhs, 5000 + static_cast<std::uint64_t>(iter));
    Matrix b(n, nrhs);
    Matrix l1 = to_matrix(l.view());
    if (unit)
      for (index_t i = 0; i < n; ++i) l1(i, i) = 1.0;
    gemm_naive(1.0, l1.view(), op, x.view(), Op::None, 0.0, b.view());
    trsm_lower_left(l.view(), op, b.view(), unit);
    EXPECT_LT(max_abs_diff(b.view(), x.view()), 1e-9)
        << "n=" << n << " nrhs=" << nrhs << " unit=" << unit << " op=" << static_cast<int>(op);
  }
}

TEST(BlasFuzz, LowerRightTrsmSolvesWhatItClaims) {
  // Right-side solve X op(L) = B. B is built as X op(L) with a naive gemm,
  // the solve must recover X.
  SmallRng rng(913);
  for (int iter = 0; iter < 40; ++iter) {
    const index_t n = 1 + rng.next_index(180);
    const index_t m = 1 + rng.next_index(48);
    const bool unit = rng.next_index(2) == 0;
    const Op op = draw_op(rng);
    Matrix l(n, n);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = j; i < n; ++i)
        l(i, j) = 0.1 * rng.next_gaussian() + (i == j ? 6.0 : 0.0);
    const Matrix x = random_matrix(m, n, 5500 + static_cast<std::uint64_t>(iter));
    Matrix b(m, n);
    Matrix l1 = to_matrix(l.view());
    if (unit)
      for (index_t i = 0; i < n; ++i) l1(i, i) = 1.0;
    gemm_naive(1.0, x.view(), Op::None, l1.view(), op, 0.0, b.view());
    trsm_lower_right(l.view(), op, b.view(), unit);
    EXPECT_LT(max_abs_diff(b.view(), x.view()), 1e-9)
        << "n=" << n << " m=" << m << " unit=" << unit << " op=" << static_cast<int>(op);
  }
}

TEST(BlasFuzz, TrsmVariantsAgreeWithNaiveOracleOnStridedViews) {
  // All four triangular solves against a naive dense oracle (solve via
  // explicit inverse-free substitution on a copied matrix), on views with
  // ld > rows so the blocked paths see non-contiguous storage.
  SmallRng rng(917);
  for (int iter = 0; iter < 60; ++iter) {
    const index_t n = 1 + rng.next_index(130);
    const index_t nrhs = 1 + rng.next_index(40);
    const Op op = draw_op(rng);
    const int which = static_cast<int>(rng.next_index(3));
    Matrix t(n, n);
    const bool lower = which != 0;
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i)
        if ((lower && i >= j) || (!lower && i <= j))
          t(i, j) = 0.1 * rng.next_gaussian() + (i == j ? 4.0 : 0.0);
    const bool right = which == 2;
    EmbeddedView b(right ? nrhs : n, right ? n : nrhs, rng, 8000 + static_cast<std::uint64_t>(iter));
    Matrix b_ref = to_matrix(b.cview());
    // Naive oracle: scalar substitution on a contiguous copy.
    Matrix tt(n, n);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i) tt(i, j) = op == Op::None ? t(i, j) : t(j, i);
    if (!right) {
      // Solve op(T) X = B by scalar substitution on tt (general triangular
      // after the transpose fold: tt is upper iff (!lower) == (op==None)).
      const bool tt_lower = lower == (op == Op::None);
      for (index_t j = 0; j < nrhs; ++j) {
        if (tt_lower) {
          for (index_t i = 0; i < n; ++i) {
            real_t s = b_ref(i, j);
            for (index_t p = 0; p < i; ++p) s -= tt(i, p) * b_ref(p, j);
            b_ref(i, j) = s / tt(i, i);
          }
        } else {
          for (index_t i = n - 1; i >= 0; --i) {
            real_t s = b_ref(i, j);
            for (index_t p = i + 1; p < n; ++p) s -= tt(i, p) * b_ref(p, j);
            b_ref(i, j) = s / tt(i, i);
          }
        }
      }
    } else {
      // Solve X op(T) = B columnwise: op(T) is tt; X tt = B.
      const bool tt_lower = op == Op::None; // t is lower here (which == 2)
      if (tt_lower) {
        for (index_t i = n - 1; i >= 0; --i)
          for (index_t r = 0; r < nrhs; ++r) {
            real_t s = b_ref(r, i);
            for (index_t k = i + 1; k < n; ++k) s -= b_ref(r, k) * tt(k, i);
            b_ref(r, i) = s / tt(i, i);
          }
      } else {
        for (index_t i = 0; i < n; ++i)
          for (index_t r = 0; r < nrhs; ++r) {
            real_t s = b_ref(r, i);
            for (index_t k = 0; k < i; ++k) s -= b_ref(r, k) * tt(k, i);
            b_ref(r, i) = s / tt(i, i);
          }
      }
    }
    if (which == 0)
      trsm_upper_left(t.view(), op, b.view());
    else if (which == 1)
      trsm_lower_left(t.view(), op, b.view());
    else
      trsm_lower_right(t.view(), op, b.view());
    EXPECT_LT(max_abs_diff(b.view(), b_ref.view()), 1e-10)
        << "which=" << which << " n=" << n << " nrhs=" << nrhs << " op=" << static_cast<int>(op);
  }
}

TEST(BlasFuzz, BlockedCholeskyMatchesScalarOnLargeSystems) {
  // The blocked right-looking factorization (n > 256) against the scalar
  // kernel reached through sub-views, plus the untouched-upper contract.
  for (index_t n : {index_t{257}, index_t{300}, index_t{385}}) {
    const Matrix g = random_matrix(n, n, 5200 + static_cast<std::uint64_t>(n));
    Matrix a(n, n);
    la::gemm(1.0, g.view(), la::Op::None, g.view(), la::Op::Trans, 0.0, a.view());
    for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<real_t>(n);
    const Matrix a_orig = to_matrix(a.view());
    cholesky(a.view());
    // L L^T must reproduce A to factorization accuracy.
    Matrix l(n, n);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = j; i < n; ++i) l(i, j) = a(i, j);
    Matrix llt(n, n);
    la::gemm(1.0, l.view(), la::Op::None, l.view(), la::Op::Trans, 0.0, llt.view());
    real_t rel = 0.0;
    for (index_t j = 0; j < n; ++j)
      for (index_t i = j; i < n; ++i)
        rel = std::max(rel, std::abs(llt(i, j) - a_orig(i, j)));
    EXPECT_LT(rel / static_cast<real_t>(n), 1e-12) << "n=" << n;
    // Strict upper triangle untouched.
    for (index_t j = 1; j < n; ++j)
      for (index_t i = 0; i < j; ++i)
        ASSERT_EQ(a(i, j), a_orig(i, j)) << "upper entry touched at (" << i << "," << j << ")";
  }
}

TEST(BlasFuzz, BlockedCholeskySolveSatisfiesResidual) {
  SmallRng rng(4242);
  for (int iter = 0; iter < 20; ++iter) {
    const index_t n = 1 + rng.next_index(330);
    const index_t nrhs = 1 + rng.next_index(40);
    // SPD: G G^T + n I.
    const Matrix g = random_matrix(n, n, 6000 + static_cast<std::uint64_t>(iter));
    Matrix a(n, n);
    gemm_naive(1.0, g.view(), Op::None, g.view(), Op::Trans, 0.0, a.view());
    for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<real_t>(n);
    const Matrix a_orig = to_matrix(a.view());
    cholesky(a.view());
    const Matrix x = random_matrix(n, nrhs, 7000 + static_cast<std::uint64_t>(iter));
    Matrix b(n, nrhs);
    gemm_naive(1.0, a_orig.view(), Op::None, x.view(), Op::None, 0.0, b.view());
    cholesky_solve(a.view(), b.view());
    EXPECT_LT(max_abs_diff(b.view(), x.view()), 1e-8) << "n=" << n << " nrhs=" << nrhs;
  }
}

TEST(BlasFuzz, EmptyAndDegenerateShapes) {
  // k == 0 must still apply beta; m == 0 / n == 0 must be no-ops that don't
  // touch memory.
  Matrix a(4, 0), b(0, 3), c(4, 3);
  c.fill(2.0);
  gemm(1.0, a.view(), Op::None, b.view(), Op::None, 0.5, c.view());
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 4; ++i) EXPECT_EQ(c(i, j), 1.0);

  Matrix e0(0, 0);
  EXPECT_NO_THROW(
      gemm(1.0, e0.view(), Op::None, e0.view(), Op::None, 0.0, e0.view()));
  EXPECT_NO_THROW(trsm_upper_left(e0.view(), Op::None, e0.view()));
  EXPECT_NO_THROW(cholesky_solve(e0.view(), e0.view()));

  Matrix r1(1, 1), b1(1, 5);
  r1(0, 0) = 2.0;
  b1.fill(4.0);
  trsm_upper_left(r1.view(), Op::None, b1.view());
  for (index_t j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(b1(0, j), 2.0);
}

TEST(BlasFuzz, GemmShapeMismatchThrows) {
  Matrix a(4, 3), b(4, 5), c(4, 5);
  EXPECT_THROW(gemm_parallel(1.0, a.view(), Op::None, b.view(), Op::None, 0.0, c.view()),
               std::runtime_error);
  EXPECT_THROW(gemm_naive(1.0, a.view(), Op::None, b.view(), Op::None, 0.0, c.view()),
               std::runtime_error);
}

} // namespace
} // namespace h2sketch::la
