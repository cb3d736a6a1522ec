#include "la/blas.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.hpp"
#include "la/gemm_engine.hpp"
#include "test_common.hpp"

namespace h2sketch::la {
namespace {

using test_util::random_matrix;

// Scalar reference for C = alpha op(A) op(B) + beta C.
Matrix ref_gemm(real_t alpha, const Matrix& a, Op oa, const Matrix& b, Op ob, real_t beta,
                const Matrix& c) {
  const index_t m = oa == Op::None ? a.rows() : a.cols();
  const index_t k = oa == Op::None ? a.cols() : a.rows();
  const index_t n = ob == Op::None ? b.cols() : b.rows();
  Matrix out(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      real_t s = 0;
      for (index_t p = 0; p < k; ++p) {
        const real_t av = oa == Op::None ? a(i, p) : a(p, i);
        const real_t bv = ob == Op::None ? b(p, j) : b(j, p);
        s += av * bv;
      }
      out(i, j) = alpha * s + beta * c(i, j);
    }
  return out;
}

struct GemmCase {
  index_t m, n, k;
  Op oa, ob;
  real_t alpha, beta;
};

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesScalarReference) {
  const auto p = GetParam();
  const Matrix a = p.oa == Op::None ? random_matrix(p.m, p.k, 1) : random_matrix(p.k, p.m, 1);
  const Matrix b = p.ob == Op::None ? random_matrix(p.k, p.n, 2) : random_matrix(p.n, p.k, 2);
  Matrix c = random_matrix(p.m, p.n, 3);
  const Matrix expected = ref_gemm(p.alpha, a, p.oa, b, p.ob, p.beta, c);
  gemm(p.alpha, a.view(), p.oa, b.view(), p.ob, p.beta, c.view());
  EXPECT_LT(max_abs_diff(c.view(), expected.view()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpCombosAndShapes, GemmTest,
    ::testing::Values(GemmCase{5, 7, 3, Op::None, Op::None, 1.0, 0.0},
                      GemmCase{5, 7, 3, Op::Trans, Op::None, 1.0, 0.0},
                      GemmCase{5, 7, 3, Op::None, Op::Trans, 1.0, 0.0},
                      GemmCase{5, 7, 3, Op::Trans, Op::Trans, 1.0, 0.0},
                      GemmCase{8, 8, 8, Op::None, Op::None, -2.0, 1.5},
                      GemmCase{1, 9, 4, Op::Trans, Op::Trans, 0.5, -1.0},
                      GemmCase{13, 1, 6, Op::None, Op::Trans, 2.0, 1.0},
                      GemmCase{4, 4, 1, Op::Trans, Op::None, 1.0, 1.0},
                      GemmCase{16, 11, 9, Op::None, Op::None, 3.0, 0.25}));

TEST(Gemm, ZeroInnerDimensionScalesByBeta) {
  Matrix a(4, 0), b(0, 3);
  Matrix c(4, 3);
  c.fill(2.0);
  gemm(1.0, a.view(), Op::None, b.view(), Op::None, 0.5, c.view());
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 4; ++i) EXPECT_EQ(c(i, j), 1.0);
}

TEST(Gemm, NanAndInfPropagateOnEveryPath) {
  // IEEE propagation is the contract of every path: a NaN or Inf in op(A)
  // reaches C even where the matching row of op(B) is zero (0 * Inf and
  // 0 * NaN are NaN). BLAS's two exceptions hold too: alpha == 0 reads
  // neither A nor B, and beta == 0 does not read C.
  using GemmFn = void (*)(real_t, ConstMatrixView, Op, ConstMatrixView, Op, real_t, MatrixView);
  const std::pair<const char*, GemmFn> paths[] = {
      {"gemm_naive", gemm_naive}, {"la::gemm", gemm}, {"la::gemm_parallel", gemm_parallel}};
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  const real_t inf = std::numeric_limits<real_t>::infinity();
  // Row tails and staged inner dimensions; the second shape spans two of
  // gemm_parallel's row panels.
  struct Shape { index_t m, n, k, p0; };
  for (const Shape sh : {Shape{37, 11, 9, 4}, Shape{130, 130, 130, 77}}) {
    for (Op oa : {Op::None, Op::Trans})
      for (Op ob : {Op::None, Op::Trans}) {
        // op(A)(i, p0) is NaN for even i, Inf for odd i; op(B)(p0, :) = 0.
        Matrix a = oa == Op::None ? random_matrix(sh.m, sh.k, 1) : random_matrix(sh.k, sh.m, 1);
        Matrix b = ob == Op::None ? random_matrix(sh.k, sh.n, 2) : random_matrix(sh.n, sh.k, 2);
        for (index_t i = 0; i < sh.m; ++i)
          (oa == Op::None ? a(i, sh.p0) : a(sh.p0, i)) = i % 2 == 0 ? nan : inf;
        for (index_t j = 0; j < sh.n; ++j) (ob == Op::None ? b(sh.p0, j) : b(j, sh.p0)) = 0.0;
        for (const auto& [name, fn] : paths) {
          const auto where = [&] {
            return ::testing::Message() << name << " m=" << sh.m << " oa=" << static_cast<int>(oa)
                                        << " ob=" << static_cast<int>(ob);
          };
          // beta == 0 clears a NaN-filled C without reading it; A's
          // non-finite column still poisons every entry.
          Matrix c(sh.m, sh.n);
          c.fill(nan);
          fn(1.0, a.view(), oa, b.view(), ob, 0.0, c.view());
          for (index_t j = 0; j < sh.n; ++j)
            for (index_t i = 0; i < sh.m; ++i)
              ASSERT_TRUE(std::isnan(c(i, j))) << where() << " at (" << i << "," << j << ")";
          // alpha == 0 reads neither A nor B: C = beta * C exactly.
          Matrix c0 = random_matrix(sh.m, sh.n, 3);
          const Matrix c0_before = to_matrix(c0.view());
          fn(0.0, a.view(), oa, b.view(), ob, 0.5, c0.view());
          for (index_t j = 0; j < sh.n; ++j)
            for (index_t i = 0; i < sh.m; ++i)
              ASSERT_EQ(c0(i, j), 0.5 * c0_before(i, j)) << where();
        }
      }
  }
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(4, 3), b(4, 5), c(4, 5);
  EXPECT_THROW(gemm(1.0, a.view(), Op::None, b.view(), Op::None, 0.0, c.view()),
               std::runtime_error);
}

TEST(Gemm, StridedViewsWork) {
  Matrix big_a = random_matrix(8, 8, 4);
  Matrix big_b = random_matrix(8, 8, 5);
  Matrix c(3, 3);
  const Matrix a_copy = to_matrix(big_a.block(2, 1, 3, 4));
  const Matrix b_copy = to_matrix(big_b.block(0, 3, 4, 3));
  Matrix expect(3, 3);
  gemm(1.0, a_copy.view(), Op::None, b_copy.view(), Op::None, 0.0, expect.view());
  gemm(1.0, big_a.block(2, 1, 3, 4), Op::None, big_b.block(0, 3, 4, 3), Op::None, 0.0, c.view());
  EXPECT_LT(max_abs_diff(c.view(), expect.view()), 1e-14);
}

TEST(Gemv, MatchesGemm) {
  Matrix a = random_matrix(6, 4, 6);
  std::vector<real_t> x = {1, -2, 3, 0.5};
  std::vector<real_t> y(6, 1.0);
  std::vector<real_t> y2 = y;
  gemv(2.0, a.view(), Op::None, x, 3.0, y);
  for (index_t i = 0; i < 6; ++i) {
    real_t s = 0;
    for (index_t j = 0; j < 4; ++j) s += a(i, j) * x[static_cast<size_t>(j)];
    EXPECT_NEAR(y[static_cast<size_t>(i)], 2.0 * s + 3.0 * y2[static_cast<size_t>(i)], 1e-13);
  }
}

TEST(Gemv, TransposedMatchesManual) {
  Matrix a = random_matrix(3, 5, 7);
  std::vector<real_t> x = {1, 2, 3};
  std::vector<real_t> y(5, 0.0);
  gemv(1.0, a.view(), Op::Trans, x, 0.0, y);
  for (index_t j = 0; j < 5; ++j) {
    real_t s = 0;
    for (index_t i = 0; i < 3; ++i) s += a(i, j) * x[static_cast<size_t>(i)];
    EXPECT_NEAR(y[static_cast<size_t>(j)], s, 1e-13);
  }
}

TEST(Trsm, SolvesUpperTriangularSystems) {
  Matrix r(4, 4);
  SmallRng rng(8);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i <= j; ++i) r(i, j) = rng.next_gaussian() + (i == j ? 4.0 : 0.0);
  const Matrix x = random_matrix(4, 3, 9);
  Matrix b(4, 3);
  gemm(1.0, r.view(), Op::None, x.view(), Op::None, 0.0, b.view());
  trsm_upper_left(r.view(), Op::None, b.view());
  EXPECT_LT(max_abs_diff(b.view(), x.view()), 1e-10);
}

TEST(Trsm, TransposedSolve) {
  Matrix r(4, 4);
  SmallRng rng(10);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i <= j; ++i) r(i, j) = rng.next_gaussian() + (i == j ? 4.0 : 0.0);
  const Matrix x = random_matrix(4, 2, 11);
  Matrix b(4, 2);
  gemm(1.0, r.view(), Op::Trans, x.view(), Op::None, 0.0, b.view());
  trsm_upper_left(r.view(), Op::Trans, b.view());
  EXPECT_LT(max_abs_diff(b.view(), x.view()), 1e-10);
}

TEST(Trsm, UnitDiagonalIgnoresStoredDiagonal) {
  Matrix r(3, 3);
  r(0, 0) = 99;  // ignored
  r(0, 1) = 2;
  r(1, 1) = 99;
  r(1, 2) = -1;
  r(2, 2) = 99;
  Matrix b(3, 1);
  b(0, 0) = 5;
  b(1, 0) = 1;
  b(2, 0) = 2;
  trsm_upper_left(r.view(), Op::None, b.view(), /*unit_diag=*/true);
  EXPECT_NEAR(b(2, 0), 2.0, 1e-15);
  EXPECT_NEAR(b(1, 0), 1.0 + 2.0, 1e-15);
  EXPECT_NEAR(b(0, 0), 5.0 - 2.0 * 3.0, 1e-15);
}

TEST(Norms, FrobeniusAndVector) {
  Matrix a(2, 2);
  a(0, 0) = 3;
  a(1, 1) = 4;
  EXPECT_DOUBLE_EQ(norm_f(a.view()), 5.0);
  std::vector<real_t> x = {3, 4};
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
}

TEST(VectorOps, DotAxpyScale) {
  std::vector<real_t> x = {1, 2, 3};
  std::vector<real_t> y = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  scale(0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
}

} // namespace
} // namespace h2sketch::la
