#include <gtest/gtest.h>

#include "baselines/peeling_hodlr.hpp"
#include "baselines/topdown.hpp"
#include "common/random.hpp"
#include "core/construction.hpp"
#include "h2/h2_dense.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/kernels.hpp"
#include "la/blas.hpp"
#include "solver/hss_construction.hpp"
#include "test_common.hpp"

namespace h2sketch::baselines {
namespace {

using tree::Admissibility;
using tree::ClusterTree;
using test_util::dense_kernel_matrix;
using test_util::rel_fro_error;

TEST(TopDownHMatrix, StrongAdmissibilityReconstruction) {
  auto tr = test_util::build_cube_tree(500, 2, 41, 32);
  kern::ExponentialKernel k(0.2);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  TopDownOptions opts;
  opts.tol = 1e-6;
  auto res = build_topdown_hmatrix(tr, Admissibility::general(0.7), sampler, opts);
  ASSERT_TRUE(res.matrix.mtree.has_any_far());
  EXPECT_LT(rel_fro_error(res.matrix.densify().view(), kd.view()), 1e-4);
  EXPECT_FALSE(res.stats.rank_cap_hit);
  EXPECT_GT(res.stats.total_samples, 0);
  EXPECT_EQ(res.stats.total_samples, sampler.samples_taken());
}

TEST(TopDownHMatrix, MatvecMatchesDensify) {
  auto tr = test_util::build_cube_tree(400, 2, 42, 32);
  kern::Matern32Kernel k(0.3);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  TopDownOptions opts;
  opts.tol = 1e-8;
  auto res = build_topdown_hmatrix(tr, Admissibility::general(0.7), sampler, opts);
  const Matrix hd = res.matrix.densify();
  Matrix x(400, 3), y(400, 3), ref(400, 3);
  fill_gaussian(x.view(), GaussianStream(43));
  res.matrix.matvec(x.view(), y.view());
  la::gemm(1.0, hd.view(), la::Op::None, x.view(), la::Op::None, 0.0, ref.view());
  EXPECT_LT(max_abs_diff(y.view(), ref.view()), 1e-10 * la::norm_f(hd.view()));
}

TEST(PeelingHodlr, WeakAdmissibilityReconstruction1D) {
  auto tr = test_util::build_cube_tree(512, 1, 44, 32);
  kern::ExponentialKernel k(0.5);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  TopDownOptions opts;
  opts.tol = 1e-7;
  auto res = build_peeling_hodlr(tr, sampler, opts);
  EXPECT_LT(rel_fro_error(res.matrix.densify().view(), kd.view()), 1e-5);
  // HODLR coloring needs exactly two colors for the off-diagonal levels.
  EXPECT_LE(res.stats.max_colors, 2);
}

TEST(PeelingHodlr, SampleCountGrowsWithNFor3DKernels) {
  // The H2Opus-failure mechanism: HODLR ranks of a 3D kernel grow with N,
  // so the top-down sample count grows while Algorithm 1 stays flat.
  kern::ExponentialKernel k(0.2);
  index_t prev_samples = 0;
  for (index_t n : {256, 512, 1024}) {
    auto tr = test_util::build_cube_tree(n, 3, 45, 32);
    const Matrix kd = dense_kernel_matrix(*tr, k);
    kern::DenseMatrixSampler sampler(kd.view());
    TopDownOptions opts;
    opts.tol = 1e-6;
    auto res = build_peeling_hodlr(tr, sampler, opts);
    EXPECT_GE(res.stats.total_samples, prev_samples);
    prev_samples = res.stats.total_samples;
  }
  EXPECT_GT(prev_samples, 256); // already above Algorithm 1's flat budget
}

TEST(TopDownHMatrix, RankCapFlagsNonConvergence) {
  auto tr = test_util::build_cube_tree(512, 3, 46, 32);
  kern::ExponentialKernel k(0.2);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  TopDownOptions opts;
  opts.tol = 1e-10;
  opts.max_block_rank = 8; // absurdly small cap
  auto res = build_peeling_hodlr(tr, sampler, opts);
  EXPECT_TRUE(res.stats.rank_cap_hit);
}

TEST(Hss, WeakAdmissibilityViaAlgorithmOne) {
  auto tr = test_util::build_cube_tree(512, 1, 47, 32);
  kern::ExponentialKernel k(0.5);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-8;
  opts.sample_block = 16;
  opts.initial_samples = 32;
  auto res = solver::build_hss(tr, sampler, gen, opts);
  EXPECT_LT(rel_fro_error(h2::densify(res.matrix).view(), kd.view()), 1e-6);
  EXPECT_EQ(res.stats.csp, 1);
}

TEST(Hss, BottomUpNeedsFarFewerSamplesThanTopDownPeeling) {
  // Same operator, same weak-admissibility format: Algorithm 1 (bottom-up)
  // vs the top-down peeling construction. Bottom-up samples once for all
  // levels; peeling pays per level.
  auto tr = test_util::build_cube_tree(1024, 1, 48, 32);
  kern::ExponentialKernel k(0.5);
  const Matrix kd = dense_kernel_matrix(*tr, k);

  kern::DenseMatrixSampler s_bu(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  core::ConstructionOptions bu;
  bu.tol = 1e-6;
  bu.sample_block = 16;
  bu.initial_samples = 32;
  auto r_bu = solver::build_hss(tr, s_bu, gen, bu);

  kern::DenseMatrixSampler s_td(kd.view());
  TopDownOptions td;
  td.tol = 1e-6;
  td.sample_block = 16;
  auto r_td = build_peeling_hodlr(tr, s_td, td);

  EXPECT_LT(r_bu.stats.total_samples, r_td.stats.total_samples);
}

} // namespace
} // namespace h2sketch::baselines
