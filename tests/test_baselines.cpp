#include <gtest/gtest.h>

#include <cstring>

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
  EXPECT_LT(rel_fro_error(res.matrix.densify().view(), kd.view()), 1e-6);
  EXPECT_EQ(res.stats.csp, 1);
}

/// Same dims and the same bit pattern in every entry.
bool same_bits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i)
      if (std::memcmp(&a(i, j), &b(i, j), sizeof(real_t)) != 0) return false;
  return true;
}

Matrix transposed(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) t(j, i) = a(i, j);
  return t;
}

TEST(Hss, IsExactlyWeakAdmissibilityConstructH2) {
  // build_hss is Algorithm 1 under weak admissibility plus a hand-over of
  // the arenas: ranks, skeletons, generators, leaf diagonals and every B_p
  // are the weak construct_h2 build's, bit for bit, and the H2 build's
  // mirrored slot 2p+1 is exactly B_p^T -- the symmetry that lets HssMatrix
  // keep one block per sibling pair.
  auto tr = test_util::build_cube_tree(512, 1, 47, 32);
  kern::ExponentialKernel k(0.5);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  // Separate generators: entries_generated is cumulative per generator.
  kern::KernelEntryGenerator gen_hss(*tr, k), gen_h2(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-7;
  opts.sample_block = 16;
  opts.initial_samples = 32;

  kern::DenseMatrixSampler s_hss(kd.view()), s_h2(kd.view());
  auto r_hss = solver::build_hss(tr, s_hss, gen_hss, opts);
  auto r_h2 = core::construct_h2(tr, Admissibility::weak(), s_h2, gen_h2, opts);
  const solver::HssMatrix& hss = r_hss.matrix;
  const h2::H2Matrix& h2m = r_h2.matrix;

  ASSERT_GT(tr->leaf_level(), 1);
  EXPECT_EQ(hss.ranks, h2m.ranks);
  EXPECT_EQ(hss.skeleton, h2m.skeleton);
  for (index_t l = 1; l < tr->num_levels(); ++l) {
    const auto ul = static_cast<size_t>(l);
    for (index_t i = 0; i < tr->nodes_at(l); ++i)
      EXPECT_TRUE(same_bits(hss.generators[ul].host(i), h2m.basis[ul].host(i)))
          << "generator " << l << "," << i;
    for (index_t p = 0; p < tr->nodes_at(l) / 2; ++p) {
      ASSERT_EQ(h2m.mtree.far[ul].col_at(2 * p, 0), 2 * p + 1);
      ASSERT_EQ(h2m.mtree.far[ul].col_at(2 * p + 1, 0), 2 * p);
      const Matrix& b = hss.coupling[ul].host(p);
      EXPECT_TRUE(same_bits(b, h2m.coupling[ul].host(2 * p))) << "B " << l << "," << p;
      EXPECT_TRUE(same_bits(transposed(b), h2m.coupling[ul].host(2 * p + 1)))
          << "mirror " << l << "," << p;
    }
  }
  const index_t leaf = tr->leaf_level();
  for (index_t i = 0; i < tr->nodes_at(leaf); ++i)
    EXPECT_TRUE(same_bits(hss.leaf_diag.host(i), h2m.dense.host(i))) << "diagonal " << i;

  // Same run: same samples, rounds and launches. Only the memory figure
  // differs, because the H2 build stores each sibling block twice.
  EXPECT_EQ(r_hss.stats.total_samples, r_h2.stats.total_samples);
  EXPECT_EQ(r_hss.stats.sample_rounds, r_h2.stats.sample_rounds);
  EXPECT_EQ(r_hss.stats.kernel_launches, r_h2.stats.kernel_launches);
  EXPECT_EQ(r_hss.stats.csp, 1);
  EXPECT_EQ(r_hss.stats.memory_bytes, hss.memory_bytes());
  EXPECT_LT(r_hss.stats.memory_bytes, r_h2.stats.memory_bytes);
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
