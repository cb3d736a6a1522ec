#include "core/construction.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hpp"
#include "core/error_est.hpp"
#include "h2/cheb_construction.hpp"
#include "h2/h2_dense.hpp"
#include "h2/h2_entry_eval.hpp"
#include "h2/h2_matvec.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/kernels.hpp"
#include "la/blas.hpp"
#include "la/svd.hpp"
#include "test_common.hpp"

namespace h2sketch::core {
namespace {

using tree::Admissibility;
using tree::ClusterTree;
using test_util::dense_kernel_matrix;
using test_util::rel_fro_error;

struct BuildCase {
  index_t n;
  index_t dim;
  index_t leaf;
  real_t eta;
  int kernel; ///< 0 = exponential, 1 = helmholtz, 2 = matern
  real_t tol;
  std::uint64_t seed;
};

std::unique_ptr<kern::KernelFunction> make_kernel(int id) {
  switch (id) {
    case 1: return std::make_unique<kern::HelmholtzCosKernel>(3.0);
    case 2: return std::make_unique<kern::Matern32Kernel>(0.3);
    default: return std::make_unique<kern::ExponentialKernel>(0.2);
  }
}

class SketchBuild : public ::testing::TestWithParam<BuildCase> {
 protected:
  void SetUp() override {
    const auto p = GetParam();
    tree_ = test_util::build_cube_tree(p.n, p.dim, p.seed, p.leaf);
    kernel_ = make_kernel(p.kernel);
    kd_ = dense_kernel_matrix(*tree_, *kernel_);
  }
  std::shared_ptr<ClusterTree> tree_;
  std::unique_ptr<kern::KernelFunction> kernel_;
  Matrix kd_;
};

TEST_P(SketchBuild, ReachesToleranceAgainstDenseTruth) {
  const auto p = GetParam();
  kern::DenseMatrixSampler sampler(kd_.view());
  kern::KernelEntryGenerator gen(*tree_, *kernel_);
  ConstructionOptions opts;
  opts.tol = p.tol;
  opts.sample_block = 32;
  opts.initial_samples = 64;
  auto res = construct_h2(tree_, Admissibility::general(p.eta), sampler, gen, opts);
  res.matrix.validate();
  ASSERT_TRUE(res.matrix.mtree.has_any_far()) << "test config exercises nothing";
  const Matrix ad = h2::densify(res.matrix);
  const real_t err = rel_fro_error(ad.view(), kd_.view());
  EXPECT_LT(err, 30.0 * p.tol) << res.stats.summary();
  EXPECT_EQ(res.stats.total_samples, sampler.samples_taken());
  EXPECT_EQ(res.stats.nonconverged_nodes, 0);
}

TEST_P(SketchBuild, SkeletonIndicesLieInTheirClusters) {
  const auto p = GetParam();
  kern::DenseMatrixSampler sampler(kd_.view());
  kern::KernelEntryGenerator gen(*tree_, *kernel_);
  ConstructionOptions opts;
  opts.tol = p.tol;
  auto res = construct_h2(tree_, Admissibility::general(p.eta), sampler, gen, opts);
  const auto& a = res.matrix;
  for (index_t l = 0; l < a.num_levels(); ++l)
    for (index_t i = 0; i < tree_->nodes_at(l); ++i)
      for (index_t s : a.skeleton[static_cast<size_t>(l)][static_cast<size_t>(i)]) {
        EXPECT_GE(s, tree_->begin(l, i));
        EXPECT_LT(s, tree_->end(l, i));
      }
}

TEST_P(SketchBuild, CouplingBlocksAreExactKernelEntries) {
  const auto p = GetParam();
  kern::DenseMatrixSampler sampler(kd_.view());
  kern::KernelEntryGenerator gen(*tree_, *kernel_);
  ConstructionOptions opts;
  opts.tol = p.tol;
  auto res = construct_h2(tree_, Admissibility::general(p.eta), sampler, gen, opts);
  const auto& a = res.matrix;
  for (index_t l = 0; l < a.num_levels(); ++l) {
    const auto& far = a.mtree.far[static_cast<size_t>(l)];
    for (index_t r = 0; r < tree_->nodes_at(l); ++r)
      for (index_t j = 0; j < far.row_count(r); ++j) {
        const index_t e = far.row_ptr[static_cast<size_t>(r)] + j;
        const index_t c = far.col_at(r, j);
        const Matrix& b = a.coupling[static_cast<size_t>(l)].host(e);
        const auto& rs = a.skeleton[static_cast<size_t>(l)][static_cast<size_t>(r)];
        const auto& cs = a.skeleton[static_cast<size_t>(l)][static_cast<size_t>(c)];
        for (index_t jj = 0; jj < b.cols(); ++jj)
          for (index_t ii = 0; ii < b.rows(); ++ii)
            EXPECT_DOUBLE_EQ(b(ii, jj),
                             kd_(rs[static_cast<size_t>(ii)], cs[static_cast<size_t>(jj)]));
      }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsEtaSizes, SketchBuild,
    ::testing::Values(BuildCase{400, 2, 16, 0.7, 0, 1e-6, 1},
                      BuildCase{400, 2, 16, 0.7, 1, 1e-6, 2},
                      BuildCase{512, 3, 8, 0.9, 0, 1e-6, 3},
                      BuildCase{300, 2, 16, 0.7, 2, 1e-8, 4},
                      BuildCase{700, 3, 32, 0.9, 0, 1e-4, 5},
                      BuildCase{513, 2, 32, 0.9, 0, 1e-6, 6}));

TEST(SketchConstruction, BackendsProduceIdenticalMatrices) {
  auto tr = test_util::build_cube_tree(300, 2, 11, 16);
  kern::ExponentialKernel k(0.2);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions opts;
  opts.tol = 1e-6;

  kern::DenseMatrixSampler s1(kd.view()), s2(kd.view());
  batched::ExecutionContext cb(batched::Backend::Batched), cn(batched::Backend::Naive);
  auto rb = construct_h2(tr, Admissibility::general(0.7), s1, gen, opts, cb);
  auto rn = construct_h2(tr, Admissibility::general(0.7), s2, gen, opts, cn);

  // The counter-based RNG and identical arithmetic order inside each batch
  // entry make the two backends bit-identical.
  const Matrix db = h2::densify(rb.matrix), dn = h2::densify(rn.matrix);
  EXPECT_EQ(max_abs_diff(db.view(), dn.view()), 0.0);
  // The batched backend needs far fewer kernel launches.
  EXPECT_LT(rb.stats.kernel_launches * 5, rn.stats.kernel_launches);
}

TEST(SketchConstruction, FixedSampleModeMatchesPaperVariant) {
  auto tr = test_util::build_cube_tree(400, 2, 12, 16);
  kern::ExponentialKernel k(0.2);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions opts;
  opts.tol = 1e-6;
  opts.adaptive = false;
  opts.initial_samples = 128;
  auto res = construct_h2(tr, Admissibility::general(0.7), sampler, gen, opts);
  ASSERT_TRUE(res.matrix.mtree.has_any_far());
  EXPECT_EQ(res.stats.total_samples, 128);
  EXPECT_EQ(res.stats.sample_rounds, 1);
  EXPECT_LT(rel_fro_error(h2::densify(res.matrix).view(), kd.view()), 1e-5);
}

TEST(SketchConstruction, AdaptiveAddsRoundsWhenBlockIsSmall) {
  auto tr = test_util::build_cube_tree(800, 2, 64, 32);
  kern::ExponentialKernel k(0.3);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions opts;
  opts.tol = 1e-8;
  opts.sample_block = 8;
  opts.initial_samples = 8;
  auto res = construct_h2(tr, Admissibility::general(0.7), sampler, gen, opts);
  ASSERT_TRUE(res.matrix.mtree.has_any_far());
  EXPECT_GT(res.stats.sample_rounds, 1);
  EXPECT_GT(res.stats.total_samples, 8);
  EXPECT_LT(rel_fro_error(h2::densify(res.matrix).view(), kd.view()), 1e-6);
}

TEST(SketchConstruction, SampleCapCountsEveryNonConvergedNode) {
  // No room for a second round at tol 1e-12: every node still failing the
  // probe when the cap stops the loop is counted, so the count exceeds the
  // number of levels (a per-level count could not).
  auto tr = test_util::build_cube_tree(800, 2, 64, 32);
  kern::ExponentialKernel k(0.3);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions opts;
  opts.tol = 1e-12;
  opts.sample_block = 8;
  opts.initial_samples = 8;
  opts.max_samples = 8;
  auto res = construct_h2(tr, Admissibility::general(0.7), sampler, gen, opts);
  ASSERT_TRUE(res.matrix.mtree.has_any_far());
  EXPECT_EQ(res.stats.sample_rounds, 1);
  EXPECT_GT(res.stats.nonconverged_nodes, tr->num_levels());
}

TEST(SketchConstruction, WeakAdmissibilityGivesHssBehaviour) {
  // Algorithm 1 under weak admissibility is Martinsson's HSS construction;
  // 1D geometry keeps HSS ranks small.
  auto tr = test_util::build_cube_tree(512, 1, 13, 32);
  kern::ExponentialKernel k(0.5);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions opts;
  opts.tol = 1e-8;
  opts.sample_block = 16;
  opts.initial_samples = 32;
  auto res = construct_h2(tr, Admissibility::weak(), sampler, gen, opts);
  EXPECT_LT(rel_fro_error(h2::densify(res.matrix).view(), kd.view()), 1e-6);
  EXPECT_EQ(res.matrix.mtree.csp(), 1);
}

TEST(SketchConstruction, FullyDenseTinyProblemNeedsNoSamples) {
  auto tr = test_util::build_cube_tree(50, 3, 14, 64);
  kern::ExponentialKernel k(0.2);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions opts;
  auto res = construct_h2(tr, Admissibility::general(0.7), sampler, gen, opts);
  EXPECT_EQ(sampler.samples_taken(), 0); // nothing to sketch
  EXPECT_LT(max_abs_diff(h2::densify(res.matrix).view(), kd.view()), 1e-14);
}

TEST(SketchConstruction, ReconstructsAnH2OperatorThroughItsOwnSampler) {
  // The paper's actual pipeline: the black box is a fast H2 matvec (here the
  // Chebyshev-built operator) and entries come from the same representation;
  // the sketched reconstruction must match that operator, with much smaller
  // adaptive ranks than the uniform Chebyshev rank.
  auto tr = test_util::build_cube_tree(800, 2, 15, 32);
  kern::ExponentialKernel k(0.2);
  const h2::H2Matrix cheb =
      h2::build_cheb_h2(tr, Admissibility::general(0.7), k, /*q=*/5); // rank 25
  h2::H2Sampler sampler(cheb);
  h2::H2EntryGenerator gen(cheb);
  ConstructionOptions opts;
  opts.tol = 1e-6;
  opts.initial_samples = 96;
  opts.sample_block = 32;
  auto res = construct_h2(tr, Admissibility::general(0.7), sampler, gen, opts);
  ASSERT_TRUE(res.matrix.mtree.has_any_far());

  const Matrix cd = h2::densify(cheb);
  const Matrix rd = h2::densify(res.matrix);
  EXPECT_LT(rel_fro_error(rd.view(), cd.view()), 1e-4);
  EXPECT_LE(res.matrix.max_rank(), 25); // adaptive ranks <= Chebyshev rank
}

TEST(ErrorEstimator, PowerMethodMatchesSvdNorm) {
  Matrix a(60, 60);
  SmallRng rng(16);
  for (index_t j = 0; j < 60; ++j)
    for (index_t i = 0; i <= j; ++i) {
      a(i, j) = rng.next_gaussian();
      a(j, i) = a(i, j);
    }
  kern::DenseMatrixSampler sa(a.view());
  const real_t est = norm2_estimate(sa, 60);
  // Symmetric matrix: 2-norm = max |eigenvalue|; compare against Jacobi SVD.
  const auto svd = la::jacobi_svd(a.view());
  EXPECT_NEAR(est, svd.sigma[0], 0.05 * svd.sigma[0]);
}

TEST(ErrorEstimator, IdenticalOperatorsHaveZeroError) {
  Matrix a(30, 30);
  SmallRng rng(17);
  for (index_t j = 0; j < 30; ++j)
    for (index_t i = 0; i <= j; ++i) {
      a(i, j) = rng.next_gaussian();
      a(j, i) = a(i, j);
    }
  kern::DenseMatrixSampler s1(a.view()), s2(a.view());
  EXPECT_LT(relative_error_2norm(s1, s2, 10), 1e-14);
}

} // namespace
} // namespace h2sketch::core
