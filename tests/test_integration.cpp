#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hpp"
#include "core/construction.hpp"
#include "core/error_est.hpp"
#include "h2/cheb_construction.hpp"
#include "h2/h2_dense.hpp"
#include "h2/h2_entry_eval.hpp"
#include "h2/h2_matvec.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/kernels.hpp"
#include "la/blas.hpp"
#include "test_common.hpp"

/// End-to-end pipeline tests at sizes where O(N^2) oracles are avoided, plus
/// determinism, configuration knobs and failure-injection cases.

namespace h2sketch {
namespace {

using core::ConstructionOptions;
using tree::Admissibility;
using tree::ClusterTree;

TEST(Integration, FullPipelineMatvecAgreesWithInputOperator) {
  // Chebyshev input -> sketching reconstruction -> compare matvecs only
  // (no densify), so this runs at N beyond the dense-oracle tests.
  const index_t n = 6000;
  auto tr = test_util::build_cube_tree(n, 3, 61, 32);
  kern::ExponentialKernel k(0.2);
  const h2::H2Matrix input = h2::build_cheb_h2(tr, Admissibility::general(0.9), k, 3);
  h2::H2Sampler sampler(input);
  h2::H2EntryGenerator gen(input);
  ConstructionOptions opts;
  opts.tol = 1e-7;
  opts.initial_samples = 96;
  opts.sample_block = 32;
  auto res = core::construct_h2(tr, Admissibility::general(0.9), sampler, gen, opts);

  Matrix x(n, 2), y1(n, 2), y2(n, 2);
  fill_gaussian(x.view(), GaussianStream(62));
  h2::h2_matvec(input, x.view(), y1.view());
  h2::h2_matvec(res.matrix, x.view(), y2.view());
  real_t diff = 0, ref = 0;
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < n; ++i) {
      diff += (y1(i, j) - y2(i, j)) * (y1(i, j) - y2(i, j));
      ref += y1(i, j) * y1(i, j);
    }
  EXPECT_LT(std::sqrt(diff / ref), 1e-5);
}

/// Largest difference between each whole near and far block of `a`, as
/// H2EntryGenerator evaluates it, and the same block of densify(a). The
/// blocks are evaluated before anything else reads the arenas' host mirrors,
/// so the first evaluations download them cold.
real_t whole_block_error(const h2::H2Matrix& a) {
  const tree::ClusterTree& t = *a.tree;
  struct Block {
    std::vector<index_t> rows, cols;
    Matrix out;
  };
  std::vector<Block> blocks;
  const auto add_blocks = [&](index_t l, const tree::LevelBlockList& list) {
    for (index_t r = 0; r < t.nodes_at(l); ++r)
      for (index_t j = 0; j < list.row_count(r); ++j) {
        Block b{test_util::node_positions(t, l, r), test_util::node_positions(t, l, list.col_at(r, j)),
                Matrix()};
        b.out.resize(static_cast<index_t>(b.rows.size()), static_cast<index_t>(b.cols.size()));
        blocks.push_back(std::move(b));
      }
  };
  add_blocks(t.leaf_level(), a.mtree.near_leaf);
  for (index_t l = 0; l < t.num_levels(); ++l) add_blocks(l, a.mtree.far[static_cast<size_t>(l)]);
  const h2::H2EntryGenerator eg(a);
  for (Block& b : blocks) eg.generate_block(b.rows, b.cols, b.out.view());

  const Matrix dense = h2::densify(a);
  real_t err = 0.0;
  for (const Block& b : blocks)
    err = std::max(err, test_util::block_error(b.out.view(), dense.view(), b.rows, b.cols));
  return err;
}

TEST(Integration, EntryEvalOfSketchBuiltMatrixMatchesDensify) {
  // The constructed H2 has non-uniform, possibly zero ranks; its entry
  // generator must still reproduce every entry.
  auto tr = test_util::build_cube_tree(600, 2, 63, 16);
  kern::Matern32Kernel k(0.3);
  kern::KernelMatVecSampler sampler(*tr, k);
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions opts;
  opts.tol = 1e-8;
  auto res = core::construct_h2(tr, Admissibility::general(0.7), sampler, gen, opts);
  ASSERT_TRUE(res.matrix.mtree.has_any_far());
  EXPECT_LE(whole_block_error(res.matrix), test_util::kEntryTol);

  const Matrix dense = h2::densify(res.matrix);
  h2::H2EntryGenerator eg(res.matrix);
  SmallRng rng(64);
  for (int t = 0; t < 300; ++t) {
    const index_t i = rng.next_index(600), j = rng.next_index(600);
    EXPECT_NEAR(eg.entry(i, j), dense(i, j), test_util::kEntryTol);
  }
}

TEST(Integration, ConstructionIsDeterministicAcrossRuns) {
  auto tr = test_util::build_cube_tree(500, 2, 65, 16);
  kern::ExponentialKernel k(0.2);
  kern::KernelMatVecSampler s1(*tr, k), s2(*tr, k);
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions opts;
  opts.tol = 1e-6;
  auto r1 = core::construct_h2(tr, Admissibility::general(0.7), s1, gen, opts);
  auto r2 = core::construct_h2(tr, Admissibility::general(0.7), s2, gen, opts);
  EXPECT_EQ(max_abs_diff(h2::densify(r1.matrix).view(), h2::densify(r2.matrix).view()), 0.0);
  EXPECT_EQ(r1.stats.total_samples, r2.stats.total_samples);
}

TEST(Integration, SeedChangesSamplesButNotQuality) {
  auto tr = test_util::build_cube_tree(500, 2, 66, 16);
  kern::ExponentialKernel k(0.2);
  kern::KernelMatVecSampler s1(*tr, k), s2(*tr, k);
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions o1, o2;
  o1.tol = o2.tol = 1e-7;
  o2.seed = o1.seed + 1;
  auto r1 = core::construct_h2(tr, Admissibility::general(0.7), s1, gen, o1);
  auto r2 = core::construct_h2(tr, Admissibility::general(0.7), s2, gen, o2);
  // Different random sketches, same operator: both meet the tolerance.
  kern::KernelMatVecSampler exact(*tr, k);
  h2::H2Sampler a1(r1.matrix), a2(r2.matrix);
  EXPECT_LT(core::relative_error_2norm(exact, a1, 10), 1e-5);
  kern::KernelMatVecSampler exact2(*tr, k);
  EXPECT_LT(core::relative_error_2norm(exact2, a2, 10), 1e-5);
}

TEST(Integration, GivenNormEstimateIsHonored) {
  auto tr = test_util::build_cube_tree(400, 2, 67, 16);
  kern::ExponentialKernel k(0.2);
  kern::KernelMatVecSampler sampler(*tr, k);
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions opts;
  opts.tol = 1e-6;
  opts.norm_est = core::NormEstimate::Given;
  opts.given_norm = 123.0;
  auto res = core::construct_h2(tr, Admissibility::general(0.7), sampler, gen, opts);
  EXPECT_DOUBLE_EQ(res.stats.norm_estimate, 123.0);
}

TEST(Integration, TighterIdToleranceFactorRaisesRanks) {
  auto tr = test_util::build_cube_tree(600, 2, 68, 16);
  kern::ExponentialKernel k(0.2);
  kern::KernelMatVecSampler s1(*tr, k), s2(*tr, k);
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions loose, tight;
  loose.tol = tight.tol = 1e-6;
  tight.id_tol_factor = 1e-2; // the error-compensation knob
  auto r_loose = core::construct_h2(tr, Admissibility::general(0.7), s1, gen, loose);
  auto r_tight = core::construct_h2(tr, Admissibility::general(0.7), s2, gen, tight);
  EXPECT_GE(r_tight.stats.max_rank, r_loose.stats.max_rank);
}

TEST(Integration, HugeToleranceYieldsTinyRanksButValidStructure) {
  auto tr = test_util::build_cube_tree(500, 2, 69, 16);
  kern::ExponentialKernel k(0.2);
  kern::KernelMatVecSampler sampler(*tr, k);
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions opts;
  opts.tol = 0.5; // absurdly loose
  auto res = core::construct_h2(tr, Admissibility::general(0.7), sampler, gen, opts);
  res.matrix.validate();
  EXPECT_LE(res.stats.max_rank, 8);
  // Matvec still runs (rank-0 nodes everywhere).
  Matrix x(500, 1), y(500, 1);
  fill_gaussian(x.view(), GaussianStream(70));
  EXPECT_NO_THROW(h2::h2_matvec(res.matrix, x.view(), y.view()));
  // Far blocks with a rank-0 side: block evaluation runs its gemms with k = 0.
  ASSERT_EQ(res.matrix.min_rank(), 0);
  EXPECT_LE(whole_block_error(res.matrix), test_util::kEntryTol);
}

TEST(Integration, SamplerSizeMismatchThrows) {
  auto tr = test_util::build_cube_tree(100, 2, 71, 16);
  Matrix wrong(50, 50);
  kern::DenseMatrixSampler sampler(wrong.view());
  kern::KernelEntryGenerator gen(*tr, kern::ExponentialKernel(0.2));
  // Temporary kernel object above would dangle; use a named one instead.
  kern::ExponentialKernel k(0.2);
  kern::KernelEntryGenerator gen2(*tr, k);
  ConstructionOptions opts;
  EXPECT_THROW(core::construct_h2(tr, Admissibility::general(0.7), sampler, gen2, opts),
               std::runtime_error);
}

TEST(Integration, DuplicatePointsCompressFine) {
  // Coincident points produce zero-diameter boxes and rank-1-ish blocks.
  geo::PointCloud pc(300, 2);
  SmallRng rng(72);
  for (index_t i = 0; i < 300; ++i) {
    const real_t x = (i % 30) / 30.0, y = (i / 30 % 10) / 10.0; // heavy duplication
    pc.coord(i, 0) = x;
    pc.coord(i, 1) = y;
  }
  auto tr = std::make_shared<ClusterTree>(ClusterTree::build(std::move(pc), 16));
  kern::GaussianKernel k(0.3);
  kern::KernelMatVecSampler sampler(*tr, k);
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions opts;
  opts.tol = 1e-6;
  auto res = core::construct_h2(tr, Admissibility::general(0.7), sampler, gen, opts);
  res.matrix.validate();
  kern::KernelMatVecSampler exact(*tr, k);
  h2::H2Sampler approx(res.matrix);
  EXPECT_LT(core::relative_error_2norm(exact, approx, 10), 1e-4);
}

TEST(Integration, SampleCapReportedWhenImpossiblyTight) {
  auto tr = test_util::build_cube_tree(800, 2, 73, 16);
  kern::ExponentialKernel k(0.01); // essentially diagonal: high local rank
  kern::KernelMatVecSampler sampler(*tr, k);
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions opts;
  opts.tol = 1e-14;
  opts.sample_block = 8;
  opts.initial_samples = 8;
  opts.max_samples = 24; // force the cap
  auto res = core::construct_h2(tr, Admissibility::general(0.7), sampler, gen, opts);
  res.matrix.validate(); // structure stays consistent even when capped
  EXPECT_LE(res.stats.total_samples, 24);
}

} // namespace
} // namespace h2sketch
