#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hpp"
#include "core/construction.hpp"
#include "h2/cheb_construction.hpp"
#include "h2/h2_dense.hpp"
#include "h2/h2_entry_eval.hpp"
#include "h2/h2_matvec.hpp"
#include "h2/update_sampler.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/entry_gen.hpp"
#include "kernels/kernels.hpp"
#include "la/blas.hpp"
#include "test_common.hpp"

namespace h2sketch::h2 {
namespace {

using test_util::block_error;
using test_util::dense_kernel_matrix;
using test_util::node_positions;
using test_util::rel_fro_error;

struct ChebCase {
  index_t n;
  index_t dim;
  index_t leaf;
  index_t q;
  real_t eta;
  real_t expected_err; ///< loose bound on relative Frobenius error
  std::uint64_t seed;
};

class ChebH2 : public ::testing::TestWithParam<ChebCase> {
 protected:
  void SetUp() override {
    const auto p = GetParam();
    tree_ = test_util::build_cube_tree(p.n, p.dim, p.seed, p.leaf);
    kernel_ = std::make_unique<kern::ExponentialKernel>(0.2);
    a_ = build_cheb_h2(tree_, tree::Admissibility::general(p.eta), *kernel_, p.q);
  }
  std::shared_ptr<tree::ClusterTree> tree_;
  std::unique_ptr<kern::ExponentialKernel> kernel_;
  H2Matrix a_;
};

TEST_P(ChebH2, DensifyApproximatesKernelMatrix) {
  const Matrix kd = dense_kernel_matrix(*tree_, *kernel_);
  const Matrix ad = densify(a_);
  EXPECT_LT(rel_fro_error(ad.view(), kd.view()), GetParam().expected_err);
}

TEST_P(ChebH2, MatvecMatchesDensify) {
  const Matrix ad = densify(a_);
  const index_t n = tree_->num_points();
  Matrix x(n, 3), y(n, 3), ref(n, 3);
  fill_gaussian(x.view(), GaussianStream(11));
  h2_matvec(a_, x.view(), y.view());
  la::gemm(1.0, ad.view(), la::Op::None, x.view(), la::Op::None, 0.0, ref.view());
  EXPECT_LT(max_abs_diff(y.view(), ref.view()), test_util::kMatvecRelTol * la::norm_f(ad.view()));
}

TEST_P(ChebH2, EntryEvalMatchesDensify) {
  const Matrix ad = densify(a_);
  const H2EntryGenerator gen(a_);
  const index_t n = tree_->num_points();
  SmallRng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const index_t i = rng.next_index(n), j = rng.next_index(n);
    EXPECT_NEAR(gen.entry(i, j), ad(i, j), test_util::kEntryTol) << "(" << i << "," << j << ")";
  }
}

TEST_P(ChebH2, BlockEntryEvalMatchesDensify) {
  const Matrix ad = densify(a_);
  const H2EntryGenerator gen(a_);
  const tree::ClusterTree& t = *tree_;
  const index_t n = t.num_points();

  // A random mixed block crossing near, far and subdivided pairs.
  SmallRng rng(17);
  std::vector<index_t> rows, cols;
  for (int i = 0; i < 7; ++i) rows.push_back(rng.next_index(n));
  for (int j = 0; j < 5; ++j) cols.push_back(rng.next_index(n));
  Matrix out(7, 5);
  gen.generate_block(rows, cols, out.view());
  for (index_t i = 0; i < 7; ++i)
    for (index_t j = 0; j < 5; ++j)
      EXPECT_NEAR(out(i, j), ad(rows[static_cast<size_t>(i)], cols[static_cast<size_t>(j)]), test_util::kEntryTol);

  // Every near-leaf block as whole leaves: the dense-block requests of a
  // construction.
  const index_t leaf = t.leaf_level();
  const tree::LevelBlockList& near = a_.mtree.near_leaf;
  for (index_t r = 0; r < t.nodes_at(leaf); ++r)
    for (index_t j = 0; j < near.row_count(r); ++j) {
      const index_t c = near.col_at(r, j);
      EXPECT_LE(block_error(gen, ad.view(), node_positions(t, leaf, r), node_positions(t, leaf, c)),
                test_util::kEntryTol)
          << "near block (" << r << "," << c << ")";
    }

  // Every far block at every level on a shuffled every-other-position subset
  // of each node, spanning all of its leaves: the shape of the coupling
  // (skeleton) requests.
  SmallRng shuffle(18);
  const auto subset = [&](index_t l, index_t i) {
    std::vector<index_t> p;
    for (index_t q = t.begin(l, i); q < t.end(l, i); q += 2) p.push_back(q);
    for (size_t q = p.size(); q > 1; --q)
      std::swap(p[q - 1], p[static_cast<size_t>(shuffle.next_index(static_cast<index_t>(q)))]);
    return p;
  };
  for (index_t l = 0; l <= leaf; ++l) {
    const tree::LevelBlockList& far = a_.mtree.far[static_cast<size_t>(l)];
    for (index_t r = 0; r < t.nodes_at(l); ++r)
      for (index_t j = 0; j < far.row_count(r); ++j) {
        const index_t c = far.col_at(r, j);
        EXPECT_LE(block_error(gen, ad.view(), subset(l, r), subset(l, c)), test_util::kEntryTol)
            << "far block (" << r << "," << c << ") at level " << l;
      }
  }
}

TEST_P(ChebH2, NearBlocksAreTheEntryGeneratorsBlocksBitwise) {
  const tree::ClusterTree& t = *tree_;
  const kern::KernelEntryGenerator gen(t, *kernel_);
  const index_t leaf = t.leaf_level();
  const tree::LevelBlockList& near = a_.mtree.near_leaf;
  for (index_t r = 0; r < t.nodes_at(leaf); ++r)
    for (index_t j = 0; j < near.row_count(r); ++j) {
      const index_t c = near.col_at(r, j);
      Matrix ref(t.size(leaf, r), t.size(leaf, c));
      gen.generate_block(t.positions(leaf, r), t.positions(leaf, c), ref.view());
      const Matrix& d = a_.dense.host(near.row_ptr[static_cast<size_t>(r)] + j);
      ASSERT_EQ(d.rows(), ref.rows());
      ASSERT_EQ(d.cols(), ref.cols());
      EXPECT_EQ(max_abs_diff(d.view(), ref.view()), 0.0) << "near block (" << r << "," << c << ")";
    }
}

TEST_P(ChebH2, ValidatePassesAndMemoryIsAccounted) {
  a_.validate();
  EXPECT_GT(a_.memory_bytes(), 0u);
  EXPECT_EQ(a_.max_rank(), static_cast<index_t>(std::pow(GetParam().q, GetParam().dim)));
}

INSTANTIATE_TEST_SUITE_P(
    KernelsEtaDims, ChebH2,
    ::testing::Values(ChebCase{256, 3, 32, 4, 0.7, 2e-3, 1}, ChebCase{256, 3, 32, 5, 0.7, 5e-4, 2},
                      ChebCase{300, 2, 32, 5, 0.7, 1e-4, 3}, ChebCase{200, 3, 32, 4, 0.5, 1e-3, 4},
                      ChebCase{128, 1, 16, 6, 0.7, 1e-7, 5}));

TEST(ChebH2Single, HelmholtzKernelAlsoCompresses) {
  auto tr = test_util::build_cube_tree(256, 3, 21, 32);
  kern::HelmholtzCosKernel k(3.0);
  const H2Matrix a = build_cheb_h2(tr, tree::Admissibility::general(0.7), k, 5);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  EXPECT_LT(rel_fro_error(densify(a).view(), kd.view()), 5e-3);
}

TEST(H2Sampler, CountsSamplesAndMatchesMatvec) {
  auto tr = test_util::build_cube_tree(200, 3, 22, 32);
  kern::ExponentialKernel k(0.2);
  const H2Matrix a = build_cheb_h2(tr, tree::Admissibility::general(0.7), k, 4);
  H2Sampler s(a);
  EXPECT_EQ(s.size(), 200);
  Matrix omega(200, 5), y(200, 5), ref(200, 5);
  fill_gaussian(omega.view(), GaussianStream(23));
  s.sample(omega.view(), y.view());
  h2_matvec(a, omega.view(), ref.view());
  EXPECT_EQ(max_abs_diff(y.view(), ref.view()), 0.0);
  EXPECT_EQ(s.samples_taken(), 5);
}

TEST(UpdatedH2, SamplerAndEntryGenAreConsistent) {
  // 2D with leaf 16: far blocks at two levels, the upper one spanning two
  // leaves per node.
  const index_t n = 300;
  auto tr = test_util::build_cube_tree(n, 2, 24, 16);
  kern::ExponentialKernel k(0.2);
  const H2Matrix a = build_cheb_h2(tr, tree::Admissibility::general(0.7), k, 4);
  const la::LowRank lr = la::random_lowrank(n, n, 8, 0.5, 99);

  UpdatedH2Sampler sampler(a, lr);
  UpdatedH2EntryGenerator gen(a, lr);

  // Dense reference: densify(a) + lr.
  Matrix ref = densify(a);
  const Matrix lrd = lr.densify();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) ref(i, j) += lrd(i, j);

  Matrix omega(n, 3), y(n, 3), yref(n, 3);
  fill_gaussian(omega.view(), GaussianStream(25));
  sampler.sample(omega.view(), y.view());
  la::gemm(1.0, ref.view(), la::Op::None, omega.view(), la::Op::None, 0.0, yref.view());
  EXPECT_LT(max_abs_diff(y.view(), yref.view()), 1e-10);

  SmallRng rng(26);
  for (int trial = 0; trial < 100; ++trial) {
    const index_t i = rng.next_index(n), j = rng.next_index(n);
    Matrix out(1, 1);
    std::vector<index_t> ri = {i}, cj = {j};
    gen.generate_block(ri, cj, out.view());
    EXPECT_NEAR(out(0, 0), ref(i, j), test_util::kEntryTol);
  }

  // Whole blocks: the first near-leaf block and the first far block.
  const index_t leaf = tr->leaf_level();
  const tree::LevelBlockList& near = a.mtree.near_leaf;
  EXPECT_LE(block_error(gen, ref.view(), node_positions(*tr, leaf, 0),
                        node_positions(*tr, leaf, near.col_at(0, 0))),
            test_util::kEntryTol);
  ASSERT_TRUE(a.mtree.has_any_far());
  index_t l = 0;
  while (a.mtree.far[static_cast<size_t>(l)].empty()) ++l;
  const tree::LevelBlockList& far = a.mtree.far[static_cast<size_t>(l)];
  index_t r = 0;
  while (far.row_count(r) == 0) ++r;
  EXPECT_LE(block_error(gen, ref.view(), node_positions(*tr, l, r),
                        node_positions(*tr, l, far.col_at(r, 0))),
            test_util::kEntryTol);
}

TEST(H2Matrix, SingleLevelDenseOnlyMatrixWorks) {
  // N small enough that the tree is a single node: everything is dense.
  auto tr = test_util::build_cube_tree(40, 3, 27, 64);
  kern::ExponentialKernel k(0.2);
  const H2Matrix a = build_cheb_h2(tr, tree::Admissibility::general(0.7), k, 3);
  EXPECT_FALSE(a.mtree.has_any_far());
  const Matrix kd = dense_kernel_matrix(*tr, k);
  const Matrix ad = densify(a);
  EXPECT_LT(max_abs_diff(ad.view(), kd.view()), test_util::kExactTol);
  Matrix x(40, 2), y(40, 2), ref(40, 2);
  fill_gaussian(x.view(), GaussianStream(28));
  h2_matvec(a, x.view(), y.view());
  la::gemm(1.0, kd.view(), la::Op::None, x.view(), la::Op::None, 0.0, ref.view());
  EXPECT_LT(max_abs_diff(y.view(), ref.view()), 1e-12);
}

/// Bitwise transpose check: a == b^T in every entry.
bool is_exact_transpose(ConstMatrixView a, ConstMatrixView b) {
  if (a.rows != b.cols || a.cols != b.rows) return false;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i)
      if (a(i, j) != b(j, i)) return false;
  return true;
}

TEST(H2Matrix, MirroredFarPairsAreStoredOnce) {
  // Strong and weak builds alike: the (r, c) entry with r > c keeps its CSR
  // slot with no payload, and every reader sees exactly B_{c,r}^T there.
  auto tr = test_util::build_cube_tree(512, 2, 31, 32);
  kern::ExponentialKernel k(0.3);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-8;
  opts.sample_block = 16;
  opts.initial_samples = 32;
  for (const auto& adm : {tree::Admissibility::general(0.7), tree::Admissibility::weak()}) {
    kern::DenseMatrixSampler sampler(kd.view());
    kern::KernelEntryGenerator kgen(*tr, k);
    const auto res = core::construct_h2(tr, adm, sampler, kgen, opts);
    const H2Matrix& a = res.matrix;
    const Matrix ad = densify(a);
    const H2EntryGenerator gen(a);
    index_t mirrored = 0;
    for (index_t l = 0; l < tr->num_levels(); ++l) {
      const auto& far = a.mtree.far[static_cast<size_t>(l)];
      const auto& arena = a.coupling[static_cast<size_t>(l)];
      for (index_t r = 0; r < tr->nodes_at(l); ++r)
        for (index_t j = 0; j < far.row_count(r); ++j) {
          const index_t c = far.col_at(r, j);
          const index_t e = far.row_ptr[static_cast<size_t>(r)] + j;
          if (r < c) {
            EXPECT_EQ(arena.rows(e), a.rank(l, r));
            EXPECT_EQ(arena.cols(e), a.rank(l, c));
            continue;
          }
          ++mirrored;
          EXPECT_EQ(arena.rows(e), 0) << "level " << l << " entry " << e;
          EXPECT_EQ(arena.cols(e), 0) << "level " << l << " entry " << e;
          const auto rows = node_positions(*tr, l, r), cols = node_positions(*tr, l, c);
          const index_t rb = tr->begin(l, r), cb = tr->begin(l, c);
          EXPECT_TRUE(is_exact_transpose(
              ad.view().block(rb, cb, tr->size(l, r), tr->size(l, c)),
              ad.view().block(cb, rb, tr->size(l, c), tr->size(l, r))))
              << "densify, level " << l << " pair (" << r << ", " << c << ")";
          Matrix lower(tr->size(l, r), tr->size(l, c)), upper(tr->size(l, c), tr->size(l, r));
          gen.generate_block(rows, cols, lower.view());
          gen.generate_block(cols, rows, upper.view());
          EXPECT_TRUE(is_exact_transpose(lower.view(), upper.view()))
              << "entry generator, level " << l << " pair (" << r << ", " << c << ")";
        }
    }
    EXPECT_GT(mirrored, 0);

    const index_t n = tr->num_points();
    Matrix x(n, 3), y(n, 3), ref(n, 3);
    fill_gaussian(x.view(), GaussianStream(32));
    h2_matvec(a, x.view(), y.view());
    la::gemm(1.0, ad.view(), la::Op::None, x.view(), la::Op::None, 0.0, ref.view());
    EXPECT_LT(max_abs_diff(y.view(), ref.view()), 1e-12);
  }
}

TEST(H2Matrix, MemoryGrowsWithProblemSize) {
  kern::ExponentialKernel k(0.2);
  std::size_t prev = 0;
  for (index_t n : {256, 512, 1024}) {
    auto tr = test_util::build_cube_tree(n, 3, 29, 32);
    const H2Matrix a = build_cheb_h2(tr, tree::Admissibility::general(0.7), k, 3);
    EXPECT_GT(a.memory_bytes(), prev);
    prev = a.memory_bytes();
  }
}

} // namespace
} // namespace h2sketch::h2
