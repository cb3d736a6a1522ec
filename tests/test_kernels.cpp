#include "kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "batched/device.hpp"
#include "common/errors.hpp"
#include "common/random.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/entry_gen.hpp"
#include "la/blas.hpp"
#include "test_common.hpp"

namespace h2sketch::kern {
namespace {

TEST(Kernels, ExponentialValuesAndSymmetry) {
  ExponentialKernel k(0.2);
  const real_t x[3] = {0, 0, 0}, y[3] = {0.2, 0, 0};
  EXPECT_DOUBLE_EQ(k.evaluate(x, x, 3), 1.0);
  EXPECT_NEAR(k.evaluate(x, y, 3), std::exp(-1.0), 1e-15);
  EXPECT_DOUBLE_EQ(k.evaluate(x, y, 3), k.evaluate(y, x, 3));
}

TEST(Kernels, HelmholtzCosMatchesFormulaOffDiagonal) {
  HelmholtzCosKernel k(3.0);
  const real_t x[3] = {0, 0, 0}, y[3] = {0.5, 0, 0};
  EXPECT_NEAR(k.evaluate(x, y, 3), std::cos(1.5) / 0.5, 1e-15);
  EXPECT_GT(k.evaluate(x, x, 3), 0.0); // finite self term
}

TEST(Kernels, GaussianAndMaternDecay) {
  GaussianKernel g(0.2);
  Matern32Kernel m(0.2);
  const real_t x[3] = {0, 0, 0};
  real_t prev_g = 2, prev_m = 2;
  for (real_t r = 0.0; r < 1.0; r += 0.1) {
    const real_t y[3] = {r, 0, 0};
    const real_t vg = g.evaluate(x, y, 3), vm = m.evaluate(x, y, 3);
    EXPECT_LT(vg, prev_g);
    EXPECT_LT(vm, prev_m);
    EXPECT_GT(vg, 0.0);
    EXPECT_GT(vm, 0.0);
    prev_g = vg;
    prev_m = vm;
  }
  const real_t origin[3] = {0, 0, 0};
  EXPECT_DOUBLE_EQ(g.evaluate(origin, origin, 3), 1.0);
  EXPECT_DOUBLE_EQ(m.evaluate(origin, origin, 3), 1.0);
}

TEST(Kernels, LaplaceSingularityGuardedByDiagonal) {
  Laplace3dKernel k(42.0);
  const real_t x[3] = {0.25, 0.5, 0.75};
  EXPECT_DOUBLE_EQ(k.evaluate(x, x, 3), 42.0);
  const real_t y[3] = {0.25, 0.5, 1.75};
  EXPECT_DOUBLE_EQ(k.evaluate(x, y, 3), 1.0);
}

class EntryGenFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    tree_ = test_util::build_cube_tree(100, 3, 3, 16);
    kernel_ = std::make_unique<ExponentialKernel>(0.2);
    gen_ = std::make_unique<KernelEntryGenerator>(*tree_, *kernel_);
  }
  std::shared_ptr<tree::ClusterTree> tree_;
  std::unique_ptr<ExponentialKernel> kernel_;
  std::unique_ptr<KernelEntryGenerator> gen_;
};

TEST_F(EntryGenFixture, MatchesDirectKernelEvaluationThroughPermutation) {
  std::vector<index_t> rows = {0, 17, 42}, cols = {5, 99};
  Matrix out(3, 2);
  gen_->generate_block(rows, cols, out.view());
  const auto& pts = tree_->points();
  for (size_t i = 0; i < rows.size(); ++i)
    for (size_t j = 0; j < cols.size(); ++j) {
      real_t x[3], y[3];
      for (index_t d = 0; d < 3; ++d) {
        x[d] = pts.coord(tree_->original_index(rows[i]), d);
        y[d] = pts.coord(tree_->original_index(cols[j]), d);
      }
      EXPECT_DOUBLE_EQ(out(static_cast<index_t>(i), static_cast<index_t>(j)),
                       kernel_->evaluate(x, y, 3));
    }
  EXPECT_EQ(gen_->entries_generated(), 6);
}

TEST_F(EntryGenFixture, AppendedPointsEvaluateAtTheirOwnCoordinates) {
  // Two points past the tree's 100, addressed as positions 100 and 101.
  const std::vector<real_t> appended = {0.5, -1.0, 2.0, 3.0, 0.25, -0.75};
  const KernelEntryGenerator gen(*tree_, *kernel_, appended);
  const std::vector<index_t> rows = {100, 17, 101}, cols = {101, 42, 100};
  Matrix out(3, 3);
  gen.generate_block(rows, cols, out.view());
  const auto coords = [&](index_t p, real_t* x) {
    for (index_t d = 0; d < 3; ++d)
      x[d] = p < 100 ? tree_->coord_permuted(p, d)
                     : appended[static_cast<size_t>((p - 100) * 3 + d)];
  };
  for (size_t i = 0; i < rows.size(); ++i)
    for (size_t j = 0; j < cols.size(); ++j) {
      real_t x[3], y[3];
      coords(rows[i], x);
      coords(cols[j], y);
      // Bitwise: the same evaluate call on the same coordinates.
      EXPECT_EQ(out(static_cast<index_t>(i), static_cast<index_t>(j)), kernel_->evaluate(x, y, 3))
          << rows[i] << "," << cols[j];
    }
}

TEST_F(EntryGenFixture, BatchedGenerateIsOneLaunch) {
  batched::ExecutionContext ctx(batched::Backend::Batched);
  Matrix o1(4, 4), o2(2, 7);
  std::vector<index_t> r1 = {0, 1, 2, 3}, c1 = {10, 11, 12, 13};
  std::vector<index_t> r2 = {50, 60}, c2 = {1, 2, 3, 4, 5, 6, 7};
  std::vector<BlockRequest> reqs = {{r1, c1, o1.view()}, {r2, c2, o2.view()}};
  batched_generate(ctx, *gen_, reqs);
  EXPECT_EQ(ctx.kernel_launches(), 1);
  EXPECT_EQ(gen_->entries_generated(), 16 + 14);
  // Spot-check one entry of each block.
  Matrix ref(1, 1);
  std::vector<index_t> rr = {r2[1]}, cc = {c2[6]};
  gen_->generate_block(rr, cc, ref.view());
  EXPECT_DOUBLE_EQ(o2(1, 6), ref(0, 0));
}

TEST_F(EntryGenFixture, SymmetryOfGeneratedBlocks) {
  std::vector<index_t> idx = {3, 30, 77};
  Matrix a(3, 3);
  gen_->generate_block(idx, idx, a.view());
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(a(i, j), a(j, i));
}

TEST(DenseEntryGenerator, ReadsFromMatrix) {
  Matrix a(5, 5);
  for (index_t j = 0; j < 5; ++j)
    for (index_t i = 0; i < 5; ++i) a(i, j) = static_cast<real_t>(10 * i + j);
  DenseEntryGenerator gen(a.view());
  std::vector<index_t> rows = {4, 2}, cols = {1, 3, 0};
  Matrix out(2, 3);
  gen.generate_block(rows, cols, out.view());
  EXPECT_EQ(out(0, 0), 41.0);
  EXPECT_EQ(out(1, 2), 20.0);
}

TEST(DenseMatrixSampler, MatchesGemmAndCountsSamples) {
  const Matrix a = test_util::random_matrix(6, 6, 4);
  DenseMatrixSampler s(a.view());
  Matrix omega(6, 3), y(6, 3), ref(6, 3);
  fill_gaussian(omega.view(), GaussianStream(5));
  s.sample(omega.view(), y.view());
  la::gemm(1.0, a.view(), la::Op::None, omega.view(), la::Op::None, 0.0, ref.view());
  EXPECT_LT(max_abs_diff(y.view(), ref.view()), 1e-13);
  EXPECT_EQ(s.samples_taken(), 3);
  s.sample(omega.view(), y.view());
  EXPECT_EQ(s.samples_taken(), 6);
}

TEST(KernelMatVecSampler, MatchesDenseKernelMatrix) {
  auto tr = test_util::build_cube_tree(300, 3, 6, 32);
  ExponentialKernel k(0.2);
  KernelMatVecSampler s(*tr, k);
  // Dense reference via the entry generator.
  const Matrix kd = test_util::dense_kernel_matrix(*tr, k);
  Matrix omega(300, 4), y(300, 4), ref(300, 4);
  fill_gaussian(omega.view(), GaussianStream(7));
  s.sample(omega.view(), y.view());
  la::gemm(1.0, kd.view(), la::Op::None, omega.view(), la::Op::None, 0.0, ref.view());
  EXPECT_LT(max_abs_diff(y.view(), ref.view()), 1e-11);
}

TEST(KernelByName, KnowsTheToolKernelsAndRejectsOthers) {
  EXPECT_EQ(kernel_by_name("exp")->name(), "exponential");
  EXPECT_EQ(kernel_by_name("helm")->name(), "helmholtz_cos");
  EXPECT_EQ(kernel_by_name("matern")->name(), "matern32");
  // An unknown name used to become the exponential kernel without a word.
  try {
    (void)kernel_by_name("nosuchkernel");
    FAIL() << "unknown kernel name accepted";
  } catch (const InvalidArgumentError& e) {
    EXPECT_FALSE(e.retryable());
    EXPECT_NE(std::string(e.what()).find("nosuchkernel"), std::string::npos);
  }
}

} // namespace
} // namespace h2sketch::kern
