#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/random.hpp"
#include "core/construction.hpp"
#include "h2/h2_dense.hpp"
#include "h2/h2_matvec.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/kernels.hpp"
#include "solver/hss_construction.hpp"
#include "solver/ulv.hpp"
#include "test_common.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

/// \file test_determinism.cpp
/// Thread-count determinism suite: the ROADMAP claims the counter-based RNG
/// (Philox addressed by (seed, column counter)) plus fixed per-batch-entry
/// arithmetic order make the construction bitwise reproducible under any
/// OMP_NUM_THREADS. This suite makes that claim an explicit test: the same
/// H2 matrix is built with 1, 2 and 4 threads and every output that could
/// betray a scheduling dependence — sample counts, rounds, per-level ranks,
/// the densified matrix, and matvec results — must be bitwise identical.
///
/// Without OpenMP the builds trivially agree; the suite still runs so the
/// serial configuration keeps the same coverage surface.

namespace h2sketch {
namespace {

using core::ConstructionOptions;
using tree::Admissibility;

struct BuildOutput {
  Matrix dense;
  Matrix matvec;
  index_t total_samples = 0;
  index_t sample_rounds = 0;
  index_t min_rank = 0;
  index_t max_rank = 0;
  std::vector<index_t> ranks_per_level;
};

BuildOutput build_with_threads(int threads) {
#if defined(_OPENMP)
  const int prev = omp_get_max_threads();
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
  auto tr = test_util::build_cube_tree(600, 2, 404, 16);
  kern::ExponentialKernel k(0.2);
  const Matrix kd = test_util::dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions opts;
  opts.tol = 1e-7;
  opts.sample_block = 16;
  opts.initial_samples = 32;
  batched::ExecutionContext ctx(batched::Backend::Batched);
  auto res = core::construct_h2(tr, Admissibility::general(0.7), sampler, gen, opts, ctx);

  BuildOutput out;
  out.dense = h2::densify(res.matrix);
  Matrix x(600, 3), y(600, 3);
  fill_gaussian(x.view(), GaussianStream(99));
  h2::h2_matvec(res.matrix, x.view(), y.view());
  out.matvec = std::move(y);
  out.total_samples = res.stats.total_samples;
  out.sample_rounds = res.stats.sample_rounds;
  out.min_rank = res.stats.min_rank;
  out.max_rank = res.stats.max_rank;
  out.ranks_per_level = res.stats.max_rank_per_level;
#if defined(_OPENMP)
  omp_set_num_threads(prev);
#endif
  return out;
}

TEST(Determinism, ConstructionIsBitwiseIdenticalAcrossThreadCounts) {
  const BuildOutput ref = build_with_threads(1);
  ASSERT_GT(ref.total_samples, 0);
  for (int threads : {2, 4}) {
    const BuildOutput got = build_with_threads(threads);
    // Adaptive control flow: identical sample counts and rounds mean every
    // node made the same convergence decisions in the same order.
    EXPECT_EQ(got.total_samples, ref.total_samples) << threads << " threads";
    EXPECT_EQ(got.sample_rounds, ref.sample_rounds) << threads << " threads";
    EXPECT_EQ(got.min_rank, ref.min_rank) << threads << " threads";
    EXPECT_EQ(got.max_rank, ref.max_rank) << threads << " threads";
    EXPECT_EQ(got.ranks_per_level, ref.ranks_per_level) << threads << " threads";
    // Bitwise: zero tolerance, not "close".
    EXPECT_EQ(max_abs_diff(got.dense.view(), ref.dense.view()), 0.0) << threads << " threads";
    EXPECT_EQ(max_abs_diff(got.matvec.view(), ref.matvec.view()), 0.0) << threads << " threads";
  }
}

TEST(Determinism, BatchedRandIsScheduleInvariant) {
  // The counter-based fill itself (parallel_for over columns) must give the
  // same matrix for any thread count.
  auto fill_with = [](int threads) {
#if defined(_OPENMP)
    const int prev = omp_get_max_threads();
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    Matrix m(257, 33);
    fill_gaussian(m.view(), GaussianStream(1234), 17);
#if defined(_OPENMP)
    omp_set_num_threads(prev);
#endif
    return m;
  };
  const Matrix a = fill_with(1), b = fill_with(2), c = fill_with(4);
  EXPECT_EQ(max_abs_diff(a.view(), b.view()), 0.0);
  EXPECT_EQ(max_abs_diff(a.view(), c.view()), 0.0);
}

/// Outputs of one HSS-ULV build + solve that could betray a scheduling
/// dependence in the solver subsystem.
struct UlvOutput {
  Matrix dense;      ///< densified HSS
  Matrix root;       ///< dense root factor of the ULV form
  Matrix solve_one;  ///< single-RHS solve result
  Matrix solve_many; ///< 3-RHS batched solve result
};

UlvOutput build_ulv_with_threads(int threads) {
#if defined(_OPENMP)
  const int prev = omp_get_max_threads();
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
  auto tr = test_util::build_cube_tree(600, 2, 505, 16);
  kern::ExponentialKernel base(0.25);
  kern::RidgeKernel k(base, 1.0);
  const Matrix kd = test_util::dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions opts;
  opts.tol = 1e-7;
  opts.sample_block = 16;
  opts.initial_samples = 32;
  batched::ExecutionContext ctx(batched::Backend::Batched);
  auto res = solver::build_hss(tr, sampler, gen, opts, ctx);
  solver::UlvCholesky f = solver::ulv_factor(res.matrix, ctx);

  UlvOutput out;
  out.dense = res.matrix.densify();
  out.root = to_matrix(f.root_factor().view());
  Matrix b1(600, 1), bn(600, 3);
  fill_gaussian(b1.view(), GaussianStream(606));
  fill_gaussian(bn.view(), GaussianStream(607));
  out.solve_one.resize(600, 1);
  out.solve_many.resize(600, 3);
  f.solve_many(b1.view(), out.solve_one.view(), ctx);
  f.solve_many(bn.view(), out.solve_many.view(), ctx);
#if defined(_OPENMP)
  omp_set_num_threads(prev);
#endif
  return out;
}

TEST(UlvDeterminism, FactorsAndSolvesAreBitwiseIdenticalAcrossThreadCounts) {
  // The solver subsystem rides the same stream runtime as the construction:
  // cost-derived chunk boundaries, per-node arithmetic order fixed. ULV
  // factor panels and solve outputs must be bitwise identical at any pool
  // width, with streams enabled (Batched backend).
  const UlvOutput ref = build_ulv_with_threads(1);
  ASSERT_GT(ref.root.rows(), 0);
  for (int threads : {2, 4}) {
    const UlvOutput got = build_ulv_with_threads(threads);
    EXPECT_EQ(max_abs_diff(got.dense.view(), ref.dense.view()), 0.0) << threads << " threads";
    EXPECT_EQ(max_abs_diff(got.root.view(), ref.root.view()), 0.0) << threads << " threads";
    EXPECT_EQ(max_abs_diff(got.solve_one.view(), ref.solve_one.view()), 0.0)
        << threads << " threads";
    EXPECT_EQ(max_abs_diff(got.solve_many.view(), ref.solve_many.view()), 0.0)
        << threads << " threads";
  }
}

/// Slow-label guard (see tests/CMakeLists.txt): the ULV solve residual at
/// N = 8192 must track the construction tolerance — the acceptance bar for
/// the solver workload at scale, using the O(N) on-the-fly kernel sampler
/// so no N^2 matrix is ever stored.
TEST(UlvSlowGuard, SolveResidualAtN8192TracksTolerance) {
  const index_t n = 8192;
  auto tr = test_util::build_cube_tree(n, 2, 808, 64);
  kern::ExponentialKernel base(0.2);
  // Regularized GP covariance K + sigma^2 I: the ridge bounds the smallest
  // eigenvalue, so the relative residual of the approximate solve is
  // ~ tol * ||K||_F / sigma^2 — well inside the 100x-tol acceptance bar.
  kern::RidgeKernel k(base, 10.0);
  kern::KernelMatVecSampler sampler(*tr, k);
  kern::KernelEntryGenerator gen(*tr, k);
  ConstructionOptions opts;
  opts.tol = 1e-6;
  opts.sample_block = 32;
  opts.initial_samples = 64;
  auto res = solver::build_hss(tr, sampler, gen, opts);
  EXPECT_EQ(res.stats.nonconverged_nodes, 0);
  solver::UlvCholesky f = solver::ulv_factor(res.matrix);

  Matrix b(n, 1), x(n, 1), ax(n, 1);
  fill_gaussian(b.view(), GaussianStream(809));
  f.solve_many(b.view(), x.view());
  kern::KernelMatVecSampler applier(*tr, k);
  applier.sample(x.view(), ax.view());
  real_t num = 0, den = 0;
  for (index_t i = 0; i < n; ++i) {
    num += (ax(i, 0) - b(i, 0)) * (ax(i, 0) - b(i, 0));
    den += b(i, 0) * b(i, 0);
  }
  // Acceptance shape: relative residual within 100x the construction tol.
  EXPECT_LT(std::sqrt(num / den), 100 * opts.tol);
}

#if defined(_OPENMP)
/// The ROADMAP's open "speedup assertion": with the stream runtime, the same
/// N = 2048 construction must get ≥ 1.3x faster from 1 to 4 threads on
/// hardware that actually has 4 cores. Registered under the slow label (see
/// tests/CMakeLists.txt); skips loudly on narrower machines where the
/// threads would be time-sliced onto the same core.
TEST(DeterminismScaling, FourThreadsBeatOneByThirtyPercent) {
  if (std::thread::hardware_concurrency() < 4)
    GTEST_SKIP() << "only " << std::thread::hardware_concurrency()
                 << " hardware threads; 1-vs-4 timing would measure time-slicing, not scaling";

  auto build_timed = [](int threads) {
    const int prev = omp_get_max_threads();
    omp_set_num_threads(threads);
    auto tr = test_util::build_cube_tree(2048, 3, 811, 32);
    kern::ExponentialKernel k(0.2);
    const Matrix kd = test_util::dense_kernel_matrix(*tr, k);
    kern::DenseMatrixSampler sampler(kd.view());
    kern::KernelEntryGenerator gen(*tr, k);
    ConstructionOptions opts;
    opts.tol = 1e-6;
    opts.sample_block = 32;
    opts.initial_samples = 64;
    batched::ExecutionContext ctx(batched::Backend::Batched);
    const double t0 = wall_seconds();
    auto res = core::construct_h2(tr, Admissibility::general(0.7), sampler, gen, opts, ctx);
    const double dt = wall_seconds() - t0;
    omp_set_num_threads(prev);
    return std::pair<double, index_t>(dt, res.stats.total_samples);
  };

  // Warm up the pool and page in the kernel matrix, then take the best of
  // two runs per width to damp scheduler noise.
  (void)build_timed(1);
  const auto [t1a, s1] = build_timed(1);
  const auto [t4a, s4] = build_timed(4);
  const auto [t1b, s1b] = build_timed(1);
  const auto [t4b, s4b] = build_timed(4);
  ASSERT_EQ(s1, s4) << "thread count changed the adaptive control flow";
  ASSERT_EQ(s1, s1b);
  ASSERT_EQ(s4, s4b);
  const double t1 = std::min(t1a, t1b), t4 = std::min(t4a, t4b);
  EXPECT_GE(t1 / t4, 1.3) << "1-thread " << t1 << " s vs 4-thread " << t4 << " s";
}

TEST(Determinism, SuiteActuallyVariesThreadCount) {
  // Guard against the suite silently degenerating to single-threaded runs:
  // after requesting 4 threads, a parallel region must actually get 4
  // (OpenMP creates them regardless of core count). If the environment
  // forbids it (OMP_THREAD_LIMIT), skip loudly instead of passing vacuously.
  if (omp_get_thread_limit() < 4)
    GTEST_SKIP() << "OMP_THREAD_LIMIT=" << omp_get_thread_limit()
                 << " pins the runtime below 4 threads; the bitwise "
                    "comparison above degenerated to same-thread-count runs";
  omp_set_dynamic(0);
  omp_set_num_threads(4);
  int seen = 0;
#pragma omp parallel
  {
#pragma omp atomic
    ++seen;
  }
  EXPECT_EQ(seen, 4);
}
#endif

} // namespace
} // namespace h2sketch
