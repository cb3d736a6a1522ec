#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "core/construction.hpp"
#include "h2/h2_dense.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/kernels.hpp"
#include "kernels/proxy_sampler.hpp"
#include "solver/hss_construction.hpp"
#include "test_common.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

/// \file test_proxy_sampler.cpp
/// The proxy-point sampler (O(N d) sketching): surrogate accuracy against
/// the dense kernel matrix, proxy-vs-exact construction agreement at the
/// same tolerance, the HSS build path, sampler selection (factory + env),
/// and the MatVecSampler accounting contract under repeated and concurrent
/// sample calls.

namespace h2sketch {
namespace {

using test_util::cube_tree;
using test_util::dense_kernel_matrix;
using test_util::random_matrix;
using test_util::rel_fro_error;

TEST(ProxySurrogate, ApproximatesTheDenseKernelMatrix) {
  auto tr = test_util::build_cube_tree(1200, 2, 77, 32);
  kern::ExponentialKernel k(0.2);
  kern::ProxySamplerOptions popts;
  popts.tol = 1e-6;
  kern::ProxyMatVecSampler sampler(tr, k, popts);

  EXPECT_EQ(sampler.size(), 1200);
  EXPECT_GT(sampler.proxy_points_used(), 0);
  EXPECT_GT(sampler.build_seconds(), 0.0);

  const Matrix kd = dense_kernel_matrix(*tr, k);
  const Matrix sd = h2::densify(sampler.surrogate());
  // The surrogate carries the proxy-ID error floor; well inside the
  // envelope the construction tolerance budgets for it.
  EXPECT_LT(rel_fro_error(sd.view(), kd.view()), 1e-4);
}

TEST(ProxySurrogate, RepeatedBuildsOnAFourWidePoolAgreeBitwise) {
  // Regression: the near-field generate launch used to run while the proxy
  // shells were still being appended to the coordinate table it reads, so a
  // reallocation pulled the table out from under the launch. Width 4 makes
  // the launches asynchronous whatever the runner's core count.
#if defined(_OPENMP)
  const int prev = omp_get_max_threads();
  omp_set_num_threads(4);
#endif
  const index_t n = 1200;
  auto tr = test_util::build_cube_tree(n, 2, 77, 32);
  kern::ExponentialKernel k(0.2);
  kern::ProxySamplerOptions popts;
  popts.tol = 1e-6;
  const Matrix omega = random_matrix(n, 4, 13);

  Matrix y_first(n, 4);
  index_t points_first = 0;
  for (int rep = 0; rep < 6; ++rep) {
    kern::ProxyMatVecSampler sampler(tr, k, popts);
    Matrix y(n, 4);
    sampler.sample(omega.view(), y.view());
    if (rep == 0) {
      y_first = std::move(y);
      points_first = sampler.proxy_points_used();
      continue;
    }
    EXPECT_EQ(sampler.proxy_points_used(), points_first) << "rep " << rep;
    EXPECT_EQ(max_abs_diff(y.view(), y_first.view()), 0.0) << "rep " << rep;
  }
  EXPECT_GT(points_first, 0);
#if defined(_OPENMP)
  omp_set_num_threads(prev);
#endif
}

TEST(ProxySurrogate, NoFarFieldLaysOutNoProxyPoints) {
  // A tree too shallow for any admissible pair keeps the exact near field
  // only: no proxy geometry is laid out for it.
  auto tr = test_util::build_cube_tree(48, 3, 5, 32);
  kern::ExponentialKernel k(0.2);
  kern::ProxyMatVecSampler sampler(tr, k, kern::ProxySamplerOptions{});
  ASSERT_FALSE(sampler.surrogate().mtree.has_any_far());
  EXPECT_EQ(sampler.proxy_points_used(), 0);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  EXPECT_LT(rel_fro_error(h2::densify(sampler.surrogate()).view(), kd.view()), 1e-14);
}

TEST(ProxySurrogate, SampleMatchesExactOracleToSurrogateAccuracy) {
  const index_t n = 900;
  auto tr = test_util::build_cube_tree(n, 2, 3, 32);
  kern::ExponentialKernel k(0.2);
  kern::ProxySamplerOptions popts;
  popts.tol = 1e-6;
  kern::ProxyMatVecSampler proxy(tr, k, popts);
  kern::KernelMatVecSampler exact(*tr, k);

  const index_t d = 5;
  const Matrix omega = random_matrix(n, d, 99);
  Matrix yp(n, d), ye(n, d);
  proxy.sample(omega.view(), yp.view());
  exact.sample(omega.view(), ye.view());

  EXPECT_EQ(proxy.samples_taken(), d);
  EXPECT_EQ(exact.samples_taken(), d);
  EXPECT_LT(rel_fro_error(yp.view(), ye.view()), 1e-4);
}

TEST(ProxyVsExact, ConstructionErrorStaysWithinTheToleranceEnvelope) {
  const index_t n = 1200;
  auto tr = test_util::build_cube_tree(n, 2, 5, 32);
  kern::ExponentialKernel k(0.2);
  const Matrix kd = dense_kernel_matrix(*tr, k);

  core::ConstructionOptions opts;
  opts.tol = 1e-6;
  opts.initial_samples = 32;
  opts.sample_block = 32;
  const auto adm = tree::Admissibility::general(0.7);

  auto exact = core::construct_h2(tr, adm, k, opts, kern::SamplerKind::Exact);
  auto proxy = core::construct_h2(tr, adm, k, opts, kern::SamplerKind::Proxy);
  ASSERT_TRUE(exact.matrix.mtree.has_any_far());

  const real_t err_exact = rel_fro_error(h2::densify(exact.matrix).view(), kd.view());
  const real_t err_proxy = rel_fro_error(h2::densify(proxy.matrix).view(), kd.view());
  // Acceptance contract: proxy within 10x of the exact-sampler build at the
  // same tolerance (floored by the tolerance itself, which both meet).
  EXPECT_LT(err_proxy, std::max<real_t>(10 * err_exact, 10 * opts.tol));
  EXPECT_GT(proxy.stats.total_samples, 0);
  EXPECT_GT(exact.stats.total_samples, 0);
}

TEST(ProxyVsExact, HssBuildAgreesWithTheExactSamplerBuild) {
  const index_t n = 1024;
  auto tr = test_util::build_cube_tree(n, 2, 11, 64);
  kern::ExponentialKernel base(0.2);
  kern::RidgeKernel k(base, 1.0);
  const Matrix kd = dense_kernel_matrix(*tr, k);

  core::ConstructionOptions opts;
  opts.tol = 1e-6;
  opts.initial_samples = 64;
  opts.sample_block = 32;

  auto exact = solver::build_hss(tr, k, opts, kern::SamplerKind::Exact);
  auto proxy = solver::build_hss(tr, k, opts, kern::SamplerKind::Proxy);

  const real_t err_exact = rel_fro_error(exact.matrix.densify().view(), kd.view());
  const real_t err_proxy = rel_fro_error(proxy.matrix.densify().view(), kd.view());
  EXPECT_LT(err_proxy, std::max<real_t>(10 * err_exact, 10 * opts.tol));
}

TEST(SamplerSelection, FactoryBuildsTheRequestedKind) {
  auto tr = test_util::build_cube_tree(300, 2, 21, 32);
  kern::ExponentialKernel k(0.2);
  kern::ProxySamplerOptions popts;
  popts.tol = 1e-4;

  auto exact = kern::make_kernel_sampler(kern::SamplerKind::Exact, tr, k, popts);
  auto proxy = kern::make_kernel_sampler(kern::SamplerKind::Proxy, tr, k, popts);
  EXPECT_NE(dynamic_cast<kern::KernelMatVecSampler*>(exact.get()), nullptr);
  EXPECT_NE(dynamic_cast<kern::ProxyMatVecSampler*>(proxy.get()), nullptr);
  EXPECT_EQ(exact->size(), 300);
  EXPECT_EQ(proxy->size(), 300);
}

TEST(SamplerSelection, EnvironmentOverridesTheFallback) {
  ASSERT_EQ(unsetenv("H2SKETCH_SAMPLER"), 0);
  EXPECT_EQ(kern::sampler_kind_from_env(kern::SamplerKind::Exact), kern::SamplerKind::Exact);
  EXPECT_EQ(kern::sampler_kind_from_env(kern::SamplerKind::Proxy), kern::SamplerKind::Proxy);

  ASSERT_EQ(setenv("H2SKETCH_SAMPLER", "proxy", 1), 0);
  EXPECT_EQ(kern::sampler_kind_from_env(kern::SamplerKind::Exact), kern::SamplerKind::Proxy);
  ASSERT_EQ(setenv("H2SKETCH_SAMPLER", "exact", 1), 0);
  EXPECT_EQ(kern::sampler_kind_from_env(kern::SamplerKind::Proxy), kern::SamplerKind::Exact);
  // Unknown values keep the fallback rather than failing the run.
  ASSERT_EQ(setenv("H2SKETCH_SAMPLER", "warp-drive", 1), 0);
  EXPECT_EQ(kern::sampler_kind_from_env(kern::SamplerKind::Proxy), kern::SamplerKind::Proxy);
  ASSERT_EQ(unsetenv("H2SKETCH_SAMPLER"), 0);
}

TEST(SamplerAccounting, RepeatedCallsAccumulateAndResetClears) {
  auto tr = test_util::build_cube_tree(200, 2, 31, 32);
  kern::ExponentialKernel k(0.2);
  kern::KernelMatVecSampler sampler(*tr, k);

  const Matrix omega = random_matrix(200, 3, 7);
  Matrix y(200, 3);
  for (int r = 0; r < 4; ++r) sampler.sample(omega.view(), y.view());
  EXPECT_EQ(sampler.samples_taken(), 12);
  sampler.reset_sample_count();
  EXPECT_EQ(sampler.samples_taken(), 0);
  sampler.sample(omega.view().col_range(0, 2), y.view().col_range(0, 2));
  EXPECT_EQ(sampler.samples_taken(), 2);
}

/// Minimal sampler that exercises only the accounting path, so the
/// concurrency test races record_samples itself rather than any
/// implementation's scratch buffers.
class CountingSampler final : public kern::MatVecSampler {
 public:
  index_t size() const override { return 1; }
  void sample(ConstMatrixView omega, MatrixView) override { record_samples(omega.cols); }
};

TEST(SamplerAccounting, ConcurrentRecordsLoseNothing) {
  // Regression for the unsynchronized samples_ counter: concurrent sketch
  // rounds (stream launches / pool workers) must not drop increments.
  CountingSampler sampler;
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 2000;
  constexpr index_t kColsPerCall = 3;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&sampler] {
      Matrix omega(1, kColsPerCall);
      for (int c = 0; c < kCallsPerThread; ++c) sampler.sample(omega.view(), MatrixView());
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(sampler.samples_taken(), index_t{kThreads} * kCallsPerThread * kColsPerCall);
}

} // namespace
} // namespace h2sketch
