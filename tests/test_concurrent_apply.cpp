#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "backend/registry.hpp"
#include "batched/device.hpp"
#include "core/construction.hpp"
#include "h2/h2_matvec.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/entry_gen.hpp"
#include "kernels/kernels.hpp"
#include "solver/hss_construction.hpp"
#include "solver/ulv.hpp"
#include "test_common.hpp"

/// \file test_concurrent_apply.cpp
/// The serving-layer concurrency contract, pinned for the TSan job: a
/// compressed operator is read-only after construction, so N threads
/// applying the *same* operator through *distinct* ExecutionContexts must
/// race-check clean and produce results bitwise equal to a serial
/// application. Covers h2_matvec on an H2 and an HSS operator,
/// UlvCholesky::solve / solve_many, and the H2Sampler whose embedded context
/// is internally serialized.

namespace h2sketch {
namespace {

constexpr int kThreads = 8;

using test_util::dense_kernel_matrix;
using test_util::random_matrix;

struct SharedOperators {
  std::shared_ptr<tree::ClusterTree> tr;
  kern::ExponentialKernel base{0.3};
  kern::RidgeKernel k{base, 1.0};
  h2::H2Matrix h2m;
  h2::H2Matrix hss;
  solver::UlvCholesky ulv;

  SharedOperators() {
    tr = test_util::build_cube_tree(256, 2, 99, 16);
    const Matrix kd = dense_kernel_matrix(*tr, k);
    core::ConstructionOptions opts;
    opts.tol = 1e-8;
    opts.sample_block = 16;
    opts.initial_samples = 32;
    batched::ExecutionContext ctx;
    {
      kern::DenseMatrixSampler sampler(kd.view());
      kern::KernelEntryGenerator gen(*tr, k);
      h2m = core::construct_h2(tr, tree::Admissibility::general(0.7), sampler, gen, opts, ctx)
                .matrix;
    }
    {
      kern::DenseMatrixSampler sampler(kd.view());
      kern::KernelEntryGenerator gen(*tr, k);
      auto res = solver::build_hss(tr, sampler, gen, opts, ctx);
      ulv = solver::ulv_factor(res.matrix, ctx);
      hss = std::move(res.matrix);
    }
  }

  static const SharedOperators& get() {
    static SharedOperators ops;
    return ops;
  }
};

/// Run `apply(ctx, thread_index)` serially once per thread index, then again
/// from kThreads concurrent threads with per-thread contexts, and require
/// the concurrent results to be bitwise equal to the serial ones.
template <typename Apply>
void expect_concurrent_matches_serial(index_t n, index_t d, const Apply& apply) {
  std::vector<Matrix> serial(kThreads), concurrent(kThreads, Matrix());
  for (int t = 0; t < kThreads; ++t) {
    serial[static_cast<size_t>(t)] = Matrix(n, d);
    batched::ExecutionContext ctx;
    apply(ctx, t, serial[static_cast<size_t>(t)]);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      concurrent[static_cast<size_t>(t)] = Matrix(n, d);
      batched::ExecutionContext ctx; // distinct context per thread
      apply(ctx, t, concurrent[static_cast<size_t>(t)]);
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(max_abs_diff(concurrent[static_cast<size_t>(t)].view(),
                           serial[static_cast<size_t>(t)].view()),
              0.0)
        << "thread " << t;
}

TEST(ConcurrentApply, H2MatvecBitwiseEqualAcrossEightThreads) {
  const auto& ops = SharedOperators::get();
  const index_t n = ops.h2m.size();
  std::vector<Matrix> inputs;
  for (int t = 0; t < kThreads; ++t) inputs.push_back(random_matrix(n, 2, 100 + t));
  expect_concurrent_matches_serial(n, 2, [&](batched::ExecutionContext& ctx, int t, Matrix& y) {
    h2::h2_matvec(ctx, ops.h2m, inputs[static_cast<size_t>(t)].view(), y.view());
  });
}

TEST(ConcurrentApply, HssMatvecBitwiseEqualAcrossEightThreads) {
  const auto& ops = SharedOperators::get();
  const index_t n = ops.hss.size();
  std::vector<Matrix> inputs;
  for (int t = 0; t < kThreads; ++t) inputs.push_back(random_matrix(n, 2, 200 + t));
  expect_concurrent_matches_serial(n, 2, [&](batched::ExecutionContext& ctx, int t, Matrix& y) {
    h2::h2_matvec(ctx, ops.hss, inputs[static_cast<size_t>(t)].view(), y.view());
  });
}

TEST(ConcurrentApply, UlvSolveManyBitwiseEqualAcrossEightThreads) {
  const auto& ops = SharedOperators::get();
  const index_t n = ops.ulv.size();
  std::vector<Matrix> inputs;
  for (int t = 0; t < kThreads; ++t) inputs.push_back(random_matrix(n, 2, 300 + t));
  expect_concurrent_matches_serial(n, 2, [&](batched::ExecutionContext& ctx, int t, Matrix& x) {
    ops.ulv.solve_many(inputs[static_cast<size_t>(t)].view(), x.view(), ctx);
  });
}

TEST(ConcurrentApply, UlvSingleSolveBitwiseEqualAcrossEightThreads) {
  const auto& ops = SharedOperators::get();
  const index_t n = ops.ulv.size();
  std::vector<std::vector<real_t>> inputs;
  for (int t = 0; t < kThreads; ++t)
    inputs.push_back(test_util::random_vector(n, static_cast<std::uint64_t>(400 + t)));
  expect_concurrent_matches_serial(n, 1, [&](batched::ExecutionContext& ctx, int t, Matrix& x) {
    ops.ulv.solve(inputs[static_cast<size_t>(t)],
                  real_span(x.data(), static_cast<size_t>(n)), ctx);
  });
}

TEST(ConcurrentApply, SharedH2SamplerSerializesItsEmbeddedContext) {
  // One H2Sampler instance shared by every thread: its embedded context is
  // mutable shared state, so sample() serializes internally. Results must
  // still match the serial pass bitwise.
  const auto& ops = SharedOperators::get();
  const index_t n = ops.h2m.size();
  std::vector<Matrix> inputs;
  for (int t = 0; t < kThreads; ++t) inputs.push_back(random_matrix(n, 2, 500 + t));

  h2::H2Sampler sampler(ops.h2m);
  std::vector<Matrix> serial(kThreads), concurrent(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    serial[static_cast<size_t>(t)] = Matrix(n, 2);
    sampler.sample(inputs[static_cast<size_t>(t)].view(), serial[static_cast<size_t>(t)].view());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      concurrent[static_cast<size_t>(t)] = Matrix(n, 2);
      sampler.sample(inputs[static_cast<size_t>(t)].view(),
                     concurrent[static_cast<size_t>(t)].view());
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(max_abs_diff(concurrent[static_cast<size_t>(t)].view(),
                           serial[static_cast<size_t>(t)].view()),
              0.0);
  EXPECT_EQ(sampler.samples_taken(), static_cast<index_t>(2 * kThreads * 2)); // 2 cols x 2 passes
}

} // namespace
} // namespace h2sketch
