#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "batched/batched_solve.hpp"
#include "common/random.hpp"
#include "core/construction.hpp"
#include "h2/h2_dense.hpp"
#include "h2/h2_matvec.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/kernels.hpp"
#include "la/blas.hpp"
#include "solver/hss_construction.hpp"
#include "solver/pcg.hpp"
#include "solver/ulv.hpp"
#include "test_common.hpp"

/// \file test_solver.cpp
/// The HSS/ULV solver subsystem: genuine bottom-up HSS construction into the
/// dedicated generator storage, ULV Cholesky factorization + solve sweeps,
/// the batched potrf/trsm primitives they launch, and the pcg driver that
/// uses a coarse HSS-ULV factorization to precondition the H2 matvec.

namespace h2sketch::solver {
namespace {

using test_util::dense_kernel_matrix;
using test_util::random_matrix;
using test_util::rel_fro_error;

/// Relative residual ||A x - b||_2 / ||b||_2 with dense A.
real_t dense_rel_residual(ConstMatrixView a, const std::vector<real_t>& x,
                          const std::vector<real_t>& b) {
  std::vector<real_t> r(b.size(), 0.0);
  la::gemv(1.0, a, la::Op::None, x, 0.0, r);
  real_t num = 0.0, den = 0.0;
  for (size_t i = 0; i < b.size(); ++i) {
    num += (r[i] - b[i]) * (r[i] - b[i]);
    den += b[i] * b[i];
  }
  return std::sqrt(num / den);
}

TEST(HssConstruction, DensifiedMatrixMatchesKernelMatrix) {
  auto tr = test_util::build_cube_tree(512, 2, 71, 32);
  kern::ExponentialKernel k(0.3);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-7;
  opts.sample_block = 16;
  opts.initial_samples = 32;
  auto res = build_hss(tr, sampler, gen, opts);
  res.matrix.validate();
  EXPECT_LT(rel_fro_error(h2::densify(res.matrix).view(), kd.view()), 1e-5);
  EXPECT_EQ(res.stats.csp, 1);
  EXPECT_GT(res.stats.total_samples, 0);
  EXPECT_EQ(res.stats.total_samples, sampler.samples_taken());
  EXPECT_GT(res.stats.max_rank, 0);
  EXPECT_EQ(res.stats.nonconverged_nodes, 0);
}

TEST(HssConstruction, AdaptiveSamplingAddsRoundsWhenInitialBlockIsSmall) {
  auto tr = test_util::build_cube_tree(512, 3, 72, 32);
  kern::ExponentialKernel k(0.2);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-6;
  opts.sample_block = 8;
  opts.initial_samples = 8; // far below the 3D ranks: must adapt
  auto res = build_hss(tr, sampler, gen, opts);
  EXPECT_GT(res.stats.sample_rounds, 1);
  EXPECT_LT(rel_fro_error(h2::densify(res.matrix).view(), kd.view()), 5e-4);
}

TEST(BatchedSolve, PotrfAndTrsmMatchReferenceInBothBackends) {
  // The new batched primitives against la:: applied per entry, Batched vs
  // Naive backend parity included.
  SmallRng rng(515);
  const index_t batch = 12;
  std::vector<Matrix> spd(batch), rhs(batch), spd_ref(batch), rhs_ref(batch);
  for (index_t e = 0; e < batch; ++e) {
    const index_t n = 1 + rng.next_index(40);
    const index_t m = 1 + rng.next_index(12);
    const Matrix g = random_matrix(n, n, 900 + static_cast<std::uint64_t>(e));
    Matrix a(n, n);
    la::gemm(1.0, g.view(), la::Op::None, g.view(), la::Op::Trans, 0.0, a.view());
    for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<real_t>(n);
    spd[static_cast<size_t>(e)] = to_matrix(a.view());
    spd_ref[static_cast<size_t>(e)] = to_matrix(a.view());
    rhs[static_cast<size_t>(e)] = random_matrix(m, n, 1900 + static_cast<std::uint64_t>(e));
    rhs_ref[static_cast<size_t>(e)] = to_matrix(rhs[static_cast<size_t>(e)].view());
  }
  for (auto backend : {batched::Backend::Batched, batched::Backend::Naive}) {
    std::vector<Matrix> a_run(batch), b_run(batch);
    for (index_t e = 0; e < batch; ++e) {
      a_run[static_cast<size_t>(e)] = to_matrix(spd[static_cast<size_t>(e)].view());
      b_run[static_cast<size_t>(e)] = to_matrix(rhs[static_cast<size_t>(e)].view());
    }
    batched::ExecutionContext ctx(backend);
    std::vector<MatrixView> av;
    for (auto& m : a_run) av.push_back(m.view());
    batched::batched_potrf(ctx, batched::kSampleStream, std::move(av));
    std::vector<ConstMatrixView> lv;
    std::vector<MatrixView> bv;
    for (index_t e = 0; e < batch; ++e) {
      lv.push_back(a_run[static_cast<size_t>(e)].view());
      bv.push_back(b_run[static_cast<size_t>(e)].view());
    }
    batched::batched_trsm_lower(ctx, batched::kSampleStream, batched::TrsmSide::Right,
                                la::Op::Trans, std::move(lv), std::move(bv));
    ctx.sync_all();
    for (index_t e = 0; e < batch; ++e) {
      Matrix ref_l = to_matrix(spd_ref[static_cast<size_t>(e)].view());
      la::cholesky(ref_l.view());
      Matrix ref_b = to_matrix(rhs_ref[static_cast<size_t>(e)].view());
      la::trsm_lower_right(ref_l.view(), la::Op::Trans, ref_b.view());
      EXPECT_EQ(max_abs_diff(a_run[static_cast<size_t>(e)].view(), ref_l.view()), 0.0)
          << "entry " << e;
      EXPECT_EQ(max_abs_diff(b_run[static_cast<size_t>(e)].view(), ref_b.view()), 0.0)
          << "entry " << e;
    }
  }
}

TEST(Ulv, SolveResidualTracksConstructionTolerance) {
  const index_t n = 600;
  auto tr = test_util::build_cube_tree(n, 2, 73, 32);
  kern::ExponentialKernel base(0.3);
  kern::RidgeKernel k(base, 1.0); // SPD with a healthy margin
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-7;
  opts.sample_block = 16;
  opts.initial_samples = 32;
  auto res = build_hss(tr, sampler, gen, opts);
  UlvCholesky f = ulv_factor(res.matrix);
  EXPECT_GT(f.memory_bytes(), 0u);

  const std::vector<real_t> b = test_util::random_vector(n, 77);
  std::vector<real_t> x(static_cast<size_t>(n));
  f.solve(b, x);
  // Acceptance shape: relative residual within 100x the construction tol.
  EXPECT_LT(dense_rel_residual(kd.view(), x, b), 100 * opts.tol);
}

TEST(Ulv, MatchesDenseCholeskyAtTightTolerance) {
  const index_t n = 320;
  auto tr = test_util::build_cube_tree(n, 2, 74, 16);
  kern::ExponentialKernel base(0.5);
  kern::RidgeKernel k(base, 1.0);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-12;
  opts.sample_block = 32;
  opts.initial_samples = 64;
  auto res = build_hss(tr, sampler, gen, opts);
  UlvCholesky f = ulv_factor(res.matrix);

  const std::vector<real_t> b = test_util::random_vector(n, 78);
  std::vector<real_t> x(static_cast<size_t>(n));
  f.solve(b, x);

  Matrix dense = to_matrix(kd.view());
  la::cholesky(dense.view());
  Matrix rhs(n, 1);
  for (index_t i = 0; i < n; ++i) rhs(i, 0) = b[static_cast<size_t>(i)];
  la::cholesky_solve(dense.view(), rhs.view());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(x[static_cast<size_t>(i)], rhs(i, 0), 1e-8);
}

TEST(Ulv, SolveManyMatchesColumnwiseSolves) {
  const index_t n = 450, nrhs = 5;
  auto tr = test_util::build_cube_tree(n, 2, 75, 32);
  kern::ExponentialKernel base(0.3);
  kern::RidgeKernel k(base, 1.0);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-8;
  opts.sample_block = 16;
  opts.initial_samples = 32;
  auto res = build_hss(tr, sampler, gen, opts);
  UlvCholesky f = ulv_factor(res.matrix);

  Matrix b(n, nrhs), x_many(n, nrhs);
  fill_gaussian(b.view(), GaussianStream(79));
  f.solve_many(b.view(), x_many.view());
  for (index_t j = 0; j < nrhs; ++j) {
    std::vector<real_t> bj(static_cast<size_t>(n)), xj(static_cast<size_t>(n));
    for (index_t i = 0; i < n; ++i) bj[static_cast<size_t>(i)] = b(i, j);
    f.solve(bj, xj);
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(x_many(i, j), xj[static_cast<size_t>(i)], 1e-11) << "rhs " << j;
  }
}

TEST(Ulv, ThrowsOnIndefiniteMatrix) {
  // A kernel matrix shifted far negative on the diagonal is not SPD; the
  // factorization must refuse it instead of producing garbage.
  const index_t n = 256;
  auto tr = test_util::build_cube_tree(n, 2, 76, 32);
  kern::ExponentialKernel base(0.3);
  kern::RidgeKernel k(base, -2.0);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-8;
  opts.sample_block = 16;
  opts.initial_samples = 32;
  auto res = build_hss(tr, sampler, gen, opts);
  EXPECT_THROW(ulv_factor(res.matrix), std::runtime_error);
}

TEST(Ulv, RejectsAMatrixWithoutTheWeakPattern) {
  // ULV reads the HSS pattern in place; a strong-admissibility H2 matrix of
  // the same kernel has more far pairs per row and a wider near field.
  auto tr = test_util::build_cube_tree(512, 2, 84, 32);
  kern::ExponentialKernel base(0.3);
  kern::RidgeKernel k(base, 1.0);
  kern::KernelMatVecSampler sampler(*tr, k);
  kern::KernelEntryGenerator gen(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-6;
  auto res = core::construct_h2(tr, tree::Admissibility::general(0.7), sampler, gen, opts);
  try {
    (void)ulv_factor(res.matrix);
    FAIL() << "ulv_factor accepted a strong-admissibility matrix";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("weak-admissibility (HSS) pattern"), std::string::npos)
        << e.what();
  }
}

TEST(Ulv, SingleLevelTreeFallsBackToDenseCholesky) {
  const index_t n = 24;
  auto tr = test_util::build_cube_tree(n, 2, 80, 32); // one cluster: no hierarchy
  ASSERT_EQ(tr->num_levels(), 1);
  kern::ExponentialKernel base(0.3);
  kern::RidgeKernel k(base, 1.0);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  core::ConstructionOptions opts;
  auto res = build_hss(tr, sampler, gen, opts);
  UlvCholesky f = ulv_factor(res.matrix);
  const std::vector<real_t> b = test_util::random_vector(n, 81);
  std::vector<real_t> x(static_cast<size_t>(n));
  f.solve(b, x);
  EXPECT_LT(dense_rel_residual(kd.view(), x, b), 1e-12);
}

TEST(Pcg, HssUlvPreconditionerCutsIterationsByThreeOrMore) {
  // The serving pattern: operator applied through the strong-admissibility
  // H2 matvec; preconditioner is the ULV factorization of a coarse
  // (loose-tolerance) HSS compression of the same operator.
  const index_t n = 900;
  auto tr = test_util::build_cube_tree(n, 2, 82, 32);
  kern::ExponentialKernel base(0.5);
  kern::RidgeKernel k(base, 0.02); // small ridge: ill-conditioned enough
  const Matrix kd = dense_kernel_matrix(*tr, k);
  kern::KernelEntryGenerator gen(*tr, k);

  // Fine operator (the "A" of the linear system).
  kern::DenseMatrixSampler s_h2(kd.view());
  core::ConstructionOptions fine;
  fine.tol = 1e-9;
  fine.sample_block = 32;
  fine.initial_samples = 64;
  auto a_h2 =
      core::construct_h2(tr, tree::Admissibility::general(0.7), s_h2, gen, fine);
  batched::ExecutionContext ctx;
  ApplyFn apply_a = [&](const_real_span in, real_span out) {
    ConstMatrixView xi(in.data(), n, 1, n);
    MatrixView yo(out.data(), n, 1, n);
    h2::h2_matvec(ctx, a_h2.matrix, xi, yo);
    ctx.sync_all();
  };

  // Coarse preconditioner.
  kern::DenseMatrixSampler s_hss(kd.view());
  core::ConstructionOptions coarse;
  coarse.tol = 1e-4;
  coarse.sample_block = 16;
  coarse.initial_samples = 32;
  auto m_hss = build_hss(tr, s_hss, gen, coarse);
  UlvCholesky f = ulv_factor(m_hss.matrix);

  const std::vector<real_t> b = test_util::random_vector(n, 83);
  PcgOptions popts;
  popts.tol = 1e-8;
  popts.max_iters = 2000;

  std::vector<real_t> x_plain(static_cast<size_t>(n), 0.0);
  PcgResult plain = pcg(apply_a, b, x_plain, popts);
  ASSERT_TRUE(plain.converged);

  std::vector<real_t> x_pre(static_cast<size_t>(n), 0.0);
  PcgResult pre = pcg(apply_a, b, x_pre, popts, f);
  ASSERT_TRUE(pre.converged);

  // The acceptance bar: <= 1/3 the unpreconditioned iterations.
  EXPECT_LE(3 * pre.iterations, plain.iterations)
      << "plain " << plain.iterations << " vs preconditioned " << pre.iterations;
  // Both converged to the same solution of the H2 operator.
  real_t diff = 0.0;
  for (index_t i = 0; i < n; ++i)
    diff = std::max(diff, std::abs(x_plain[static_cast<size_t>(i)] -
                                   x_pre[static_cast<size_t>(i)]));
  EXPECT_LT(diff, 1e-5);
}

} // namespace
} // namespace h2sketch::solver
