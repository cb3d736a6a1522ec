#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hpp"
#include "core/construction.hpp"
#include "h2/cheb_construction.hpp"
#include "h2/h2_entry_eval.hpp"
#include "h2/h2_matvec.hpp"
#include "kernels/kernels.hpp"
#include "test_common.hpp"

/// \file test_flat_budget.cpp
/// Large-N regression guard for the paper's flat-budget claim (`ctest -L
/// slow`): the number of samples the adaptive construction draws depends on
/// the operator's numerical ranks, not on N, so growing the problem to
/// N = 8192 must not inflate the sampling budget. The envelopes below were
/// recorded from the current implementation; if future perf work (kernel
/// reordering, convergence-probe changes, ID tweaks) silently makes the
/// construction sample more, this suite is the tripwire.

namespace h2sketch {
namespace {

using core::ConstructionOptions;
using tree::Admissibility;

struct FlatBudgetRun {
  core::ConstructionStats stats;
  real_t matvec_rel_err = 0.0;
};

FlatBudgetRun run_construction(index_t n, index_t initial, index_t block) {
  auto tr = test_util::build_cube_tree(n, 3, 404, 32);
  kern::ExponentialKernel k(0.2);
  const h2::H2Matrix input = h2::build_cheb_h2(tr, Admissibility::general(0.9), k, /*q=*/3);
  h2::H2Sampler sampler(input);
  h2::H2EntryGenerator gen(input);
  ConstructionOptions opts;
  opts.tol = 1e-6;
  opts.sample_block = block;
  opts.initial_samples = initial;
  auto res = core::construct_h2(tr, Admissibility::general(0.9), sampler, gen, opts);

  Matrix x(n, 2), y1(n, 2), y2(n, 2);
  fill_gaussian(x.view(), GaussianStream(7));
  h2::h2_matvec(input, x.view(), y1.view());
  h2::h2_matvec(res.matrix, x.view(), y2.view());
  real_t diff = 0, ref = 0;
  for (index_t j = 0; j < y1.cols(); ++j)
    for (index_t i = 0; i < n; ++i) {
      diff += (y1(i, j) - y2(i, j)) * (y1(i, j) - y2(i, j));
      ref += y1(i, j) * y1(i, j);
    }
  return {res.stats, std::sqrt(diff / ref)};
}

TEST(FlatBudget, PaperConfigSampleCountIsFlatInN) {
  // The paper's operating point: sample block d >= rank + oversampling.
  // Recorded behavior: one 64-column round converges everywhere at both
  // sizes. Envelopes rather than exact pins: convergence probes sit on
  // floating-point thresholds and the per-process GEMM clone selection
  // (base/AVX2+FMA/AVX-512) can legitimately shift a node by one round on
  // other hardware — the guard is against growth *in N*, not ISA jitter.
  const FlatBudgetRun small = run_construction(2048, /*initial=*/64, /*block=*/32);
  const FlatBudgetRun large = run_construction(8192, /*initial=*/64, /*block=*/32);
  for (const auto* run : {&small, &large}) {
    EXPECT_LE(run->stats.total_samples, 96);
    EXPECT_LE(run->stats.sample_rounds, 2);
    EXPECT_EQ(run->stats.nonconverged_nodes, 0);
    EXPECT_LT(run->matvec_rel_err, 1e-4);
  }
  // Flatness: 4x the points may cost at most one extra sample block.
  EXPECT_LE(large.stats.total_samples, small.stats.total_samples + 32);
}

TEST(FlatBudget, AdaptiveRampUpStaysWithinRecordedEnvelope) {
  // Undersized initial round: the adaptive loop must ramp up, but the total
  // it settles on is a property of the operator's ranks. Recorded values at
  // tol 1e-6, d = 16: 32 samples at N = 2048, 80 at N = 8192. The upper
  // bounds allow one extra round of drift (convergence probes sit on
  // floating-point thresholds; FMA vs non-FMA kernels can shift a node);
  // anything beyond that is a sampling regression.
  const FlatBudgetRun small = run_construction(2048, /*initial=*/16, /*block=*/16);
  EXPECT_GE(small.stats.sample_rounds, 2); // adaptivity actually engaged
  EXPECT_LE(small.stats.total_samples, 48);
  EXPECT_EQ(small.stats.nonconverged_nodes, 0);

  const FlatBudgetRun large = run_construction(8192, /*initial=*/16, /*block=*/16);
  EXPECT_GE(large.stats.sample_rounds, 2);
  EXPECT_LE(large.stats.total_samples, 96);
  EXPECT_EQ(large.stats.nonconverged_nodes, 0);
  EXPECT_LT(large.matvec_rel_err, 1e-4);

  // 4x the points may cost at most one extra ramp-up round's worth of
  // samples relative to the recorded 2.5x — not a multiplicative blow-up.
  EXPECT_LE(large.stats.total_samples, 3 * small.stats.total_samples);
}

} // namespace
} // namespace h2sketch
