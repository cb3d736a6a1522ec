#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "batched/device.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"
#include "core/construction.hpp"
#include "geometry/point_cloud.hpp"
#include "h2/cheb_construction.hpp"
#include "h2/h2_matvec.hpp"
#include "h2/update_sampler.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/entry_gen.hpp"
#include "kernels/kernels.hpp"
#include "la/lowrank.hpp"
#include "solver/hss_construction.hpp"
#include "solver/ulv.hpp"
#include "tree/cluster_tree.hpp"

/// \file problems.hpp
/// The inputs and builds of the suite's workloads. Every input is made from
/// the workload seed: the geometry, the low-rank update factors, the
/// request vectors and the error-check columns. The program under test only
/// ever sees the generated inputs.

namespace h2sketch::suite {

/// Compression tolerance of every workload (the paper's 1e-6).
inline constexpr real_t kTol = 1e-6;

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 25.0; ///< BENCHMARK.json's run_seconds
  bool trace = false;
  bool smoke = false; ///< small sizes, short phases: exercises every path in seconds
};

/// Independent sub-seed `stream` of the workload seed (splitmix64 finalizer).
inline std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
enum SeedStream : std::uint64_t { kGeometry = 1, kUpdate = 2, kVectors = 3, kColumns = 4 };

/// Seeded Gaussian panel, n x cols.
inline Matrix gaussian_panel(index_t n, index_t cols, std::uint64_t seed) {
  Matrix x(n, cols);
  fill_gaussian(x.view(), GaussianStream(seed), 0);
  return x;
}

/// n points in the unit cube [0,1]^dim, stratified: the cube is cut into
/// the fewest m^dim >= n equal cells, n cells are picked at random and each
/// holds one uniform point. Every point is still uniform over the cube, but
/// the operator's ranks, and with them the work and the error, vary far
/// less across seeds than with i.i.d. uniform points.
inline geo::PointCloud stratified_cube(index_t n, index_t dim, std::uint64_t seed) {
  index_t m = 1;
  const auto cells_for = [dim](index_t side) {
    index_t c = 1;
    for (index_t d = 0; d < dim; ++d) c *= side;
    return c;
  };
  while (cells_for(m) < n) ++m;
  const index_t cells = cells_for(m);
  std::vector<index_t> pick(static_cast<size_t>(cells));
  for (index_t c = 0; c < cells; ++c) pick[static_cast<size_t>(c)] = c;
  SmallRng rng(seed);
  geo::PointCloud pc(n, dim);
  for (index_t i = 0; i < n; ++i) {
    const auto j = static_cast<size_t>(i + rng.next_index(cells - i));
    std::swap(pick[static_cast<size_t>(i)], pick[j]);
    index_t c = pick[static_cast<size_t>(i)];
    for (index_t d = 0; d < dim; ++d, c /= m)
      pc.coord(i, d) = (static_cast<real_t>(c % m) + rng.next_real()) / static_cast<real_t>(m);
  }
  return pc;
}

inline core::ConstructionOptions construction_options() {
  core::ConstructionOptions opts;
  opts.tol = kTol;
  opts.sample_block = 32;
  opts.initial_samples = 64;
  return opts;
}

/// A construction workload's inputs: the cluster tree and the black-box
/// pair (Kblk sampler + entry generator) the constructions consume. Pinned in
/// memory: the samplers and generators point into it.
struct Problem {
  std::shared_ptr<const tree::ClusterTree> tree;
  std::unique_ptr<kern::KernelFunction> base;
  std::unique_ptr<kern::KernelFunction> kernel;
  std::unique_ptr<h2::H2Matrix> input; ///< h2_update: the Chebyshev-built H2 being updated
  la::LowRank update;                  ///< h2_update: the rank-32 U U^T
  std::unique_ptr<kern::MatVecSampler> sampler;
  std::unique_ptr<kern::EntryGenerator> gen; ///< exact entries of K
  bool factored = false; ///< HSS + ULV (answers solves) rather than H2 (answers applies)
  real_t err_limit = 100 * kTol; ///< hard limit on the probe error of the built operator
  double tree_s = 0.0;    ///< ClusterTree::build
  double kernels_s = 0.0; ///< sampler + entry generator (+ input operator) set-up

  Problem() = default;
  Problem(const Problem&) = delete;
  Problem& operator=(const Problem&) = delete;

  index_t size() const { return tree->num_points(); }
};

/// A compressed operator ready to answer requests.
struct Operator {
  std::optional<h2::H2Matrix> h2;
  std::optional<solver::HssMatrix> hss;
  std::optional<solver::UlvCholesky> ulv;
  core::ConstructionStats stats;
  double core_s = 0.0;   ///< the sketching construction call
  double factor_s = 0.0; ///< ulv_factor (HSS workloads)

  /// Device-resident bytes: H2 arenas, or HSS plus ULV factor arenas.
  std::size_t device_bytes() const {
    if (h2) return h2->device_bytes();
    return hss->device_bytes() + ulv->device_bytes();
  }
  std::size_t factor_bytes() const { return ulv ? ulv->device_bytes() : 0; }

  void apply(batched::ExecutionContext& ctx, ConstMatrixView x, MatrixView y) const {
    if (h2)
      h2::h2_matvec(ctx, *h2, x, y);
    else
      hss->matvec(ctx, x, y);
  }
  /// The workload's single request: a solve when factored, else an apply.
  void query(batched::ExecutionContext& ctx, ConstMatrixView x, MatrixView y) const {
    if (ulv)
      ulv->solve_many(x, y, ctx);
    else
      apply(ctx, x, y);
  }
};

// --- set-up ----------------------------------------------------------------

inline void build_tree(Problem& p, geo::PointCloud points, index_t leaf) {
  const double t0 = wall_seconds();
  p.tree = std::make_shared<tree::ClusterTree>(tree::ClusterTree::build(std::move(points), leaf));
  p.tree_s = wall_seconds() - t0;
}

/// Kernel-matrix problem with the exact O(N^2) sampler.
inline std::unique_ptr<Problem> kernel_problem(geo::PointCloud points, index_t leaf,
                                               std::unique_ptr<kern::KernelFunction> base,
                                               real_t ridge) {
  auto p = std::make_unique<Problem>();
  build_tree(*p, std::move(points), leaf);
  const double t0 = wall_seconds();
  p->base = std::move(base);
  if (ridge > 0)
    p->kernel = std::make_unique<kern::RidgeKernel>(*p->base, ridge);
  const kern::KernelFunction& k = p->kernel ? *p->kernel : *p->base;
  p->sampler = std::make_unique<kern::KernelMatVecSampler>(*p->tree, k);
  p->gen = std::make_unique<kern::KernelEntryGenerator>(*p->tree, k);
  p->kernels_s = wall_seconds() - t0;
  return p;
}

/// h2_cov3d: the paper's 3D exponential covariance (l = 0.2).
inline std::unique_ptr<Problem> setup_cov3d(const RunConfig& cfg) {
  const index_t n = cfg.smoke ? 2048 : 8192;
  const index_t leaf = cfg.smoke ? 16 : 32;
  return kernel_problem(stratified_cube(n, 3, sub_seed(cfg.seed, kGeometry)), leaf,
                        std::make_unique<kern::ExponentialKernel>(0.2), 0.0);
}

/// h2_update: Fig. 5(c), a Chebyshev-built (q = 3) covariance H2 plus a
/// rank-32 U U^T, sampled through h2_matvec and generated from the H2.
inline std::unique_ptr<Problem> setup_update(const RunConfig& cfg) {
  const index_t n = cfg.smoke ? 1024 : 4096;
  const index_t leaf = cfg.smoke ? 16 : 32;
  auto p = std::make_unique<Problem>();
  build_tree(*p, stratified_cube(n, 3, sub_seed(cfg.seed, kGeometry)), leaf);
  const double t0 = wall_seconds();
  p->base = std::make_unique<kern::ExponentialKernel>(0.2);
  p->input = std::make_unique<h2::H2Matrix>(
      h2::build_cheb_h2(p->tree, tree::Admissibility::general(0.7), *p->base, 3));
  p->update = la::random_lowrank(n, n, 32, 0.05, sub_seed(cfg.seed, kUpdate));
  p->update.v = to_matrix(p->update.u.view()); // symmetric U U^T
  p->sampler = std::make_unique<h2::UpdatedH2Sampler>(*p->input, p->update);
  p->gen = std::make_unique<h2::UpdatedH2EntryGenerator>(*p->input, p->update);
  p->kernels_s = wall_seconds() - t0;
  return p;
}

/// hss_solve: 2D exponential plus ridge 10 (a regularized GP covariance).
inline std::unique_ptr<Problem> setup_hss(const RunConfig& cfg) {
  const index_t n = cfg.smoke ? 1024 : 4096;
  auto p = kernel_problem(stratified_cube(n, 2, sub_seed(cfg.seed, kGeometry)), 64,
                          std::make_unique<kern::ExponentialKernel>(0.2), 10.0);
  p->factored = true;
  return p;
}

// --- builds ----------------------------------------------------------------

/// The workload's build: H2 construction (eta = 0.7), or HSS construction
/// followed by the ULV factorization.
inline Operator build_operator(const Problem& p, kern::MatVecSampler& sampler,
                               const kern::EntryGenerator& gen, batched::ExecutionContext& ctx) {
  Operator op;
  double t0 = wall_seconds();
  if (!p.factored) {
    auto res = core::construct_h2(p.tree, tree::Admissibility::general(0.7), sampler, gen,
                                  construction_options(), ctx);
    op.core_s = wall_seconds() - t0;
    op.h2.emplace(std::move(res.matrix));
    op.stats = std::move(res.stats);
    return op;
  }
  auto res = solver::build_hss(p.tree, sampler, gen, construction_options(), ctx);
  op.core_s = wall_seconds() - t0;
  t0 = wall_seconds();
  op.ulv.emplace(solver::ulv_factor(res.matrix, ctx));
  op.factor_s = wall_seconds() - t0;
  op.hss.emplace(std::move(res.matrix));
  op.stats = std::move(res.stats);
  return op;
}

// --- accuracy --------------------------------------------------------------

/// ||a - b||_F / ||b||_F.
inline real_t rel_diff(ConstMatrixView a, ConstMatrixView b) {
  real_t num = 0, den = 0;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) {
      num += (a(i, j) - b(i, j)) * (a(i, j) - b(i, j));
      den += b(i, j) * b(i, j);
    }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

/// ||(K~ - K) W||_F / ||K W||_F for 16 seeded Gaussian columns W: a
/// randomized estimate of ||K~ - K||_F / ||K||_F, with K W from the exact
/// sampler. (Unit columns would probe single columns whose norms are far
/// below ||K||, and their error swung twofold between geometries.)
template <typename Apply>
real_t probe_error(kern::MatVecSampler& exact, Apply&& apply, std::uint64_t seed) {
  const index_t n = exact.size();
  const Matrix w = gaussian_panel(n, 16, seed);
  Matrix kw(n, 16), y(n, 16);
  exact.sample(w.view(), kw.view());
  apply(ConstMatrixView(w.view()), y.view());
  return rel_diff(y.view(), kw.view());
}

/// ||K x - b|| / ||b|| for x = solve(b), with K applied by the exact sampler.
inline real_t solve_residual(kern::MatVecSampler& exact, const solver::UlvCholesky& ulv,
                             batched::ExecutionContext& ctx, std::uint64_t seed) {
  const index_t n = exact.size();
  const Matrix b = gaussian_panel(n, 1, seed);
  Matrix x(n, 1), kx(n, 1);
  ulv.solve_many(b.view(), x.view(), ctx);
  exact.sample(x.view(), kx.view());
  return rel_diff(kx.view(), b.view());
}

} // namespace h2sketch::suite
