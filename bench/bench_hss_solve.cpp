/// The solver workload: HSS-compress a regularized GP covariance matrix
/// (K + sigma^2 I, exponential kernel on a 2D cloud), ULV-factor it, and
/// solve — factor time, solve time and relative residual against a dense
/// Cholesky reference. This is the serving pattern the solver subsystem
/// opens: compress once, factor once, answer many right-hand sides at O(N r)
/// each, at a fraction of the dense O(N^3)/O(N^2) cost.
///
/// Results go to BENCH_hss_solve.json: per-N HSS build/ULV factor/solve
/// seconds, solve residual (measured against the exact operator via the
/// O(N^2) on-the-fly kernel apply), memory, and the dense Cholesky
/// factor/solve reference where it fits. `--smoke` runs a tiny problem for
/// the CI sanitizer sweep; `--large` adds the N = 8192 row.

#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "geometry/point_cloud.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/entry_gen.hpp"
#include "kernels/kernels.hpp"
#include "la/blas.hpp"
#include "solver/hss_construction.hpp"
#include "solver/ulv.hpp"

using namespace h2sketch;
using namespace h2sketch::bench;

namespace {

struct Measurement {
  index_t n = 0;
  double hss_build_s = 0.0;
  double ulv_factor_s = 0.0;
  double solve_s = 0.0;       ///< single RHS
  double solve16_s = 0.0;     ///< 16-RHS batched solve, total
  real_t residual = 0.0;      ///< ||K x - b|| / ||b|| against the exact operator
  index_t max_rank = 0;
  index_t total_samples = 0;
  double hss_mb = 0.0;
  double ulv_mb = 0.0;
  bool dense_done = false;
  double dense_chol_s = 0.0;
  double dense_solve_s = 0.0;
  real_t dense_residual = 0.0;
};

Measurement run_case(index_t n, real_t tol, bool with_dense) {
  Measurement m;
  m.n = n;
  auto tr = std::make_shared<tree::ClusterTree>(
      tree::ClusterTree::build(geo::uniform_random_cube(n, 2, 4242), 64));
  kern::ExponentialKernel base(0.2);
  kern::RidgeKernel kernel(base, 10.0);
  kern::KernelMatVecSampler sampler(*tr, kernel);
  kern::KernelEntryGenerator gen(*tr, kernel);

  core::ConstructionOptions opts;
  opts.tol = tol;
  opts.sample_block = 32;
  opts.initial_samples = 64;

  double t0 = wall_seconds();
  auto res = solver::build_hss(tr, sampler, gen, opts);
  m.hss_build_s = wall_seconds() - t0;
  m.max_rank = res.stats.max_rank;
  m.total_samples = res.stats.total_samples;
  m.hss_mb = static_cast<double>(res.matrix.memory_bytes()) / (1024.0 * 1024.0);

  t0 = wall_seconds();
  solver::UlvCholesky f = solver::ulv_factor(res.matrix);
  m.ulv_factor_s = wall_seconds() - t0;
  m.ulv_mb = static_cast<double>(f.memory_bytes()) / (1024.0 * 1024.0);

  Matrix b(n, 1), x(n, 1);
  fill_gaussian(b.view(), GaussianStream(77));
  t0 = wall_seconds();
  f.solve_many(b.view(), x.view());
  m.solve_s = wall_seconds() - t0;

  Matrix b16(n, 16), x16(n, 16);
  fill_gaussian(b16.view(), GaussianStream(78));
  t0 = wall_seconds();
  f.solve_many(b16.view(), x16.view());
  m.solve16_s = wall_seconds() - t0;

  // Residual against the *exact* operator (not the HSS approximation).
  Matrix ax(n, 1);
  kern::KernelMatVecSampler applier(*tr, kernel);
  applier.sample(x.view(), ax.view());
  real_t num = 0, den = 0;
  for (index_t i = 0; i < n; ++i) {
    num += (ax(i, 0) - b(i, 0)) * (ax(i, 0) - b(i, 0));
    den += b(i, 0) * b(i, 0);
  }
  m.residual = std::sqrt(num / den);

  if (with_dense) {
    // Dense reference: assemble K in tree order, Cholesky, solve.
    Matrix kd(n, n);
    {
      std::vector<index_t> all(static_cast<size_t>(n));
      for (index_t i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
      gen.generate_block(all, all, kd.view());
    }
    t0 = wall_seconds();
    la::cholesky(kd.view());
    m.dense_chol_s = wall_seconds() - t0;
    Matrix xd = to_matrix(b.view());
    t0 = wall_seconds();
    la::cholesky_solve(kd.view(), xd.view());
    m.dense_solve_s = wall_seconds() - t0;
    Matrix axd(n, 1);
    applier.sample(xd.view(), axd.view());
    num = den = 0;
    for (index_t i = 0; i < n; ++i) {
      num += (axd(i, 0) - b(i, 0)) * (axd(i, 0) - b(i, 0));
      den += b(i, 0) * b(i, 0);
    }
    m.dense_residual = std::sqrt(num / den);
    m.dense_done = true;
  }
  return m;
}

} // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  const bool large = has_flag(argc, argv, "--large");
  const real_t tol = 1e-6;

  std::vector<index_t> sizes = smoke ? std::vector<index_t>{512} : std::vector<index_t>{2048, 4096};
  if (large) sizes.push_back(8192);

  Table table("bench_hss_solve", {"n", "hss_build_s", "ulv_factor_s", "solve_s", "residual",
                                  "dense_chol_s", "dense_residual", "max_rank"});
  table.print_header();

  std::vector<Measurement> all;
  for (index_t n : sizes) {
    const Measurement m = run_case(n, tol, /*with_dense=*/true);
    table.row({fmt(m.n), fmt(m.hss_build_s), fmt(m.ulv_factor_s), fmt(m.solve_s, 4),
               fmt(m.residual, 3), m.dense_done ? fmt(m.dense_chol_s) : "-",
               m.dense_done ? fmt(m.dense_residual, 3) : "-", fmt(m.max_rank)});
    all.push_back(m);
  }

  // Acceptance gate (mirrors the test suites): the solve residual tracks the
  // construction tolerance within two orders.
  bool ok = true;
  for (const auto& m : all)
    if (!(m.residual < 100 * tol)) ok = false;
  if (!ok) std::cout << "WARNING: solve residual exceeded 100x construction tolerance\n";

  const char* json_name = smoke ? "BENCH_hss_solve_smoke.json" : "BENCH_hss_solve.json";
  std::ofstream json(json_name);
  json << "{\n  \"bench\": \"hss_solve\",\n  \"mode\": \"" << (smoke ? "smoke" : "full")
       << "\",\n  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n  \"threads\": " << num_threads()
       << ",\n  \"workload\": \"2D cloud, exponential kernel (l=0.2) + ridge 10 "
       << "(regularized GP covariance), tol=1e-6, leaf=64\",\n  \"residual_metric\": "
       << "\"||K x - b|| / ||b|| against the exact operator via O(N^2) kernel apply\","
       << "\n  \"note\": \"hss_build_s, ulv_factor_s and the solves run on a pool of "
       << "`threads`; dense_chol_s and dense_solve_s are the single-threaded la::cholesky and "
       << "la::cholesky_solve\","
       << "\n  \"runs\": [\n";
  for (size_t i = 0; i < all.size(); ++i) {
    const auto& m = all[i];
    json << "    {\"n\": " << m.n << ", \"hss_build_s\": " << m.hss_build_s
         << ", \"ulv_factor_s\": " << m.ulv_factor_s << ", \"solve_s\": " << m.solve_s
         << ", \"solve16_s\": " << m.solve16_s << ", \"residual\": " << m.residual
         << ", \"max_rank\": " << m.max_rank << ", \"total_samples\": " << m.total_samples
         << ", \"hss_mb\": " << m.hss_mb << ", \"ulv_mb\": " << m.ulv_mb;
    if (m.dense_done)
      json << ", \"dense_chol_s\": " << m.dense_chol_s
           << ", \"dense_solve_s\": " << m.dense_solve_s
           << ", \"dense_residual\": " << m.dense_residual;
    json << "}" << (i + 1 < all.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\nwrote " << json_name << "\n";
  return ok ? 0 : 1;
}
