#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"
#include "bench_common.hpp"
#include "la/blas.hpp"
#include "la/gemm_engine.hpp"

/// \file bench_gemm.cpp
/// Single-threaded GFLOP/s of `la::gemm` (register tiles) against the naive
/// reference over the shape distribution the library actually issues:
///   - the per-block products of the H2 apply and construction (near-field
///     block, query column, upsweep, leaf expansion, the entry generator's
///     R·B·Cᵀ, the HSS leaf block), which decide the near field's speed,
///   - square and sketching-sized products of the per-node builds,
///   - the compute-bound products of dense sampling and densification (the
///     acceptance bar is >= 4x over naive at 512^3).
///
/// Results go to BENCH_gemm.json. `--smoke` runs a reduced shape set and
/// cross-checks `la::gemm` and `la::gemm_parallel` against the naive
/// reference on edge shapes of all four op combinations (CI runs it under
/// ASan, so the unpacked loads and the staging are sanitizer-covered);
/// `--smoke` exits non-zero on any mismatch.

namespace {

using namespace h2sketch;

struct Shape {
  index_t m, n, k;
  la::Op oa, ob;
  const char* what;
};

enum class Path { Naive, Gemm, Parallel };

void run_path(Path p, real_t alpha, ConstMatrixView a, la::Op oa, ConstMatrixView b, la::Op ob,
              real_t beta, MatrixView c) {
  switch (p) {
    case Path::Naive: la::gemm_naive(alpha, a, oa, b, ob, beta, c); break;
    case Path::Gemm: la::gemm(alpha, a, oa, b, ob, beta, c); break;
    case Path::Parallel: la::gemm_parallel(alpha, a, oa, b, ob, beta, c); break;
  }
}

double time_gemm(Path path, index_t m, index_t n, index_t k, la::Op oa, la::Op ob,
                 double min_seconds) {
  Matrix av(oa == la::Op::None ? m : k, oa == la::Op::None ? k : m);
  Matrix bv(ob == la::Op::None ? k : n, ob == la::Op::None ? n : k);
  fill_gaussian(av.view(), GaussianStream(1));
  fill_gaussian(bv.view(), GaussianStream(2));
  Matrix c(m, n);
  // One untimed warm-up (faults in C's pages, warms caches and the branch
  // predictors), then repeat until the timed window is long enough to trust.
  run_path(path, 1.0, av.view(), oa, bv.view(), ob, 0.0, c.view());
  int reps = 0;
  double elapsed = 0.0;
  WallTimer t;
  do {
    run_path(path, 1.0, av.view(), oa, bv.view(), ob, 0.0, c.view());
    ++reps;
    elapsed = t.elapsed();
  } while (elapsed < min_seconds);
  return elapsed / reps;
}

const char* op_str(la::Op o) { return o == la::Op::None ? "N" : "T"; }

/// max |path - naive| for one shape with alpha = 1.7, beta = -0.3; returns
/// the error so --smoke can gate on it.
real_t cross_check(Path path, index_t m, index_t n, index_t k, la::Op oa, la::Op ob) {
  const Matrix a = [&] {
    Matrix x(oa == la::Op::None ? m : k, oa == la::Op::None ? k : m);
    fill_gaussian(x.view(), GaussianStream(11));
    return x;
  }();
  const Matrix b = [&] {
    Matrix x(ob == la::Op::None ? k : n, ob == la::Op::None ? n : k);
    fill_gaussian(x.view(), GaussianStream(12));
    return x;
  }();
  Matrix c0(m, n);
  fill_gaussian(c0.view(), GaussianStream(13));
  Matrix c1 = to_matrix(c0.view()), c2 = to_matrix(c0.view());
  run_path(path, 1.7, a.view(), oa, b.view(), ob, -0.3, c1.view());
  la::gemm_naive(1.7, a.view(), oa, b.view(), ob, -0.3, c2.view());
  return max_abs_diff(c1.view(), c2.view());
}

} // namespace

int main(int argc, char** argv) {
  const bool smoke = h2sketch::bench::has_flag(argc, argv, "--smoke");
  constexpr la::Op N = la::Op::None, T = la::Op::Trans;

  std::vector<Shape> shapes = {
      // Per-block products of the H2/HSS applies and the construction.
      {32, 16, 32, N, N, "near-block"},
      {32, 1, 32, N, N, "near-query"},
      {20, 16, 32, T, N, "upsweep-leaf"},
      {32, 16, 20, N, N, "leaf-expand"},
      {32, 32, 20, N, T, "entry-gen-rbc"},
      {64, 16, 64, N, N, "hss-leaf"},
      // Per-node builds and sketching-sized products.
      {32, 32, 32, N, N, "square-32"},
      {48, 48, 48, N, N, "square-48"},
      {64, 64, 64, N, N, "square-64"},
      {96, 96, 96, N, N, "square-96"},
      {128, 128, 128, N, N, "square-128"},
      {64, 32, 64, N, N, "leaf-sample"},
      {128, 32, 128, N, N, "leaf-sample-128"},
      {64, 32, 16, N, N, "transfer-apply"},
      {32, 32, 64, T, N, "basis-gram"},
      {128, 128, 128, T, N, "square-128-tn"},
      // Compute-bound products.
      {256, 256, 256, N, N, "square-256"},
      {512, 512, 512, N, N, "square-512"},
      {256, 48, 256, N, N, "leaf-sample-256"},
      {2048, 32, 2048, N, N, "dense-sketch"},
      {512, 48, 512, T, N, "sketch-tn"},
      {256, 256, 32, N, T, "lowrank-outer"},
      {512, 512, 512, T, T, "square-512-tt"},
  };
  if (smoke)
    shapes = {{96, 96, 96, N, N, "square-96"},
              {130, 40, 128, N, N, "leaf-sample"},
              {70, 33, 129, T, T, "edge-tt"},
              {37, 17, 33, N, N, "edge-nn"},
              {41, 9, 131, T, N, "edge-tn"},
              {23, 13, 19, N, T, "edge-nt"},
              {65, 5, 9, T, T, "edge-tt-thin"},
              {33, 1, 32, N, N, "edge-query"}};

  const double min_seconds = smoke ? 0.01 : 0.25;

  std::cout << std::left << std::setw(18) << "shape" << std::setw(16) << "m x n x k"
            << std::setw(6) << "ops" << std::setw(12) << "naive GF/s" << "gemm GF/s\n";

  std::ofstream json("BENCH_gemm.json");
  json << "{\n  \"bench\": \"gemm\",\n  \"mode\": \"" << (smoke ? "smoke" : "full")
       << "\",\n  \"shapes\": [\n";

  bool ok = true;
  double speedup_512 = 0.0;
  for (size_t s = 0; s < shapes.size(); ++s) {
    const auto& sh = shapes[s];
    // Errors from reordered summation scale like k * eps * |entries|; an
    // indexing bug shows up as O(1).
    const real_t tol = 1e-12 * static_cast<real_t>(sh.k);
    real_t err = 0.0;
    for (Path p : {Path::Gemm, Path::Parallel}) {
      const real_t e = cross_check(p, sh.m, sh.n, sh.k, sh.oa, sh.ob);
      if (e > tol) {
        std::cerr << "MISMATCH at " << sh.what << " ("
                  << (p == Path::Gemm ? "gemm" : "gemm_parallel") << "): max diff " << e << " > "
                  << tol << "\n";
        ok = false;
      }
      err = std::max(err, e);
    }
    const double t_naive = time_gemm(Path::Naive, sh.m, sh.n, sh.k, sh.oa, sh.ob, min_seconds);
    const double t_gemm = time_gemm(Path::Gemm, sh.m, sh.n, sh.k, sh.oa, sh.ob, min_seconds);
    const double flops = 2.0 * static_cast<double>(sh.m) * static_cast<double>(sh.n) *
                         static_cast<double>(sh.k);
    const double gf_naive = flops / t_naive / 1e9, gf_gemm = flops / t_gemm / 1e9;
    if (sh.m == 512 && sh.n == 512 && sh.k == 512 && sh.oa == N && sh.ob == N)
      speedup_512 = t_naive / t_gemm;

    std::ostringstream dims;
    dims << sh.m << "x" << sh.n << "x" << sh.k;
    std::cout << std::left << std::setw(18) << sh.what << std::setw(16) << dims.str()
              << std::setw(6) << (std::string(op_str(sh.oa)) + op_str(sh.ob)) << std::setw(12)
              << std::setprecision(4) << gf_naive << gf_gemm << "\n";

    json << "    {\"shape\": \"" << sh.what << "\", \"m\": " << sh.m << ", \"n\": " << sh.n
         << ", \"k\": " << sh.k << ", \"op_a\": \"" << op_str(sh.oa) << "\", \"op_b\": \""
         << op_str(sh.ob) << "\", \"gflops_naive\": " << gf_naive
         << ", \"gflops_gemm\": " << gf_gemm << ", \"max_abs_diff\": " << err << "}"
         << (s + 1 < shapes.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"speedup_512\": " << speedup_512 << ",\n  \"correct\": "
       << (ok ? "true" : "false") << "\n}\n";

  if (!smoke && speedup_512 > 0.0)
    std::cout << "\n512^3 single-threaded gemm speedup over naive: " << std::setprecision(3)
              << speedup_512 << "x (acceptance bar: 4x)\n";
  if (!ok) {
    std::cerr << "bench_gemm: correctness cross-check FAILED\n";
    return 1;
  }
  return 0;
}
