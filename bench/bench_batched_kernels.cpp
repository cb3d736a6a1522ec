/// Micro-benchmarks (google-benchmark) of the batched execution substrate:
/// variable-size batched gemm, the conflict-free BSR gemm, batched row-ID
/// and the counter-based Gaussian fill. These are the building blocks whose
/// batching the paper's GPU implementation lives on.

#include <benchmark/benchmark.h>

#include "batched/batched_gemm.hpp"
#include "batched/batched_id.hpp"
#include "batched/batched_rand.hpp"
#include "batched/bsr_gemm.hpp"
#include "common/random.hpp"

using namespace h2sketch;

namespace {

Matrix random_matrix(index_t m, index_t n, std::uint64_t seed) {
  Matrix a(m, n);
  SmallRng rng(seed);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) a(i, j) = rng.next_gaussian();
  return a;
}

void BM_BatchedGemm(benchmark::State& state) {
  const index_t batch = state.range(0);
  const index_t m = 32;
  std::vector<Matrix> as, bs, cs;
  std::vector<ConstMatrixView> av, bv;
  std::vector<MatrixView> cv;
  for (index_t i = 0; i < batch; ++i) {
    as.push_back(random_matrix(m, m, 1 + static_cast<std::uint64_t>(i)));
    bs.push_back(random_matrix(m, m, 100 + static_cast<std::uint64_t>(i)));
    cs.push_back(Matrix(m, m));
  }
  for (index_t i = 0; i < batch; ++i) {
    av.push_back(as[static_cast<size_t>(i)].view());
    bv.push_back(bs[static_cast<size_t>(i)].view());
    cv.push_back(cs[static_cast<size_t>(i)].view());
  }
  batched::ExecutionContext ctx(batched::Backend::Batched);
  for (auto _ : state) {
    batched::batched_gemm(ctx, 1.0, av, la::Op::None, bv, la::Op::None, 0.0, cv);
    benchmark::DoNotOptimize(cs[0].data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_BatchedGemm)->Arg(16)->Arg(64)->Arg(256);

void BM_BsrGemm(benchmark::State& state) {
  const index_t rows = state.range(0);
  const index_t bs = 32, d = 32;
  SmallRng rng(7);
  std::vector<index_t> row_ptr = {0}, col;
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < rows; ++c)
      if (rng.next_real() < 4.0 / static_cast<double>(rows)) col.push_back(c);
    row_ptr.push_back(static_cast<index_t>(col.size()));
  }
  std::vector<Matrix> blocks, xs, ys;
  std::vector<ConstMatrixView> blv, xv;
  std::vector<MatrixView> yv;
  for (size_t e = 0; e < col.size(); ++e) blocks.push_back(random_matrix(bs, bs, e));
  for (index_t c = 0; c < rows; ++c) xs.push_back(random_matrix(bs, d, 900 + c));
  for (index_t r = 0; r < rows; ++r) ys.push_back(Matrix(bs, d));
  for (auto& b : blocks) blv.push_back(b.view());
  for (auto& x : xs) xv.push_back(x.view());
  for (auto& y : ys) yv.push_back(y.view());
  const std::vector<la::Op> ops(blv.size(), la::Op::None);
  batched::ExecutionContext ctx(batched::Backend::Batched);
  for (auto _ : state) {
    batched::bsr_gemm(ctx, 1.0, row_ptr, col, blv, ops, xv, yv);
    benchmark::DoNotOptimize(ys[0].data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<index_t>(col.size()));
}
BENCHMARK(BM_BsrGemm)->Arg(32)->Arg(128);

void BM_BatchedRowId(benchmark::State& state) {
  const index_t batch = state.range(0);
  std::vector<Matrix> ys;
  std::vector<ConstMatrixView> yv;
  for (index_t i = 0; i < batch; ++i) ys.push_back(random_matrix(48, 32, 3 + i));
  for (auto& y : ys) yv.push_back(y.view());
  std::vector<la::RowID> out(static_cast<size_t>(batch));
  batched::ExecutionContext ctx(batched::Backend::Batched);
  for (auto _ : state) {
    batched::batched_row_id(ctx, yv, 1e-8, -1, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_BatchedRowId)->Arg(16)->Arg(64);

void BM_BatchedRand(benchmark::State& state) {
  const index_t n = state.range(0);
  Matrix a(n, 64);
  GaussianStream stream(5);
  batched::ExecutionContext ctx(batched::Backend::Batched);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    batched::batched_fill_gaussian(ctx, a.view(), stream, offset);
    offset += static_cast<std::uint64_t>(n) * 64;
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 64);
}
BENCHMARK(BM_BatchedRand)->Arg(1024)->Arg(8192);

} // namespace

BENCHMARK_MAIN();
