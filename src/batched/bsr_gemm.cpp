#include "batched/bsr_gemm.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/trace.hpp"

namespace h2sketch::batched {

namespace {

/// Owned CSR pattern and operand views of the in-flight sub-launches.
struct BsrLaunch {
  std::vector<index_t> row_ptr, col;
  std::vector<ConstMatrixView> blocks, x;
  std::vector<MatrixView> y;
};

} // namespace

index_t bsr_gemm(ExecutionContext& ctx, StreamId stream, real_t alpha,
                 std::vector<index_t> row_ptr, std::vector<index_t> col,
                 std::vector<ConstMatrixView> blocks, std::vector<ConstMatrixView> x,
                 std::vector<MatrixView> y) {
  obs::ScopedLaunchLabel label("bsr_gemm");
  obs::TraceSpan span("backend", "bsr_gemm", "blocks", blocks.size());
  ctx.device().on_launch("bsr_gemm");
  H2S_CHECK(!row_ptr.empty(), "bsr_gemm: row_ptr must have at least one entry");
  const index_t rows = static_cast<index_t>(row_ptr.size()) - 1;
  H2S_CHECK(static_cast<index_t>(y.size()) == rows, "bsr_gemm: output count mismatch");
  H2S_CHECK(col.size() == blocks.size(), "bsr_gemm: block count mismatch");

  index_t max_per_row = 0;
  for (index_t r = 0; r < rows; ++r)
    max_per_row = std::max(max_per_row,
                           row_ptr[static_cast<size_t>(r + 1)] - row_ptr[static_cast<size_t>(r)]);

  auto st = std::make_shared<BsrLaunch>(BsrLaunch{std::move(row_ptr), std::move(col),
                                                  std::move(blocks), std::move(x), std::move(y)});

  // Sub-launch k: the k-th block of each row (rows with fewer blocks skip).
  // Each y[r] is touched by exactly one batch entry per sub-launch, and the
  // sub-launches run FIFO on `stream`. The per-block products route through
  // la::gemm's engine dispatch, so wide sample blocks are computed by the
  // blocked GEMM engine.
  for (index_t k = 0; k < max_per_row; ++k) {
    ctx.run_batch(
        stream, rows,
        [&g = *st, k](index_t r) -> index_t {
          const index_t base = g.row_ptr[static_cast<size_t>(r)];
          if (base + k >= g.row_ptr[static_cast<size_t>(r + 1)]) return 0;
          const auto e = static_cast<size_t>(base + k);
          return g.blocks[e].rows * g.blocks[e].cols * g.x[static_cast<size_t>(g.col[e])].cols;
        },
        [st, alpha, k](index_t r) {
          const index_t base = st->row_ptr[static_cast<size_t>(r)];
          if (base + k >= st->row_ptr[static_cast<size_t>(r + 1)]) return;
          const auto e = static_cast<size_t>(base + k);
          const index_t c = st->col[e];
          if (st->y[static_cast<size_t>(r)].empty() || st->blocks[e].empty()) return;
          la::gemm(alpha, st->blocks[e], la::Op::None, st->x[static_cast<size_t>(c)],
                   la::Op::None, 1.0, st->y[static_cast<size_t>(r)]);
        });
  }
  return max_per_row;
}

index_t bsr_gemm(ExecutionContext& ctx, real_t alpha, const_index_span row_ptr,
                 const_index_span col, std::span<const ConstMatrixView> blocks,
                 std::span<const ConstMatrixView> x, std::span<const MatrixView> y) {
  const index_t n = bsr_gemm(ctx, kSampleStream, alpha, {row_ptr.begin(), row_ptr.end()},
                             {col.begin(), col.end()}, {blocks.begin(), blocks.end()},
                             {x.begin(), x.end()}, {y.begin(), y.end()});
  ctx.sync(kSampleStream);
  return n;
}

} // namespace h2sketch::batched
