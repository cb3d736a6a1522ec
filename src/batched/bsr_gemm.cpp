#include "batched/bsr_gemm.hpp"

#include <memory>
#include <utility>

#include "obs/trace.hpp"

namespace h2sketch::batched {

namespace {

/// Owned CSR pattern and operand views of the in-flight launch.
struct BsrLaunch {
  std::vector<index_t> row_ptr, col;
  std::vector<ConstMatrixView> blocks, x;
  std::vector<la::Op> ops;
  std::vector<MatrixView> y;
};

} // namespace

void bsr_gemm(ExecutionContext& ctx, StreamId stream, real_t alpha,
              std::vector<index_t> row_ptr, std::vector<index_t> col,
              std::vector<ConstMatrixView> blocks, std::vector<la::Op> ops,
              std::vector<ConstMatrixView> x, std::vector<MatrixView> y) {
  obs::ScopedLaunchLabel label("bsr_gemm");
  obs::TraceSpan span("backend", "bsr_gemm", "blocks", blocks.size());
  ctx.device().on_launch("bsr_gemm");
  H2S_CHECK(!row_ptr.empty(), "bsr_gemm: row_ptr must have at least one entry");
  const index_t rows = static_cast<index_t>(row_ptr.size()) - 1;
  H2S_CHECK(static_cast<index_t>(y.size()) == rows, "bsr_gemm: output count mismatch");
  H2S_CHECK(col.size() == blocks.size() && ops.size() == blocks.size(),
            "bsr_gemm: block count mismatch");
  if (blocks.empty()) return;

  auto st = std::make_shared<BsrLaunch>(BsrLaunch{std::move(row_ptr), std::move(col),
                                                  std::move(blocks), std::move(x), std::move(ops),
                                                  std::move(y)});

  // Entry r: y[r] += alpha * op_e(blocks[e]) * x[col[e]] for row r's blocks
  // e in CSR order, each product one la::gemm.
  ctx.run_batch(
      stream, rows,
      [&g = *st](index_t r) {
        index_t cost = 0;
        for (index_t e = g.row_ptr[static_cast<size_t>(r)];
             e < g.row_ptr[static_cast<size_t>(r + 1)]; ++e) {
          const auto ue = static_cast<size_t>(e);
          cost += g.blocks[ue].rows * g.blocks[ue].cols * g.x[static_cast<size_t>(g.col[ue])].cols;
        }
        return cost;
      },
      [st, alpha](index_t r) {
        const MatrixView y_r = st->y[static_cast<size_t>(r)];
        if (y_r.empty()) return;
        for (index_t e = st->row_ptr[static_cast<size_t>(r)];
             e < st->row_ptr[static_cast<size_t>(r + 1)]; ++e) {
          const auto ue = static_cast<size_t>(e);
          if (st->blocks[ue].empty()) continue;
          la::gemm(alpha, st->blocks[ue], st->ops[ue], st->x[static_cast<size_t>(st->col[ue])],
                   la::Op::None, 1.0, y_r);
        }
      });
}

void bsr_gemm(ExecutionContext& ctx, real_t alpha, const_index_span row_ptr,
              const_index_span col, std::span<const ConstMatrixView> blocks,
              std::span<const la::Op> ops, std::span<const ConstMatrixView> x,
              std::span<const MatrixView> y) {
  bsr_gemm(ctx, kSampleStream, alpha, {row_ptr.begin(), row_ptr.end()}, {col.begin(), col.end()},
           {blocks.begin(), blocks.end()}, {ops.begin(), ops.end()}, {x.begin(), x.end()},
           {y.begin(), y.end()});
  ctx.sync(kSampleStream);
}

} // namespace h2sketch::batched
