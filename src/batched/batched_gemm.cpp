#include "batched/batched_gemm.hpp"

#include <memory>
#include <utility>

#include "obs/trace.hpp"

namespace h2sketch::batched {

namespace {

/// Owned marshaled operands of an in-flight launch (the stream API moves
/// the caller's view vectors here so the caller's stack can unwind before
/// the launch runs).
struct GemmLaunch {
  std::vector<ConstMatrixView> a, b;
  std::vector<MatrixView> c;
};

struct GatherLaunch {
  std::vector<ConstMatrixView> src;
  std::vector<std::vector<index_t>> rows;
  std::vector<MatrixView> dst;
};

} // namespace

void batched_gemm(ExecutionContext& ctx, StreamId stream, real_t alpha,
                  std::vector<ConstMatrixView> a, la::Op op_a, std::vector<ConstMatrixView> b,
                  la::Op op_b, real_t beta, std::vector<MatrixView> c) {
  obs::ScopedLaunchLabel label("batched_gemm");
  obs::TraceSpan span("backend", "batched_gemm", "batch", c.size());
  ctx.device().on_launch("batched_gemm");
  H2S_CHECK(a.size() == b.size() && a.size() == c.size(), "batched_gemm: batch size mismatch");
  auto st = std::make_shared<GemmLaunch>(GemmLaunch{std::move(a), std::move(b), std::move(c)});
  const auto batch = static_cast<index_t>(st->c.size());
  // Per-entry cost: the m x n x k flop product. Each entry is one
  // single-threaded la::gemm on register tiles, as in the paper's CPU path.
  ctx.run_batch(
      stream, batch,
      [&g = *st, op_a](index_t i) {
        const auto ui = static_cast<size_t>(i);
        return g.c[ui].rows * g.c[ui].cols * la::op_cols(g.a[ui], op_a);
      },
      [st, alpha, op_a, op_b, beta](index_t i) {
        const auto ui = static_cast<size_t>(i);
        if (st->c[ui].empty()) return;
        la::gemm(alpha, st->a[ui], op_a, st->b[ui], op_b, beta, st->c[ui]);
      });
}

void batched_gemm(ExecutionContext& ctx, real_t alpha, std::span<const ConstMatrixView> a,
                  la::Op op_a, std::span<const ConstMatrixView> b, la::Op op_b, real_t beta,
                  std::span<const MatrixView> c) {
  batched_gemm(ctx, kSampleStream, alpha, {a.begin(), a.end()}, op_a, {b.begin(), b.end()}, op_b,
               beta, {c.begin(), c.end()});
  ctx.sync(kSampleStream);
}

void batched_gather_rows(ExecutionContext& ctx, StreamId stream,
                         std::vector<ConstMatrixView> src,
                         std::vector<std::vector<index_t>> rows, std::vector<MatrixView> dst) {
  obs::ScopedLaunchLabel label("batched_gather_rows");
  obs::TraceSpan span("backend", "batched_gather_rows", "batch", dst.size());
  ctx.device().on_launch("batched_gather_rows");
  H2S_CHECK(src.size() == rows.size() && src.size() == dst.size(),
            "batched_gather_rows: batch size mismatch");
  auto st = std::make_shared<GatherLaunch>(
      GatherLaunch{std::move(src), std::move(rows), std::move(dst)});
  const auto batch = static_cast<index_t>(st->dst.size());
  ctx.run_batch(
      stream, batch,
      [&g = *st](index_t i) {
        const auto ui = static_cast<size_t>(i);
        return g.dst[ui].rows * g.dst[ui].cols;
      },
      [st](index_t i) {
        const auto ui = static_cast<size_t>(i);
        if (st->dst[ui].empty()) return;
        h2sketch::gather_rows(st->src[ui], st->rows[ui], st->dst[ui]);
      });
}

void batched_gather_rows(ExecutionContext& ctx, std::span<const ConstMatrixView> src,
                         const std::vector<std::vector<index_t>>& rows,
                         std::span<const MatrixView> dst) {
  batched_gather_rows(ctx, kSampleStream, {src.begin(), src.end()}, rows,
                      {dst.begin(), dst.end()});
  ctx.sync(kSampleStream);
}

} // namespace h2sketch::batched
