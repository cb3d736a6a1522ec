#include "batched/batched_solve.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/trace.hpp"

namespace h2sketch::batched {

namespace {

/// Owned operand views of an in-flight trsm launch.
struct SolveLaunch {
  std::vector<ConstMatrixView> l;
  std::vector<MatrixView> b;
};

} // namespace

void batched_potrf(ExecutionContext& ctx, StreamId stream, std::vector<MatrixView> a) {
  obs::ScopedLaunchLabel label("batched_potrf");
  obs::TraceSpan span("backend", "batched_potrf", "batch", a.size());
  ctx.device().on_launch("batched_potrf");
  const auto batch = static_cast<index_t>(a.size());
  if (batch == 0) return;
  auto st = std::make_shared<std::vector<MatrixView>>(std::move(a));
  ctx.run_batch(
      stream, batch,
      [&v = *st](index_t i) {
        const index_t n = v[static_cast<size_t>(i)].rows;
        return n * n * n / 3 + 1;
      },
      [st](index_t i) {
        MatrixView& v = (*st)[static_cast<size_t>(i)];
        if (v.empty()) return;
        la::cholesky(v);
      });
}

void batched_trsm_lower(ExecutionContext& ctx, StreamId stream, TrsmSide side, la::Op op,
                        std::vector<ConstMatrixView> l, std::vector<MatrixView> b) {
  obs::ScopedLaunchLabel label("batched_trsm_lower");
  obs::TraceSpan span("backend", "batched_trsm_lower", "batch", b.size());
  ctx.device().on_launch("batched_trsm_lower");
  H2S_CHECK(l.size() == b.size(), "batched_trsm_lower: batch size mismatch");
  const auto batch = static_cast<index_t>(l.size());
  if (batch == 0) return;
  auto st = std::make_shared<SolveLaunch>(SolveLaunch{std::move(l), std::move(b)});
  ctx.run_batch(
      stream, batch,
      [&g = *st](index_t i) {
        const auto ui = static_cast<size_t>(i);
        const index_t n = g.l[ui].rows;
        const index_t nrhs = std::max(g.b[ui].rows, g.b[ui].cols);
        return n * n * nrhs + 1;
      },
      [st, side, op](index_t i) {
        const auto ui = static_cast<size_t>(i);
        if (st->l[ui].empty() || st->b[ui].empty()) return;
        if (side == TrsmSide::Left)
          la::trsm_lower_left(st->l[ui], op, st->b[ui]);
        else
          la::trsm_lower_right(st->l[ui], op, st->b[ui]);
      });
}

} // namespace h2sketch::batched
