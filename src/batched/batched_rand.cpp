#include "batched/batched_rand.hpp"

#include "obs/trace.hpp"

namespace h2sketch::batched {

void batched_fill_gaussian(ExecutionContext& ctx, MatrixView a, const GaussianStream& stream,
                           std::uint64_t offset) {
  obs::ScopedLaunchLabel label("batched_fill_gaussian");
  obs::TraceSpan span("backend", "batched_fill_gaussian");
  ctx.device().on_launch("batched_fill_gaussian");
  // An empty fill is no launch — mirrors run_batch's uniform batch <= 0
  // early-return so empty levels cost zero launches in either launch mode.
  if (a.empty()) return;
  // Parallelize across columns; element addressing keeps the result
  // order-independent. The caller's thread holds a kernel scope for the
  // whole monolithic launch (the pool workers inherit the process-wide
  // unlock).
  ctx.count_launch(1);
  backend::KernelScope ks(&ctx.device());
  parallel_for(a.cols, [&](index_t j) {
    for (index_t i = 0; i < a.rows; ++i)
      a(i, j) = stream(offset + static_cast<std::uint64_t>(j) * a.rows + i);
  });
}

void batched_fill_gaussian(ExecutionContext& ctx, std::span<const MatrixView> blocks,
                           const GaussianStream& stream, std::span<const std::uint64_t> offsets) {
  obs::ScopedLaunchLabel label("batched_fill_gaussian");
  obs::TraceSpan span("backend", "batched_fill_gaussian", "batch", blocks.size());
  ctx.device().on_launch("batched_fill_gaussian");
  H2S_CHECK(blocks.size() == offsets.size(), "batched_fill_gaussian: batch size mismatch");
  ctx.run_batch(static_cast<index_t>(blocks.size()), [&](index_t i) {
    const auto u = static_cast<size_t>(i);
    h2sketch::fill_gaussian(blocks[u], stream, offsets[u]);
  });
}

} // namespace h2sketch::batched
