#include "batched/batched_id.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace h2sketch::batched {

void batched_row_id(ExecutionContext& ctx, std::span<const ConstMatrixView> y, real_t abs_tol,
                    index_t max_rank, std::span<la::RowID> out) {
  obs::ScopedLaunchLabel label("batched_row_id");
  obs::TraceSpan span("backend", "batched_row_id", "batch", y.size());
  ctx.device().on_launch("batched_row_id");
  H2S_CHECK(y.size() == out.size(), "batched_row_id: batch size mismatch");
  // Synchronous (the IDs gate the level sweep), but cost-chunked: a level's
  // sample blocks differ in row count by orders of magnitude, and the ID is
  // O(m * n * min(m, n)) per entry.
  ctx.run_batch(
      kSampleStream, static_cast<index_t>(y.size()),
      [&y](index_t i) {
        const auto& v = y[static_cast<size_t>(i)];
        return v.rows * v.cols * std::min(v.rows, v.cols);
      },
      [&](index_t i) {
        const auto ui = static_cast<size_t>(i);
        out[ui] = la::row_id(y[ui], abs_tol, max_rank);
      });
  ctx.sync(kSampleStream);
}

} // namespace h2sketch::batched
