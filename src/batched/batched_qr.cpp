#include "batched/batched_qr.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"

namespace h2sketch::batched {

void batched_min_r_diag_update(ExecutionContext& ctx, std::span<const MatrixView> work,
                               std::span<const index_t> factored,
                               std::span<std::vector<real_t>> tau, std::span<real_t> out) {
  obs::ScopedLaunchLabel label("batched_min_r_diag_update");
  obs::TraceSpan span("backend", "batched_min_r_diag_update", "batch", work.size());
  ctx.device().on_launch("batched_min_r_diag_update");
  H2S_CHECK(work.size() == out.size() && work.size() == factored.size() &&
                work.size() == tau.size(),
            "batched_min_r_diag_update: batch size mismatch");
  // Synchronous (the probe gates the adaptive loop) and cost-chunked: per
  // entry the continuation replays k reflectors over dn appended columns and
  // factors them, O(m k dn + m dn^2) — the dominant m-range spans orders of
  // magnitude across a level.
  ctx.run_batch(
      kSampleStream, static_cast<index_t>(work.size()),
      [&](index_t i) {
        const auto& v = work[static_cast<size_t>(i)];
        const index_t dn = v.cols - factored[static_cast<size_t>(i)];
        return v.rows * dn * (std::min(v.rows, v.cols) + dn);
      },
      [&](index_t i) {
        const auto ui = static_cast<size_t>(i);
        const MatrixView& v = work[ui];
        if (v.rows == 0 || v.cols == 0) {
          out[ui] = 0.0;
          return;
        }
        la::householder_qr_continue(v, tau[ui], factored[ui]);
        const index_t kmax = std::min(v.rows, v.cols);
        real_t mn = std::abs(v(0, 0));
        for (index_t d = 1; d < kmax; ++d) mn = std::min(mn, std::abs(v(d, d)));
        out[ui] = mn;
      });
  ctx.sync(kSampleStream);
}

} // namespace h2sketch::batched
