#pragma once

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "backend/registry.hpp"
#include "common/parallel.hpp"
#include "obs/trace.hpp"
#include "problems.hpp"
#include "report.hpp"
#include "timed.hpp"

/// \file layers.hpp
/// The per-layer table of the traced run. Every workload reports every
/// entry; a layer a workload never calls (the solver on an H2 workload, the
/// serving tier outside the serve workloads) reads 0, and only as a count,
/// ratio or size, never as a time.

namespace h2sketch::suite {

struct Layers {
  // kernels: the black-box pair, timed by the decorators
  double sample_s = 0, sample_cols = 0, sample_calls = 0;
  double gen_busy_s = 0, gen_entries = 0, gen_blocks = 0;
  double kernels_setup_s = 0, tree_build_s = 0;
  // core: the sketching construction call and its ConstructionStats
  double core_build_s = 0;
  core::ConstructionStats stats;
  // build as a whole (construction plus ULV factorization)
  double build_s = 0, factor_s = 0;
  // apply and backend
  double op_bytes = 0, apply16_s = 0, h2d_bytes_per_apply = 0;
  // solver
  double ulv_bytes = 0, ridge = 0, solve16_s = 0;
  // requests and the serving tier
  double query_p99_ms = 0;
  double mean_batch = 0, flush_full = 0, flush_timeout = 0, launch_busy_frac = 0;
  double gen_late = 0, backlog_end = 0, load_p90_ratio = 0;
  // accuracy of the built operator (probe error, see problems.hpp)
  double rel_err = 0;
  // obs
  double trace_overhead_frac = 0, trace_dropped = 0;
};

/// One build with the kernels layer decorated; fills the kernels, core and
/// build entries of `l`.
inline Operator decorated_build(const Problem& p, batched::ExecutionContext& ctx, Layers& l) {
  TimedSampler ts(*p.sampler);
  TimedEntryGenerator tg(*p.gen);
  const double t0 = wall_seconds();
  Operator op = [&] {
    obs::TraceSpan span("bench", "build");
    return build_operator(p, ts, tg, ctx);
  }();
  l.build_s = wall_seconds() - t0;
  l.sample_s = ts.seconds();
  l.sample_cols = static_cast<double>(ts.samples_taken());
  l.sample_calls = static_cast<double>(ts.calls());
  l.gen_busy_s = tg.busy_seconds();
  l.gen_entries = static_cast<double>(tg.entries_generated());
  l.gen_blocks = static_cast<double>(tg.blocks());
  l.kernels_setup_s = p.kernels_s;
  l.tree_build_s = p.tree_s;
  l.core_build_s = op.core_s;
  l.factor_s = op.factor_s;
  l.stats = op.stats;
  l.op_bytes = static_cast<double>(op.device_bytes());
  l.ulv_bytes = static_cast<double>(op.factor_bytes());
  l.ridge = op.ulv ? op.ulv->ridge_applied() : 0.0;
  return op;
}

/// Stops the trace and appends what it recorded to `td`. A build alone can
/// fill the per-thread trace rings, which then drop every later event, so
/// the runners trace the build and the requests as two segments.
inline void end_trace_segment(obs::TraceData& td) {
  obs::TraceData seg = obs::stop_trace();
  td.dropped += seg.dropped;
  td.events.insert(td.events.end(), std::make_move_iterator(seg.events.begin()),
                   std::make_move_iterator(seg.events.end()));
}

/// Sum of the durations of trace spans (cat, name), in seconds.
inline double span_seconds(const obs::TraceData& td, const std::string& cat,
                           const std::string& name) {
  double s = 0;
  for (const auto& ev : td.events)
    if (ev.dur_ns >= 0 && ev.cat == cat && ev.name == name)
      s += 1e-9 * static_cast<double>(ev.dur_ns);
  return s;
}

inline void emit_layers(const Layers& l, Report& r) {
  const double mb = 1024.0 * 1024.0;
  const auto phase = [&](Phase ph) { return l.stats.phases.seconds(ph); };
  r.add("kernels.sample.s", l.sample_s, "s");
  r.add("kernels.sample.cols", l.sample_cols, "count");
  r.add("kernels.sample.calls", l.sample_calls, "count");
  r.add("kernels.entry_gen.busy_s", l.gen_busy_s, "s");
  r.add("kernels.entry_gen.entries", l.gen_entries, "count");
  r.add("kernels.entry_gen.blocks", l.gen_blocks, "count");
  r.add("kernels.entry_gen.mentries_per_s",
        l.gen_busy_s > 0 ? l.gen_entries / l.gen_busy_s / 1e6 : 0.0, "Mentries/s");
  r.add("kernels.setup_s", l.kernels_setup_s, "s");
  r.add("tree.build_s", l.tree_build_s, "s");
  r.add("core.build_s", l.core_build_s, "s");
  r.add("core.self_s", l.core_build_s - l.sample_s, "s");
  r.add("core.phase.convergence_s", phase(Phase::Convergence), "s");
  r.add("core.phase.id_s", phase(Phase::ID), "s");
  r.add("core.phase.upsweep_s", phase(Phase::Upsweep), "s");
  r.add("core.phase.bsr_gemm_s", phase(Phase::BsrGemm), "s");
  r.add("core.phase.misc_s", phase(Phase::Misc), "s");
  r.add("core.sample_rounds", static_cast<double>(l.stats.sample_rounds), "count");
  r.add("core.max_rank", static_cast<double>(l.stats.max_rank), "count");
  r.add("core.rank_per_sample",
        l.stats.total_samples > 0
            ? static_cast<double>(l.stats.max_rank) / static_cast<double>(l.stats.total_samples)
            : 0.0,
        "ratio");
  r.add("core.rel_err", l.rel_err, "ratio");
  r.add("core.nonconverged_nodes", static_cast<double>(l.stats.nonconverged_nodes), "count");
  r.add("batched.launches", static_cast<double>(l.stats.kernel_launches), "count");
  r.add("backend.peak_device_mb",
        static_cast<double>(backend::shared_backend("cpu").device->stats().peak_bytes) / mb, "MB");
  r.add("backend.h2d_bytes_per_apply", l.h2d_bytes_per_apply, "B");
  r.add("apply.gb_per_s", l.apply16_s > 0 ? l.op_bytes / l.apply16_s / 1e9 : 0.0, "GB/s");
  r.add("solver.factor_frac", l.build_s > 0 ? l.factor_s / l.build_s : 0.0, "frac");
  r.add("solver.solve16_gb_per_s", l.solve16_s > 0 ? l.ulv_bytes / l.solve16_s / 1e9 : 0.0,
        "GB/s");
  r.add("solver.ulv_mb", l.ulv_bytes / mb, "MB");
  r.add("solver.ridge", l.ridge, "ratio");
  r.add("query.p99_ms", l.query_p99_ms, "ms");
  r.add("serve.mean_batch", l.mean_batch, "count");
  r.add("serve.flush_full", l.flush_full, "count");
  r.add("serve.flush_timeout", l.flush_timeout, "count");
  r.add("serve.launch_busy_frac", l.launch_busy_frac, "frac");
  r.add("serve.gen_late", l.gen_late, "count");
  r.add("serve.backlog_end", l.backlog_end, "count");
  r.add("serve.load_p90_ratio", l.load_p90_ratio, "ratio");
  r.add("obs.trace_overhead_frac", l.trace_overhead_frac, "frac");
  r.add("obs.trace_dropped", l.trace_dropped, "count");

  // Entry generation runs on the pool, so its thread-seconds are spread
  // over the pool's width to compare with wall-clock shares.
  const double gen_wall = l.gen_busy_s / num_threads();
  const std::pair<const char*, double> shares[] = {
      {"kernels.sample", l.sample_s},
      {"kernels.entry_gen", gen_wall},
      {"core (rest of the construction)", l.core_build_s - l.sample_s - gen_wall},
      {"solver.factor", l.factor_s}};
  const auto* top = std::max_element(std::begin(shares), std::end(shares),
                                     [](const auto& a, const auto& b) { return a.second < b.second; });
  r.note("largest share of the build: " + std::string(top->first) + ", " +
         std::to_string(static_cast<int>(100 * top->second / l.build_s + 0.5)) + "%");
}

/// End-to-end metrics of the untraced pass. `query_ms` holds single-request
/// latencies in the order they were taken: back-to-back applies or solves,
/// or open-loop served requests.
struct EndToEnd {
  /// query_p90_ms is the median p90 of blocks of this many requests, so
  /// each block's p90 has ten samples beyond it.
  static constexpr std::size_t kQueryBlock = 100;

  std::vector<double> setup_s, build_s, apply_ms, query_ms;
  double op_bytes = 0, peak_rss_mb = 0;

  void emit(Report& r) const {
    r.add("setup_s", median(setup_s), "s");
    r.add("build_s", median(build_s), "s");
    r.add("apply_ms", median(apply_ms), "ms");
    r.add("query_p50_ms", median(query_ms), "ms");
    r.add("query_p90_ms", block_quantile(query_ms, 0.9, kQueryBlock), "ms");
    r.add("op_mb", op_bytes / (1024.0 * 1024.0), "MB");
    r.add("peak_rss_mb", peak_rss_mb, "MB");
  }
};

} // namespace h2sketch::suite
