#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "layers.hpp"

/// \file construct.hpp
/// Runner of the construction workloads (h2_cov3d, h2_update, hss_solve):
/// set up, then until the run's time is spent, time set-ups, build, and
/// spend as long again on alternating 16-column applies and single-RHS
/// queries; finally check the operator's accuracy. On a shared host the
/// speed drifts over seconds, so every kind of sample spreads over the
/// whole run.

namespace h2sketch::suite {

inline constexpr int kSetups = 3;     ///< set-ups before the first round
/// Set-up time spent at the start of each round, at most. setup_s is the
/// median of every set-up in the run, so a set-up of a millisecond is the
/// median of hundreds taken across the whole run, not of three taken in one
/// burst at its start, when the host may be having a slow second.
inline constexpr double kRoundSetupSeconds = 0.05;
inline constexpr int kMinBuilds = 3;  ///< builds per run, at least
inline constexpr index_t kApplyCols = 16;
inline constexpr int kTracedApplies = 10;
inline constexpr int kTracedQueries = 120;

using SetupFn = std::unique_ptr<Problem> (*)(const RunConfig&);

inline std::unique_ptr<Problem> timed_setup(SetupFn setup, const RunConfig& cfg,
                                            std::vector<double>& secs) {
  std::unique_ptr<Problem> p;
  for (int i = 0; i < kSetups; ++i) {
    p.reset();
    const double t0 = wall_seconds();
    p = setup(cfg);
    secs.push_back(wall_seconds() - t0);
  }
  return p;
}

/// Times further set-ups, discarded, while the next is expected to fit in
/// kRoundSetupSeconds. A set-up slower than that (h2_update's) is timed only
/// by timed_setup.
inline void round_setups(SetupFn setup, const RunConfig& cfg, std::vector<double>& secs) {
  for (double spent = 0; spent + secs.back() <= kRoundSetupSeconds;) {
    const double t0 = wall_seconds();
    const std::unique_ptr<Problem> p = setup(cfg);
    secs.push_back(wall_seconds() - t0);
    spent += secs.back();
  }
}

inline bool same_bits(ConstMatrixView a, ConstMatrixView b) {
  for (index_t j = 0; j < a.cols; ++j)
    if (std::memcmp(&a(0, j), &b(0, j), sizeof(real_t) * static_cast<size_t>(a.rows)) != 0)
      return false;
  return true;
}

/// Timed 16-column applies and single-RHS queries against one operator,
/// every output checked. A repeat must reproduce its first result bitwise
/// (the library is deterministic). A first query must match the blocked
/// apply's column, or when it is a solve, be undone by the apply.
class Requests {
 public:
  using Fn = std::function<void(ConstMatrixView, MatrixView)>;

  Requests(Fn apply, Fn query, bool solves, const Matrix& x16, Report& r)
      : apply_(std::move(apply)), query_(std::move(query)), solves_(solves), x16_(x16), r_(r),
        y16_(x16.rows(), kApplyCols), y_(x16.rows(), kApplyCols), yq_(x16.rows(), kApplyCols),
        x1_(x16.rows(), 1), y1_(x16.rows(), 1) {}

  void apply(std::vector<double>& ms) {
    const MatrixView out = applies_ == 0 ? y16_.view() : y_.view();
    {
      obs::TraceSpan span("bench", "apply");
      const double t0 = wall_seconds();
      apply_(x16_.view(), out);
      ms.push_back(1e3 * (wall_seconds() - t0));
    }
    if (applies_++ > 0)
      r_.check(same_bits(y_.view(), y16_.view()), "repeated apply is bitwise identical");
  }

  /// Call apply() once before the first query.
  void query(std::vector<double>& ms) {
    const index_t j = queries_++ % kApplyCols;
    copy(x16_.view().col_range(j, 1), x1_.view());
    {
      obs::TraceSpan span("bench", "query");
      const double t0 = wall_seconds();
      query_(x1_.view(), y1_.view());
      ms.push_back(1e3 * (wall_seconds() - t0));
    }
    const MatrixView first = yq_.view().col_range(j, 1);
    if (queries_ > kApplyCols) {
      r_.check(same_bits(y1_.view(), first), "repeated query is bitwise identical");
      return;
    }
    copy(y1_.view(), first);
    if (solves_) {
      Matrix back(x16_.rows(), 1);
      apply_(y1_.view(), back.view());
      r_.check(rel_diff(back.view(), x1_.view()) <= 1e-8, "solve is undone by the apply");
    } else {
      r_.check(rel_diff(y1_.view(), y16_.view().col_range(j, 1)) <= 1e-10,
               "single-column apply matches the blocked apply");
    }
  }

 private:
  Fn apply_, query_;
  bool solves_;
  const Matrix& x16_;
  Report& r_;
  Matrix y16_, y_, yq_, x1_, y1_;
  long applies_ = 0, queries_ = 0;
};

/// Requests against whatever operator `op` holds when they run: a rebuild is
/// bitwise identical, so its outputs must match the first operator's.
inline Requests requests(const std::optional<Operator>& op, bool solves,
                         batched::ExecutionContext& ctx, const Matrix& x16, Report& r) {
  return Requests([&op, &ctx](ConstMatrixView x, MatrixView y) { op->apply(ctx, x, y); },
                  [&op, &ctx](ConstMatrixView x, MatrixView y) { op->query(ctx, x, y); }, solves,
                  x16, r);
}

/// Accuracy checks on a finished operator: the probe error of `apply`
/// against the exact sampler, and when a factor is given, the solve
/// residual. Returns the probe error.
template <typename Apply>
real_t check_accuracy(const Problem& p, Apply&& apply, const solver::UlvCholesky* ulv,
                      batched::ExecutionContext& ctx, const RunConfig& cfg, Report& r) {
  const real_t err = probe_error(*p.sampler, apply, sub_seed(cfg.seed, kColumns));
  r.check(err <= p.err_limit, "rel_err " + std::to_string(err) + " within its limit");
  if (ulv) {
    const real_t res = solve_residual(*p.sampler, *ulv, ctx, sub_seed(cfg.seed, kVectors) + 1);
    r.check(res <= 100 * kTol, "solve residual " + std::to_string(res) + " <= 100 tol");
  }
  return err;
}

inline real_t check_accuracy(const Problem& p, const Operator& op, batched::ExecutionContext& ctx,
                             const RunConfig& cfg, Report& r) {
  return check_accuracy(
      p, [&](ConstMatrixView x, MatrixView y) { op.apply(ctx, x, y); },
      op.ulv ? &*op.ulv : nullptr, ctx, cfg, r);
}

/// Median of five 16-RHS solves.
inline double solve16_seconds(const solver::UlvCholesky& ulv, const Matrix& x16,
                              batched::ExecutionContext& ctx) {
  std::vector<double> s;
  Matrix y(x16.rows(), x16.cols());
  for (int i = 0; i < 5; ++i) {
    obs::TraceSpan span("bench", "solve16");
    const double t0 = wall_seconds();
    ulv.solve_many(x16.view(), y.view(), ctx);
    s.push_back(wall_seconds() - t0);
  }
  return median(s);
}

inline Report run_construct(const std::string& name, SetupFn setup, const RunConfig& cfg) {
  Report r;
  EndToEnd e;
  std::unique_ptr<Problem> p = timed_setup(setup, cfg, e.setup_s);
  const Matrix x16 = gaussian_panel(p->size(), kApplyCols, sub_seed(cfg.seed, kVectors));
  batched::ExecutionContext ctx;

  if (!cfg.trace) {
    const double start = wall_seconds();
    const auto elapsed = [&] { return wall_seconds() - start; };
    std::optional<Operator> op;
    Requests q = requests(op, p->factored, ctx, x16, r);
    std::size_t first_bytes = 0;
    while (e.build_s.size() < kMinBuilds || elapsed() < cfg.seconds) {
      round_setups(setup, cfg, e.setup_s);
      op.reset();
      const double t0 = wall_seconds();
      op.emplace(build_operator(*p, *p->sampler, *p->gen, ctx));
      const double built = wall_seconds() - t0;
      e.build_s.push_back(built);
      if (e.build_s.size() == 1) first_bytes = op->device_bytes();
      r.check(op->device_bytes() == first_bytes, "a rebuild gives the same operator");
      const double until = wall_seconds() + built;
      do {
        q.apply(e.apply_ms);
        q.query(e.query_ms);
        q.query(e.query_ms);
      } while (wall_seconds() < until);
    }
    e.peak_rss_mb = peak_rss_mb();
    e.op_bytes = static_cast<double>(op->device_bytes());
    check_accuracy(*p, *op, ctx, cfg, r);
    e.emit(r);
    return r;
  }

  // Traced pass: one decorated build untraced, then one traced, whose
  // layers are reported. Their build-time difference is the trace overhead.
  Layers l;
  double untraced_s = 0;
  {
    Operator warm = decorated_build(*p, ctx, l);
    untraced_s = l.build_s;
  }
  obs::start_trace();
  std::optional<Operator> op;
  op.emplace(decorated_build(*p, ctx, l));
  l.trace_overhead_frac = (l.build_s - untraced_s) / untraced_s;
  r.count(1);
  obs::TraceData td;
  end_trace_segment(td);
  obs::start_trace();
  Requests q = requests(op, p->factored, ctx, x16, r);
  std::vector<double> apply_ms, query_ms;
  const auto before = ctx.device().stats();
  for (int a = 0; a < kTracedApplies; ++a) q.apply(apply_ms);
  l.h2d_bytes_per_apply =
      static_cast<double>(ctx.device().stats().bytes_to_device - before.bytes_to_device) /
      kTracedApplies;
  l.apply16_s = 1e-3 * median(apply_ms);
  for (int i = 0; i < kTracedQueries; ++i) q.query(query_ms);
  l.query_p99_ms = quantile(query_ms, 0.99);
  if (op->ulv) l.solve16_s = solve16_seconds(*op->ulv, x16, ctx);
  end_trace_segment(td);
  l.trace_dropped = static_cast<double>(td.dropped);
  td.write_json("bench_trace_" + name + ".json");
  l.rel_err = check_accuracy(*p, *op, ctx, cfg, r);
  emit_layers(l, r);
  return r;
}

} // namespace h2sketch::suite
