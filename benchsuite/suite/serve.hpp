#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "construct.hpp"
#include "serve/coalescer.hpp"
#include "serve/operator_cache.hpp"

/// \file serve.hpp
/// Runner of the serve_mix workload: the served operator (HSS + ULV of a 3D
/// exponential-plus-ridge kernel) is built through the operator cache, then
/// driven open-loop by one generator thread at a fixed rate, three matvecs
/// to one solve, through the coalescer. Open loop, because a closed loop
/// sends less when the server slows and so hides queueing; every latency is
/// timed from the request's due time, so a stalled generator shows as
/// latency instead of hiding it.

namespace h2sketch::suite {

inline constexpr index_t kRequestVectors = 32; ///< distinct request inputs
inline constexpr index_t kSlots = 512;         ///< in-flight output buffers
/// Requests per second of the timed pass. The lane is busy roughly 40% of
/// the time, so a latency is mostly the coalescer's delay plus the service
/// time. At 150 req/s queueing widened the tail in bursts: over ten runs the
/// p90's interquartile range was 0.23-0.26 of its median, against 0.09 here.
inline constexpr double kRate = 75.0;
/// The traced pass adds a phase at this rate: near the coalescer's capacity
/// the p90 swung threefold between runs, too wide to gate, so it is reported
/// only as a per-layer ratio.
inline constexpr double kHighRate = 250.0;

/// The serving operator's inputs (N = 2048 points in the unit cube).
inline std::unique_ptr<Problem> setup_serve(const RunConfig& cfg) {
  const index_t n = cfg.smoke ? 1024 : 2048;
  auto p = kernel_problem(stratified_cube(n, 3, sub_seed(cfg.seed, kGeometry)), 32,
                          std::make_unique<kern::ExponentialKernel>(0.2), 1.0);
  p->factored = true;
  // Weak admissibility in 3D at ridge 1 leaves the probe error at 70-210
  // tol across seeds (it is 7-30 tol on the other workloads).
  p->err_limit = 1000 * kTol;
  return p;
}

inline serve::ServedOperator to_served(const Problem& p, Operator op) {
  serve::ServedOperator s;
  s.tree = p.tree;
  s.matrix = std::move(*op.hss);
  s.factor = std::move(*op.ulv);
  s.backend = "cpu";
  s.bytes = s.matrix.device_bytes() + s.factor.device_bytes();
  s.build_stats = std::move(op.stats);
  return s;
}

/// Three matvecs to one solve.
inline bool is_solve(long request) { return request % 4 == 3; }

struct OpenLoop {
  std::vector<double> latency_ms; ///< completion minus due time, successful requests
  long late = 0;                  ///< submitted more than 1 ms after due
  long backlog_end = 0;           ///< requests outstanding when generation ended
  double seconds = 0;             ///< generation span
};

/// Drive `rate` requests per second for `seconds` through `co`. Request i
/// runs on input column i % 32 of `xs`; each served y is checked against
/// `ref` (matvec columns first, then solve columns) to 1e-10 relative.
inline OpenLoop open_loop(serve::Coalescer& co, const serve::OperatorHandle& op, double rate,
                          double seconds, const Matrix& xs, const Matrix& ref, Report& r) {
  const index_t n = op->size();
  const long total = std::max(1L, static_cast<long>(std::lround(rate * seconds)));
  Matrix ys(n, kSlots);
  struct Pending {
    long i = 0;
    index_t slot = 0;
    double due = 0;
    std::future<void> fut;
  };

  std::mutex slots_mu; // guards free_slots
  std::vector<index_t> free_slots(static_cast<size_t>(kSlots));
  std::iota(free_slots.begin(), free_slots.end(), index_t{0});
  std::atomic<long> completed{0};

  OpenLoop out;
  std::mutex out_mu;    // guards out.latency_ms, ok, bad
  long ok = 0, bad = 0; // read after the collectors join

  // One collector per request kind, each blocked on its kind's oldest
  // request: the coalescer's single lane answers a kind's requests in the
  // order they came, so every completion is stamped as it happens, with no
  // polling thread taking turns on the cores the flush runs on. One
  // collector for both kinds would charge a fast matvec for a slower solve
  // submitted ahead of it.
  struct Collector {
    std::mutex mu; // guards queue, closed
    std::condition_variable cv;
    std::deque<Pending> queue;
    bool closed = false;
    std::thread thread; // runs on the members above

    /// Lets the thread drain its queue and end, and waits for it; on every
    /// way out of open_loop, before the buffers the thread uses go.
    void finish() {
      {
        std::lock_guard<std::mutex> lk(mu);
        closed = true;
      }
      cv.notify_one();
      if (thread.joinable()) thread.join();
    }
    ~Collector() { finish(); }
  };
  Collector collectors[2];
  const auto collect = [&](Collector& c) {
    for (;;) {
      Pending pd;
      {
        std::unique_lock<std::mutex> lk(c.mu);
        c.cv.wait(lk, [&] { return c.closed || !c.queue.empty(); });
        if (c.queue.empty()) return;
        pd = std::move(c.queue.front());
        c.queue.pop_front();
      }
      bool good = true;
      try {
        pd.fut.get();
      } catch (const std::exception& ex) {
        std::cerr << "request " << pd.i << " failed: " << ex.what() << "\n";
        good = false;
      }
      const double t = wall_seconds();
      const index_t col = (is_solve(pd.i) ? kRequestVectors : 0) + pd.i % kRequestVectors;
      good = good &&
             rel_diff(ys.view().col_range(pd.slot, 1), ref.view().col_range(col, 1)) <= 1e-10;
      {
        std::lock_guard<std::mutex> lk(out_mu);
        if (good) {
          out.latency_ms.push_back(1e3 * (t - pd.due));
          ++ok;
        } else {
          ++bad;
        }
      }
      {
        std::lock_guard<std::mutex> lk(slots_mu);
        free_slots.push_back(pd.slot);
      }
      completed.fetch_add(1, std::memory_order_relaxed);
    }
  };
  for (Collector& c : collectors) c.thread = std::thread(collect, std::ref(c));

  long submit_failures = 0;
  const double t0 = wall_seconds() + 1e-3;
  for (long i = 0; i < total; ++i) {
    const double due = t0 + static_cast<double>(i) / rate;
    const double wait = due - wall_seconds();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    index_t slot = -1;
    while (slot < 0) {
      {
        std::lock_guard<std::mutex> lk(slots_mu);
        if (!free_slots.empty()) {
          slot = free_slots.back();
          free_slots.pop_back();
        }
      }
      if (slot < 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (wall_seconds() - due > 1e-3) ++out.late;
    const index_t xi = i % kRequestVectors;
    const auto kind = is_solve(i) ? serve::RequestKind::Solve : serve::RequestKind::Matvec;
    try {
      std::future<void> fut = co.submit(
          op, kind, const_real_span(xs.data() + xi * n, static_cast<size_t>(n)),
          real_span(ys.data() + slot * n, static_cast<size_t>(n)));
      Collector& c = collectors[is_solve(i) ? 1 : 0];
      {
        std::lock_guard<std::mutex> lk(c.mu);
        c.queue.push_back({i, slot, due, std::move(fut)});
      }
      c.cv.notify_one();
    } catch (const std::exception& ex) {
      std::cerr << "submit " << i << " failed: " << ex.what() << "\n";
      ++submit_failures;
      std::lock_guard<std::mutex> lk(slots_mu);
      free_slots.push_back(slot);
    }
  }
  out.seconds = wall_seconds() - t0;
  out.backlog_end = total - submit_failures - completed.load(std::memory_order_relaxed);
  for (Collector& c : collectors) c.finish();
  r.count(ok);
  for (long k = 0; k < bad + submit_failures; ++k) r.check(false, "served request");
  return out;
}

/// Reference outputs for every request input: direct matvecs, then solves.
inline Matrix served_reference(const serve::ServedOperator& op, const Matrix& xs) {
  const index_t n = xs.rows();
  Matrix ref(n, 2 * kRequestVectors);
  batched::ExecutionContext ctx;
  for (index_t j = 0; j < kRequestVectors; ++j) {
    op.matrix.matvec(ctx, xs.view().col_range(j, 1), ref.view().col_range(j, 1));
    op.factor.solve_many(xs.view().col_range(j, 1), ref.view().col_range(kRequestVectors + j, 1),
                         ctx);
  }
  return ref;
}

inline Report run_serve(const RunConfig& cfg) {
  Report r;
  EndToEnd e;
  std::unique_ptr<Problem> p = timed_setup(setup_serve, cfg, e.setup_s);
  const index_t n = p->size();
  const Matrix x16 = gaussian_panel(n, kApplyCols, sub_seed(cfg.seed, kVectors));
  const Matrix xs = gaussian_panel(n, kRequestVectors, sub_seed(cfg.seed, kVectors) + 2);
  serve::ServeBuildOptions bo;
  bo.leaf_size = 32;
  bo.construction = construction_options();
  const serve::OperatorKey key = serve::make_operator_key(p->tree->points(), *p->kernel, bo, "cpu");
  serve::CoalescerOptions co_opts;
  co_opts.max_batch = 16;
  co_opts.max_delay_seconds = 2e-3;

  const double start = wall_seconds();
  batched::ExecutionContext ctx;
  serve::OperatorHandle op;
  const auto apply = [&](ConstMatrixView x, MatrixView y) { op->matrix.matvec(ctx, x, y); };
  Requests q(apply, nullptr, false, x16, r);
  Matrix ref;
  serve::Coalescer co(co_opts);

  if (!cfg.trace) {
    // Each round times set-ups, builds through a fresh cache (a miss, so
    // acquire builds), runs five applies, then serves for 1.5x the build
    // time, so every kind of sample spreads over the run. A rebuild is
    // bitwise identical, so the first operator's outputs check every later
    // one.
    while (e.build_s.size() < 2 || wall_seconds() - start < cfg.seconds) {
      round_setups(setup_serve, cfg, e.setup_s);
      serve::OperatorCache cache;
      const double t0 = wall_seconds();
      op = cache.acquire(
          key, [&] { return to_served(*p, build_operator(*p, *p->sampler, *p->gen, ctx)); });
      const double built = wall_seconds() - t0;
      e.build_s.push_back(built);
      r.count(1);
      for (int a = 0; a < 5; ++a) q.apply(e.apply_ms);
      if (ref.rows() == 0) ref = served_reference(*op, xs);
      OpenLoop round = open_loop(co, op, kRate, 1.5 * built, xs, ref, r);
      e.query_ms.insert(e.query_ms.end(), round.latency_ms.begin(), round.latency_ms.end());
    }
    co.stop();
    e.peak_rss_mb = peak_rss_mb();
    // No residual check here: at ridge 1, ||K|| / lambda_min is in the
    // hundreds and lifts a tol-level compression error past 100 tol.
    check_accuracy(*p, apply, nullptr, ctx, cfg, r);
    e.op_bytes = static_cast<double>(op->bytes);
    e.emit(r);
    return r;
  }

  // Traced pass: one decorated build untraced, then one traced through the
  // cache, then applies and the two rates, each traced as its own segment.
  Layers l;
  obs::TraceData td;
  double untraced_s = 0;
  {
    Operator warm = decorated_build(*p, ctx, l);
    untraced_s = l.build_s;
  }
  obs::start_trace();
  {
    serve::OperatorCache cache;
    op = cache.acquire(key, [&] { return to_served(*p, decorated_build(*p, ctx, l)); });
  }
  l.trace_overhead_frac = (l.build_s - untraced_s) / untraced_s;
  r.count(1);
  end_trace_segment(td);
  obs::start_trace();
  const auto before = ctx.device().stats();
  for (int a = 0; a < kTracedApplies; ++a) q.apply(e.apply_ms);
  l.h2d_bytes_per_apply =
      static_cast<double>(ctx.device().stats().bytes_to_device - before.bytes_to_device) /
      kTracedApplies;
  l.apply16_s = 1e-3 * median(e.apply_ms);

  ref = served_reference(*op, xs);
  const serve::MetricsSnapshot m0 = op->metrics->snapshot();
  const double phase_s = 0.5 * std::max(1.0, cfg.seconds - (wall_seconds() - start));
  const OpenLoop ol = open_loop(co, op, kRate, phase_s, xs, ref, r);
  const OpenLoop hi = open_loop(co, op, kHighRate, phase_s, xs, ref, r);
  co.stop();
  const serve::MetricsSnapshot m1 = op->metrics->snapshot();
  end_trace_segment(td);
  l.trace_dropped = static_cast<double>(td.dropped);
  l.launch_busy_frac = span_seconds(td, "serve", "flush") / (ol.seconds + hi.seconds);
  td.write_json("bench_trace_serve_mix.json");

  l.rel_err = check_accuracy(*p, apply, nullptr, ctx, cfg, r);
  l.solve16_s = solve16_seconds(op->factor, x16, ctx);
  l.query_p99_ms = quantile(ol.latency_ms, 0.99);
  l.load_p90_ratio = quantile(hi.latency_ms, 0.9) / quantile(ol.latency_ms, 0.9);
  const auto batches = static_cast<double>(m1.batches - m0.batches);
  l.mean_batch =
      batches > 0 ? static_cast<double>(m1.coalesced_rhs - m0.coalesced_rhs) / batches : 0.0;
  l.flush_full = static_cast<double>(m1.flush_full - m0.flush_full);
  l.flush_timeout = static_cast<double>(m1.flush_timeout - m0.flush_timeout);
  l.gen_late = static_cast<double>(ol.late + hi.late);
  l.backlog_end = static_cast<double>(ol.backlog_end);
  emit_layers(l, r);
  return r;
}

} // namespace h2sketch::suite
