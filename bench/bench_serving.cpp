/// The serving throughput bench (ROADMAP item 3): one factored operator,
/// many concurrent single-RHS clients. For each concurrent-client count it
/// measures the one-launch-per-request baseline (every client drives its
/// own context and every request is its own blocked-size-1 launch) against
/// the coalescing engine (requests batched into one `h2_matvec` /
/// `solve_many` launch per tick), reporting ops/s and p50/p99 request
/// latency for both, plus the realized mean batch size and flush-reason
/// split. Results go to BENCH_serving.json; the coalesced path is expected
/// to beat the baseline by >= 2x at 16 clients — the amortization H2Opus's
/// setup/apply phase separation exists to exploit.

#include <atomic>
#include <fstream>
#include <functional>
#include <thread>
#include <vector>

#include "backend/fault_injection.hpp"
#include "backend/registry.hpp"
#include "bench_common.hpp"
#include "common/errors.hpp"
#include "common/random.hpp"
#include "obs/metrics.hpp"
#include "obs/quantile_sketch.hpp"
#include "serve/coalescer.hpp"
#include "serve/operator_cache.hpp"

using namespace h2sketch;
using namespace h2sketch::bench;

namespace {

struct ModeResult {
  double seconds = 0.0;
  double ops_per_s = 0.0;
  // Client-observed latency quantiles: per-client KLL sketches merged
  // after the run (~1% rank error).
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch = 1.0;
  std::uint64_t batches = 0;
  std::uint64_t flush_full = 0;
  std::uint64_t flush_timeout = 0;
};

/// Merge per-client sketches into one and fill the quantile fields.
void fill_quantiles(ModeResult& r, const std::vector<obs::QuantileSketch>& per_client) {
  obs::QuantileSketch merged;
  for (const auto& sk : per_client) merged.merge(sk);
  if (merged.empty()) return;
  r.p50_ms = merged.quantile(0.50) * 1e3;
  r.p99_ms = merged.quantile(0.99) * 1e3;
}

Matrix client_inputs(index_t n, int clients, std::uint64_t seed) {
  Matrix x(n, clients);
  fill_gaussian(x.view(), GaussianStream(seed), 0);
  return x;
}

/// Closed-loop clients, one launch per request: each client owns a context
/// and calls the blocked path with a single RHS.
ModeResult run_per_request(serve::ServedOperator& op, serve::RequestKind kind, int clients,
                           int per_client) {
  const index_t n = op.size();
  const Matrix xs = client_inputs(n, clients, 42);
  Matrix ys(n, clients);
  std::vector<obs::QuantileSketch> sketches(static_cast<size_t>(clients));
  WallTimer timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      batched::ExecutionContext ctx(backend::shared_backend(op.backend));
      const ConstMatrixView x = ConstMatrixView(xs.view()).col_range(c, 1);
      MatrixView y = ys.view().col_range(c, 1);
      for (int r = 0; r < per_client; ++r) {
        const double t0 = wall_seconds();
        if (kind == serve::RequestKind::Matvec)
          op.matrix.matvec(ctx, x, y);
        else
          op.factor.solve_many(x, y, ctx);
        sketches[static_cast<size_t>(c)].update(wall_seconds() - t0);
      }
    });
  for (auto& t : threads) t.join();

  ModeResult r;
  r.seconds = timer.elapsed();
  r.ops_per_s = static_cast<double>(clients) * per_client / r.seconds;
  fill_quantiles(r, sketches);
  r.batches = static_cast<std::uint64_t>(clients) * static_cast<std::uint64_t>(per_client);
  return r;
}

/// Closed-loop clients through the coalescer.
ModeResult run_coalesced(serve::OperatorHandle op, serve::RequestKind kind, int clients,
                         int per_client) {
  const index_t n = op->size();
  const Matrix xs = client_inputs(n, clients, 42);
  Matrix ys(n, clients);
  const serve::MetricsSnapshot before = op->metrics->snapshot();

  serve::CoalescerOptions opts;
  opts.max_batch = std::max<index_t>(1, std::min(clients, 64));
  // The tick: waiting ~half a launch time to fill a batch is always worth
  // it — a k-wide blocked launch costs barely more than a 1-wide one.
  opts.max_delay_seconds = 2e-3;
  opts.lanes = clients > 8 ? 2 : 1;
  serve::Coalescer co(opts);

  std::vector<obs::QuantileSketch> sketches(static_cast<size_t>(clients));
  WallTimer timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      const auto x = const_real_span(xs.data() + c * n, static_cast<size_t>(n));
      const auto y = real_span(ys.data() + c * n, static_cast<size_t>(n));
      for (int r = 0; r < per_client; ++r) {
        const double t0 = wall_seconds();
        co.submit(op, kind, x, y).get();
        sketches[static_cast<size_t>(c)].update(wall_seconds() - t0);
      }
    });
  for (auto& t : threads) t.join();
  co.stop();

  ModeResult r;
  r.seconds = timer.elapsed();
  r.ops_per_s = static_cast<double>(clients) * per_client / r.seconds;
  fill_quantiles(r, sketches);
  const serve::MetricsSnapshot after = op->metrics->snapshot();
  r.batches = after.batches - before.batches;
  r.flush_full = after.flush_full - before.flush_full;
  r.flush_timeout = after.flush_timeout - before.flush_timeout;
  const std::uint64_t rhs = after.coalesced_rhs - before.coalesced_rhs;
  r.mean_batch = r.batches == 0 ? 0.0 : static_cast<double>(rhs) / static_cast<double>(r.batches);
  return r;
}

struct Run {
  const char* kind;
  int clients;
  int requests;
  ModeResult per_request;
  ModeResult coalesced;
  double speedup = 0.0;
};

/// Chaos pass (--faults): the coalesced matvec workload against a
/// "faulty-cpu" operator with a ~1% per-injection-point fault probability.
/// The coalescer absorbs launch/copy faults by retrying the batch on the
/// fault-free "cpu" config (same device heap); whatever still surfaces is
/// retried by the client, bounded. Returns nonzero unless every request
/// completes with the bitwise fault-free result.
int run_fault_smoke(int clients, int per_client) {
  std::cout << "\nfault smoke: " << clients << " clients x " << per_client
            << " matvecs on faulty-cpu, prob:0.01 faults at every alloc/copy/launch point\n";
  auto inj = backend::fault_injector("faulty-cpu");
  inj->set_schedule(backend::FaultSchedule::off());

  const kern::ExponentialKernel base(0.2);
  const kern::RidgeKernel kernel(base, 1.0);
  const geo::PointCloud points = geo::uniform_random_cube(384, 3, 1234);
  serve::ServeBuildOptions build;
  build.leaf_size = 32;
  build.construction.tol = 1e-6;
  build.construction.sample_block = 32;
  build.construction.initial_samples = 64;
  serve::OperatorCache cache;
  serve::OperatorHandle op = cache.acquire(
      serve::make_operator_key(points, kernel, build, "faulty-cpu"),
      [&] { return serve::build_served_operator(points, kernel, build, "faulty-cpu"); });
  const index_t n = op->size();

  const Matrix xs = client_inputs(n, clients, 42);
  Matrix y_ref(n, clients), ys(n, clients);
  {
    batched::ExecutionContext ctx(backend::shared_backend("cpu"));
    op->matrix.matvec(ctx, xs.view(), y_ref.view());
  }

  serve::CoalescerOptions opts;
  opts.max_batch = std::max<index_t>(1, std::min(clients, 64));
  opts.max_delay_seconds = 2e-3;
  serve::Coalescer co(opts);

  inj->set_schedule(backend::FaultSchedule::with_probability(0.01, 2024));
  std::atomic<std::uint64_t> completed{0}, client_retries{0}, failed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      const auto x = const_real_span(xs.data() + c * n, static_cast<size_t>(n));
      const auto y = real_span(ys.data() + c * n, static_cast<size_t>(n));
      for (int r = 0; r < per_client; ++r) {
        bool done = false;
        for (int attempt = 0; attempt < 50 && !done; ++attempt) {
          try {
            co.submit(op, serve::RequestKind::Matvec, x, y).get();
            done = true;
          } catch (const Error& e) {
            if (!e.retryable()) break;
            client_retries.fetch_add(1, std::memory_order_relaxed);
          }
        }
        (done ? completed : failed).fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (auto& t : threads) t.join();
  co.stop();
  const auto fs = inj->fault_stats(); // before set_schedule: it resets counters
  inj->set_schedule(backend::FaultSchedule::off());

  const serve::MetricsSnapshot m = op->metrics->snapshot();
  const std::uint64_t total = static_cast<std::uint64_t>(clients) * per_client;
  const double worst = max_abs_diff(ys.view(), y_ref.view());
  std::cout << "  faults injected: " << fs.injected << " (of " << fs.points()
            << " points), coalescer degraded retries: " << m.degraded_launches
            << ", client retries: " << client_retries.load() << "\n"
            << "  requests completed: " << completed.load() << "/" << total
            << ", max |y - y_ref| = " << worst << "\n";
  if (completed.load() != total || failed.load() != 0 || worst != 0.0) {
    std::cout << "FAULT SMOKE FAILED\n";
    return 1;
  }
  std::cout << "fault smoke passed: every request completed bitwise-correct under injection.\n";
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  const bool faults = has_flag(argc, argv, "--faults");
  const index_t n = smoke ? 384 : 2048;
  const std::vector<int> client_counts = smoke ? std::vector<int>{1, 4}
                                               : std::vector<int>{1, 4, 16, 64};
  const int matvec_reqs = smoke ? 8 : 48;
  const int solve_reqs = smoke ? 4 : 12;

  // One operator, built and factored once through the cache — the serve
  // phase below never touches construction again.
  std::cout << "building served operator (N=" << n << ", exponential+ridge, tol=1e-6)...\n";
  const kern::ExponentialKernel base(0.2);
  const kern::RidgeKernel kernel(base, 1.0);
  const geo::PointCloud points = geo::uniform_random_cube(n, 3, 1234);
  serve::ServeBuildOptions build;
  build.leaf_size = 32;
  build.construction.tol = 1e-6;
  build.construction.sample_block = 32;
  build.construction.initial_samples = 64;
  serve::OperatorCache cache;
  const double t_build0 = wall_seconds();
  serve::OperatorHandle op =
      cache.acquire(serve::make_operator_key(points, kernel, build, "cpu"),
                    [&] { return serve::build_served_operator(points, kernel, build, "cpu"); });
  const double build_seconds = wall_seconds() - t_build0;
  std::cout << "  built+factored in " << fmt(build_seconds, 3) << " s, "
            << fmt_mb(op->bytes) << " MB cached\n";

  Table table("serving", {"kind", "clients", "base_ops_s", "coal_ops_s", "speedup", "batch",
                          "base_p50ms", "coal_p50ms", "coal_p99ms"});
  table.print_header();

  std::vector<Run> runs;
  for (const char* kind_name : {"matvec", "solve"}) {
    const auto kind = std::string_view(kind_name) == "matvec" ? serve::RequestKind::Matvec
                                                              : serve::RequestKind::Solve;
    const int per_client = kind == serve::RequestKind::Matvec ? matvec_reqs : solve_reqs;
    for (int clients : client_counts) {
      Run r;
      r.kind = kind_name;
      r.clients = clients;
      r.requests = clients * per_client;
      r.per_request = run_per_request(*op, kind, clients, per_client);
      r.coalesced = run_coalesced(op, kind, clients, per_client);
      r.speedup = r.coalesced.ops_per_s / r.per_request.ops_per_s;
      runs.push_back(r);
      table.row({r.kind, fmt(clients), fmt(r.per_request.ops_per_s, 4),
                 fmt(r.coalesced.ops_per_s, 4), fmt(r.speedup, 3), fmt(r.coalesced.mean_batch, 3),
                 fmt(r.per_request.p50_ms, 3), fmt(r.coalesced.p50_ms, 3),
                 fmt(r.coalesced.p99_ms, 3)});
    }
  }

  // Steady-state residency phase: the same workload built on the simdevice
  // backend, then repeatedly applied through one context. With
  // device-resident operators every repeated apply moves exactly the x
  // panel over and the y panel back — the marshaling cost a PCIe bus would
  // see per request, independent of operator size.
  struct SteadyState {
    std::uint64_t matvec_h2d = 0, matvec_d2h = 0;
    std::uint64_t solve_h2d = 0, solve_d2h = 0;
    std::uint64_t panel_bytes = 0, operator_device_bytes = 0;
  } ss;
  {
    std::cout << "\nsteady-state phase: repeated applies on a simdevice-resident operator\n";
    serve::OperatorHandle dop = cache.acquire(
        serve::make_operator_key(points, kernel, build, "simdevice"),
        [&] { return serve::build_served_operator(points, kernel, build, "simdevice"); });
    auto dev = backend::shared_backend("simdevice").device;
    batched::ExecutionContext sctx(backend::shared_backend("simdevice"));
    Matrix sx(n, 1), sy(n, 1);
    fill_gaussian(sx.view(), GaussianStream(9), 0);
    dop->matrix.matvec(sctx, sx.view(), sy.view()); // warmup (workspace growth)
    dop->factor.solve_many(sx.view(), sy.view(), sctx);
    const int reps = 8;
    const auto s0 = dev->stats();
    for (int i = 0; i < reps; ++i) dop->matrix.matvec(sctx, sx.view(), sy.view());
    const auto s1 = dev->stats();
    for (int i = 0; i < reps; ++i) dop->factor.solve_many(sx.view(), sy.view(), sctx);
    const auto s2 = dev->stats();
    ss.matvec_h2d = (s1.bytes_to_device - s0.bytes_to_device) / reps;
    ss.matvec_d2h = (s1.bytes_to_host - s0.bytes_to_host) / reps;
    ss.solve_h2d = (s2.bytes_to_device - s1.bytes_to_device) / reps;
    ss.solve_d2h = (s2.bytes_to_host - s1.bytes_to_host) / reps;
    ss.panel_bytes = static_cast<std::uint64_t>(n) * sizeof(real_t);
    ss.operator_device_bytes = dop->matrix.device_bytes() + dop->factor.device_bytes();
    std::cout << "  per-apply bytes to device: matvec " << ss.matvec_h2d << ", solve "
              << ss.solve_h2d << " (x panel = " << ss.panel_bytes << " B); operator holds "
              << fmt_mb(ss.operator_device_bytes) << " MB device-resident\n";
    if (ss.matvec_h2d != ss.panel_bytes || ss.solve_h2d != ss.panel_bytes)
      std::cout << "WARNING: steady-state apply moved more than the x panel\n";
  }

  const char* json_name = smoke ? "BENCH_serving_smoke.json" : "BENCH_serving.json";
  std::ofstream json(json_name);
  json << "{\n  \"bench\": \"serving\",\n  \"mode\": \"" << (smoke ? "smoke" : "full")
       << "\",\n  \"workload\": \"3D cube, exponential+ridge kernel (SPD), tol=1e-6, leaf=32, "
       << "one cached ULV-factored HSS operator, closed-loop clients\",\n  \"n\": " << n
       << ",\n  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n  \"build_seconds\": " << fmt(build_seconds, 4)
       << ",\n  \"operator_bytes\": " << op->bytes
       << ",\n  \"note\": \"per_request = one blocked-size-1 launch per request on a per-client "
       << "context; coalesced = requests batched into one solve_many/blocked-matvec launch per "
       << "tick (max_batch=clients capped at 64, max_delay=2ms, 2 lanes above 8 clients). "
       << "Latencies are client-observed: p50/p99 from merged per-client KLL sketches (~1% "
       << "rank error). "
       << "steady_state: per-apply host<->device byte deltas after warmup on a "
       << "simdevice-resident copy of the operator — uploads equal the x panel exactly\",\n"
       << "  \"steady_state\": {\"matvec_bytes_to_device_per_apply\": " << ss.matvec_h2d
       << ", \"matvec_bytes_to_host_per_apply\": " << ss.matvec_d2h
       << ", \"solve_bytes_to_device_per_apply\": " << ss.solve_h2d
       << ", \"solve_bytes_to_host_per_apply\": " << ss.solve_d2h
       << ", \"x_panel_bytes\": " << ss.panel_bytes
       << ", \"operator_device_bytes\": " << ss.operator_device_bytes << "},\n"
       << "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    json << "    {\"kind\": \"" << r.kind << "\", \"clients\": " << r.clients
         << ", \"requests\": " << r.requests
         << ", \"per_request\": {\"ops_per_s\": " << fmt(r.per_request.ops_per_s, 5)
         << ", \"p50_ms\": " << fmt(r.per_request.p50_ms, 4)
         << ", \"p99_ms\": " << fmt(r.per_request.p99_ms, 4) << "}"
         << ", \"coalesced\": {\"ops_per_s\": " << fmt(r.coalesced.ops_per_s, 5)
         << ", \"p50_ms\": " << fmt(r.coalesced.p50_ms, 4)
         << ", \"p99_ms\": " << fmt(r.coalesced.p99_ms, 4)
         << ", \"batches\": " << r.coalesced.batches
         << ", \"mean_batch\": " << fmt(r.coalesced.mean_batch, 4)
         << ", \"flush_full\": " << r.coalesced.flush_full
         << ", \"flush_timeout\": " << r.coalesced.flush_timeout << "}"
         << ", \"speedup\": " << fmt(r.speedup, 4) << "}" << (i + 1 < runs.size() ? "," : "")
         << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\nwrote " << json_name << "\n";

  // Registry-side view of the same serving traffic: the coalescer feeds
  // every request latency into serve_request_latency_seconds.
  const obs::RegistrySnapshot reg = obs::MetricsRegistry::global().snapshot();
  if (const obs::SketchSummary* sk = reg.sketch("serve_request_latency_seconds");
      sk != nullptr && sk->count > 0)
    std::cout << "registry serve_request_latency_seconds: n=" << sk->count
              << " p50=" << fmt(sk->p50 * 1e3, 4) << "ms p99=" << fmt(sk->p99 * 1e3, 4)
              << "ms\n";

  for (const Run& r : runs)
    if (std::string_view(r.kind) == "matvec" && r.clients == 16)
      std::cout << "\nGate: coalesced matvec at 16 clients is " << fmt(r.speedup, 3)
                << "x the per-request baseline (target >= 2x).\n";
  std::cout << "\nShape checks: speedup grows with the client count (more concurrent RHS to\n"
               "coalesce per tick) while coalesced p50 stays in the same decade as the\n"
               "baseline — batching trades a bounded max_delay wait for launch amortization.\n";

  if (faults) return run_fault_smoke(4, 25);
  return 0;
}
