#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "batched/device.hpp"
#include "common/thread_pool.hpp"
#include "core/construction.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/quantile_sketch.hpp"
#include "test_common.hpp"

/// \file test_obs.cpp
/// The observability layer: KLL quantile sketch error/merge/determinism
/// contracts, trace span collection (nesting, per-thread and per-stream
/// track assignment, JSON export shape), the metrics registry under
/// concurrent writers, and the zero-overhead-when-disabled pin.

namespace h2sketch::obs {
namespace {

// ---------------------------------------------------------------------------
// Disabled-tracing pin. MUST run first in this binary: it asserts that no
// ring buffer has ever been allocated, which is only true before any test
// enables tracing. (A TraceSpan with tracing off must not touch the rings.)
// ---------------------------------------------------------------------------

TEST(TraceDisabledPin, NoAllocationNoSpansWhenOff) {
  if (trace_enabled()) GTEST_SKIP() << "H2SKETCH_TRACE is set; pin needs a quiet process";
  const TraceStats before = trace_stats();
  EXPECT_EQ(before.buffers, 0u) << "a ring buffer existed before any trace started";

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < 1000; ++i) {
        TraceSpan span("test", "noop", "i", static_cast<std::uint64_t>(i));
        trace_instant("test", "marker");
      }
    });
  for (auto& th : threads) th.join();

  const TraceStats after = trace_stats();
  EXPECT_EQ(after.buffers, 0u);
  EXPECT_EQ(after.events, 0u);
  EXPECT_EQ(after.dropped, 0u);
}

// ---------------------------------------------------------------------------
// Quantile sketch.
// ---------------------------------------------------------------------------

/// Exact normalized rank of v in a sorted sample.
double exact_rank(const std::vector<double>& sorted, double v) {
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), v);
  return static_cast<double>(it - sorted.begin()) / static_cast<double>(sorted.size());
}

/// Max |rank(estimate(q)) - q| over a grid of quantiles.
double max_rank_error(const QuantileSketch& sk, std::vector<double> data) {
  std::sort(data.begin(), data.end());
  double worst = 0.0;
  for (double q : {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99})
    worst = std::max(worst, std::abs(exact_rank(data, sk.quantile(q)) - q));
  return worst;
}

TEST(QuantileSketch, RankErrorBoundOnKnownDistributions) {
  const index_t n = 50000;
  // Uniform-ish Gaussian stream and a heavy-tailed one (exp of Gaussian):
  // the sketch bound is distribution-free, so both must land within ~1.7/k.
  for (int dist = 0; dist < 2; ++dist) {
    std::vector<double> data = test_util::random_vector(n, 1234 + dist);
    if (dist == 1)
      for (auto& v : data) v = std::exp(v);
    QuantileSketch sk(200);
    for (double v : data) sk.update(v);
    EXPECT_EQ(sk.count(), static_cast<std::uint64_t>(n));
    EXPECT_LT(max_rank_error(sk, data), 0.025) << "dist " << dist;
  }
}

TEST(QuantileSketch, ExactOnSmallStreamsAndExtrema) {
  QuantileSketch sk(200);
  EXPECT_TRUE(sk.empty());
  EXPECT_TRUE(std::isnan(sk.quantile(0.5)));
  for (int i = 1; i <= 100; ++i) sk.update(static_cast<double>(i));
  // 100 items fit entirely in level 0: quantiles are exact.
  EXPECT_EQ(sk.min(), 1.0);
  EXPECT_EQ(sk.max(), 100.0);
  EXPECT_NEAR(sk.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(sk.rank(25.0), 0.25, 0.01);
  EXPECT_EQ(sk.quantile(0.0), 1.0);
  EXPECT_EQ(sk.quantile(1.0), 100.0);
}

TEST(QuantileSketch, RetainedMemoryStaysBounded) {
  QuantileSketch sk(200);
  std::vector<double> data = test_util::random_vector(200000, 7);
  for (double v : data) sk.update(v);
  // O(k log(n/k)) with k=200, n=2e5: generous ceiling well under the stream.
  EXPECT_LT(sk.retained(), 4000u);
}

TEST(QuantileSketch, DeterministicInSeedAndSequence) {
  std::vector<double> data = test_util::random_vector(30000, 99);
  QuantileSketch a(200, 42), b(200, 42);
  for (double v : data) a.update(v);
  for (double v : data) b.update(v);
  for (double q : {0.1, 0.5, 0.9, 0.99})
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "same seed+stream must be bitwise identical";
  EXPECT_EQ(a.retained(), b.retained());
}

TEST(QuantileSketch, MergeKeepsErrorBoundEitherAssociation) {
  const index_t part = 20000;
  std::vector<double> all;
  std::vector<QuantileSketch> parts;
  for (int p = 0; p < 3; ++p) {
    std::vector<double> data = test_util::random_vector(part, 500 + p);
    QuantileSketch sk(200, 1000 + static_cast<std::uint64_t>(p));
    for (double v : data) sk.update(v);
    parts.push_back(std::move(sk));
    all.insert(all.end(), data.begin(), data.end());
  }
  // (a + b) + c
  QuantileSketch left = parts[0];
  left.merge(parts[1]);
  left.merge(parts[2]);
  // a + (b + c)
  QuantileSketch bc = parts[1];
  bc.merge(parts[2]);
  QuantileSketch right = parts[0];
  right.merge(bc);

  for (const QuantileSketch* m : {&left, &right}) {
    EXPECT_EQ(m->count(), static_cast<std::uint64_t>(3 * part));
    EXPECT_EQ(m->min(), *std::min_element(all.begin(), all.end()));
    EXPECT_EQ(m->max(), *std::max_element(all.begin(), all.end()));
    EXPECT_LT(max_rank_error(*m, all), 0.03);
  }

  // Determinism: replaying the same merge program reproduces it bitwise.
  QuantileSketch replay = parts[0];
  replay.merge(parts[1]);
  replay.merge(parts[2]);
  for (double q : {0.1, 0.5, 0.9, 0.99}) EXPECT_EQ(left.quantile(q), replay.quantile(q));
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

/// Check every brace/bracket balances outside of string literals.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_str = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_str) {
      if (c == '\\')
        ++i;
      else if (c == '"')
        in_str = false;
      continue;
    }
    if (c == '"')
      in_str = true;
    else if (c == '{' || c == '[')
      ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_str;
}

TEST(Trace, SpansNestAndThreadsGetDistinctTracks) {
  start_trace();
  ThreadPool pool(4);
  pool.parallel_for(64, [](index_t i) {
    TraceSpan outer("test", "outer", "i", static_cast<std::uint64_t>(i));
    TraceSpan inner("test", "inner");
    trace_instant("test", "tick");
  });
  TraceData data = stop_trace();
  ASSERT_EQ(data.dropped, 0u);

  std::vector<const TraceData::Event*> outers, inners;
  for (const auto& e : data.events) {
    if (e.name == "outer") outers.push_back(&e);
    if (e.name == "inner") inners.push_back(&e);
  }
  ASSERT_EQ(outers.size(), 64u);
  ASSERT_EQ(inners.size(), 64u);

  // Every inner span lies within an outer span on the same thread track.
  for (const auto* in : inners) {
    bool contained = false;
    for (const auto* out : outers)
      if (out->tid == in->tid && out->ts_ns <= in->ts_ns &&
          in->ts_ns + in->dur_ns <= out->ts_ns + out->dur_ns) {
        contained = true;
        break;
      }
    EXPECT_TRUE(contained) << "inner span escapes its outer scope";
    EXPECT_LT(in->tid, kStreamTrackBase) << "plain spans stay off stream tracks";
    EXPECT_GE(in->tid, 0);
  }
}

TEST(Trace, CrossLayerSpansLandOnStreamTracks) {
  // A real (small) construction through the batched runtime: runtime spans
  // must appear on per-(context, stream) tracks, backend op spans on thread
  // tracks, construction phase spans around them.
  auto tree = test_util::build_cube_tree(1024, 3, 11, 16);
  const kern::ExponentialKernel kernel(0.2);
  const Matrix kd = test_util::dense_kernel_matrix(*tree, kernel);
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tree, kernel);
  core::ConstructionOptions opts;
  opts.tol = 1e-6;
  opts.sample_block = 32;
  opts.initial_samples = 64;
  batched::ExecutionContext ctx(batched::Backend::Batched);

  start_trace();
  auto res = core::construct_h2(tree, tree::Admissibility::general(0.7), sampler, gen, opts, ctx);
  ctx.sync_all();
  TraceData data = stop_trace();
  ASSERT_TRUE(res.matrix.mtree.has_any_far()) << "test config exercises no far field";

  bool saw_stream_track = false, saw_backend = false, saw_construction = false;
  for (const auto& e : data.events) {
    if (e.cat == "runtime" && e.tid >= kStreamTrackBase) saw_stream_track = true;
    if (e.cat == "backend") saw_backend = true;
    if (e.cat == "construction") saw_construction = true;
  }
  EXPECT_TRUE(saw_stream_track) << "no batched launch reached a stream track";
  EXPECT_TRUE(saw_backend);
  EXPECT_TRUE(saw_construction);

  const std::string json = data.to_json();
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("stream"), std::string::npos) << "stream tracks must be named";
}

TEST(Trace, JsonCarriesArgsAndInstants) {
  start_trace();
  {
    TraceSpan span("test", "with_args", "alpha", 7, "beta", 9);
    trace_instant("test", "pin", "gamma", 11);
  }
  TraceData data = stop_trace();
  ASSERT_EQ(data.events.size(), 2u);
  const std::string json = data.to_json();
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << "span must export as a complete event";
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << "instant must export as an instant";
}

TEST(Trace, StopResetsAndRestartCollectsFresh) {
  start_trace();
  trace_instant("test", "first");
  TraceData one = stop_trace();
  EXPECT_EQ(one.events.size(), 1u);
  EXPECT_FALSE(trace_enabled());

  start_trace();
  trace_instant("test", "second");
  TraceData two = stop_trace();
  ASSERT_EQ(two.events.size(), 1u);
  EXPECT_EQ(two.events[0].name, "second");
}

TEST(Trace, BufferGrowsPastOneChunkWithoutDropping) {
  // One thread records three full 2^15-event chunks plus one event: its
  // buffer grows a chunk at a time and keeps every event.
  constexpr std::size_t kEvents = 3 * (std::size_t{1} << 15) + 1;
  start_trace();
  std::thread([] {
    for (std::size_t i = 0; i < kEvents; ++i) trace_instant("test", "tick", "i", i);
  }).join();
  TraceData data = stop_trace();
  EXPECT_EQ(data.dropped, 0u);
  ASSERT_EQ(data.events.size(), kEvents);
  std::vector<std::uint64_t> seen;
  for (const auto& ev : data.events) seen.push_back(ev.args.at(0).second);
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < kEvents; ++i) ASSERT_EQ(seen[i], i);
  EXPECT_NE(data.to_json().find("\"otherData\":{\"dropped\":0}"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST(Metrics, ConsistentUnderConcurrentWriters) {
  MetricsRegistry reg;
  const int threads = 8, per_thread = 5000;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&reg, t] {
      Counter& c = reg.counter("obs_test_hits");
      Gauge& g = reg.gauge("obs_test_depth");
      SketchMetric& sk = reg.sketch("obs_test_latency");
      for (int i = 0; i < per_thread; ++i) {
        c.add();
        g.set(static_cast<double>(t));
        sk.record(static_cast<double>(i));
      }
    });
  for (auto& th : pool) th.join();

  const RegistrySnapshot snap = reg.snapshot();
  const std::uint64_t* hits = snap.counter("obs_test_hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(*hits, static_cast<std::uint64_t>(threads) * per_thread);
  const double* depth = snap.gauge("obs_test_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GE(*depth, 0.0);
  EXPECT_LT(*depth, static_cast<double>(threads));
  const SketchSummary* lat = snap.sketch("obs_test_latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, static_cast<std::uint64_t>(threads) * per_thread);
  EXPECT_EQ(lat->min, 0.0);
  EXPECT_EQ(lat->max, static_cast<double>(per_thread - 1));
  EXPECT_NEAR(lat->p50, per_thread / 2.0, per_thread * 0.05);
}

TEST(Metrics, InstrumentReferencesAreStable) {
  MetricsRegistry reg;
  Counter& first = reg.counter("stable");
  // Force rehash/growth pressure: many distinct instruments.
  for (int i = 0; i < 200; ++i) reg.counter("filler_" + std::to_string(i));
  Counter& again = reg.counter("stable");
  EXPECT_EQ(&first, &again);
  first.add(5);
  EXPECT_EQ(again.value(), 5u);
}

TEST(Metrics, CollectorMergeSemantics) {
  MetricsRegistry reg;
  QuantileSketch sk_a(200), sk_b(200);
  for (int i = 0; i < 100; ++i) sk_a.update(static_cast<double>(i));
  for (int i = 100; i < 200; ++i) sk_b.update(static_cast<double>(i));
  // Two independent subsystems reporting the same names: counters must sum,
  // gauges keep the last value, sketches merge.
  reg.add_collector([&](SnapshotBuilder& b) {
    b.counter("dup_hits", 10);
    b.gauge("dup_level", 1.0);
    b.sketch("dup_lat", sk_a);
  });
  const std::uint64_t second = reg.add_collector([&](SnapshotBuilder& b) {
    b.counter("dup_hits", 32);
    b.gauge("dup_level", 2.0);
    b.sketch("dup_lat", sk_b);
  });

  RegistrySnapshot snap = reg.snapshot();
  ASSERT_NE(snap.counter("dup_hits"), nullptr);
  EXPECT_EQ(*snap.counter("dup_hits"), 42u);
  const SketchSummary* lat = snap.sketch("dup_lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 200u);
  EXPECT_EQ(lat->min, 0.0);
  EXPECT_EQ(lat->max, 199.0);

  reg.remove_collector(second);
  snap = reg.snapshot();
  EXPECT_EQ(*snap.counter("dup_hits"), 10u);
  EXPECT_EQ(snap.sketch("dup_lat")->count, 100u);
}

TEST(Metrics, ExportersCarryEveryMetric) {
  MetricsRegistry reg;
  reg.counter("requests_total").add(3);
  reg.gauge("cache_bytes").set(1024.0);
  SketchMetric& sk = reg.sketch("latency_seconds");
  for (int i = 1; i <= 50; ++i) sk.record(i * 0.001);

  const RegistrySnapshot snap = reg.snapshot();
  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("requests_total 3"), std::string::npos);
  EXPECT_NE(prom.find("cache_bytes"), std::string::npos);
  EXPECT_NE(prom.find("latency_seconds{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(prom.find("latency_seconds_count 50"), std::string::npos);

  const std::string json = snap.to_json();
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"requests_total\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_seconds\""), std::string::npos);
}

TEST(Metrics, PeriodicReporterEmitsFinalSnapshotOnStop) {
  MetricsRegistry reg;
  reg.counter("beats").add(7);
  std::atomic<int> reports{0};
  std::atomic<std::uint64_t> last_beats{0};
  {
    PeriodicReporter rep(reg, 3600.0 /* never fires on its own */, [&](const RegistrySnapshot& s) {
      reports.fetch_add(1);
      if (const std::uint64_t* b = s.counter("beats")) last_beats.store(*b);
    });
    rep.stop();
    rep.stop(); // idempotent
  }
  EXPECT_GE(reports.load(), 1);
  EXPECT_EQ(last_beats.load(), 7u);
}

TEST(Metrics, GlobalRegistrySeesConstructionSketches) {
  // The builders feed block ranks and probe residuals into the global
  // registry; after any construction ran in this process the snapshot must
  // expose them. (CrossLayerSpansLandOnStreamTracks above built one.)
  const RegistrySnapshot snap = MetricsRegistry::global().snapshot();
  const SketchSummary* ranks = snap.sketch("construction_block_rank");
  ASSERT_NE(ranks, nullptr);
  EXPECT_GT(ranks->count, 0u);
  const std::uint64_t* runs = snap.counter("construction_runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_GE(*runs, 1u);
}

} // namespace
} // namespace h2sketch::obs
