#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "backend/registry.hpp"
#include "common/errors.hpp"
#include "kernels/kernels.hpp"
#include "serve/coalescer.hpp"
#include "serve/operator_cache.hpp"
#include "serve/telemetry.hpp"
#include "test_common.hpp"

/// \file test_serve.cpp
/// The serving layer: operator-cache semantics (hit/miss accounting, LRU
/// eviction under a byte budget, no-evict-while-pinned, single-flight
/// builds), coalescer flush-on-full vs flush-on-timeout driven by a manual
/// clock and manual pumping (no threads, no real sleeps), correctness of
/// coalesced results against the direct blocked launches, and the request
/// latency quantiles the coalescer records.

namespace h2sketch::serve {
namespace {

ServedOperator dummy_op(std::size_t bytes) {
  ServedOperator op;
  op.bytes = bytes;
  op.backend = "cpu";
  return op;
}

OperatorKey key_of(const std::string& kernel) {
  OperatorKey k;
  k.kernel = kernel;
  k.geometry = 0x1234;
  k.tol = 1e-6;
  k.backend = "cpu";
  return k;
}

TEST(OperatorCache, HitMissAccounting) {
  OperatorCache cache; // unbounded
  int built = 0;
  auto h1 = cache.acquire(key_of("a"), [&] {
    ++built;
    return dummy_op(100);
  });
  ASSERT_TRUE(h1);
  auto h2 = cache.acquire(key_of("a"), [&] {
    ++built;
    return dummy_op(100);
  });
  EXPECT_EQ(built, 1);
  EXPECT_EQ(h1.id(), h2.id());
  EXPECT_FALSE(cache.find(key_of("b")));
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.builds, 1u);
  EXPECT_EQ(s.bytes_cached, 100u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(OperatorCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  OperatorCache cache(250);
  (void)cache.acquire(key_of("a"), [] { return dummy_op(100); }); // handle dropped
  (void)cache.acquire(key_of("b"), [] { return dummy_op(100); });
  EXPECT_TRUE(cache.find(key_of("a"))); // touch a: b becomes the LRU entry
  (void)cache.acquire(key_of("c"), [] { return dummy_op(100); });
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.bytes_cached, 200u);
  EXPECT_FALSE(cache.find(key_of("b"))); // the LRU victim
  EXPECT_TRUE(cache.find(key_of("a")));
  EXPECT_TRUE(cache.find(key_of("c")));
}

TEST(OperatorCache, NeverEvictsPinnedOperators) {
  OperatorCache cache(150);
  auto ha = cache.acquire(key_of("a"), [] { return dummy_op(100); });
  auto hb = cache.acquire(key_of("b"), [] { return dummy_op(100); });
  // Over budget but both operators have live handles: nothing may go.
  CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_GT(s.eviction_skips, 0u);
  EXPECT_EQ(s.bytes_cached, 200u);
  EXPECT_TRUE(cache.find(key_of("a")));
  EXPECT_TRUE(cache.find(key_of("b")));

  ha = OperatorHandle(); // unpin a (hb and the new handle stay pinned)
  auto hc = cache.acquire(key_of("c"), [] { return dummy_op(100); });
  s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_FALSE(cache.find(key_of("a")));
  EXPECT_TRUE(cache.find(key_of("b")));
  EXPECT_TRUE(cache.find(key_of("c")));
}

TEST(OperatorCache, ConcurrentMissesBuildOnce) {
  OperatorCache cache;
  std::atomic<int> built{0};
  std::vector<std::thread> threads;
  std::vector<OperatorHandle> handles(4);
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      handles[static_cast<size_t>(t)] = cache.acquire(key_of("shared"), [&] {
        built.fetch_add(1);
        return dummy_op(64);
      });
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(built.load(), 1);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.builds, 1u);
  EXPECT_EQ(s.hits + s.misses, 4u);
  for (const auto& h : handles) EXPECT_EQ(h.id(), handles[0].id());
}

TEST(OperatorCache, BuildFailurePropagatesAndLeavesNoEntry) {
  OperatorCache cache;
  EXPECT_THROW(cache.acquire(key_of("bad"),
                             []() -> ServedOperator { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_FALSE(cache.find(key_of("bad")));
  auto h = cache.acquire(key_of("bad"), [] { return dummy_op(10); });
  EXPECT_TRUE(h); // the failed build did not wedge the key
}

TEST(GeometryFingerprint, DistinguishesPointsAndLeafSize) {
  const auto p1 = geo::uniform_random_cube(64, 3, 11);
  const auto p2 = geo::uniform_random_cube(64, 3, 12);
  EXPECT_EQ(geometry_fingerprint(p1, 16), geometry_fingerprint(p1, 16));
  EXPECT_NE(geometry_fingerprint(p1, 16), geometry_fingerprint(p2, 16));
  EXPECT_NE(geometry_fingerprint(p1, 16), geometry_fingerprint(p1, 32));
}

/// A small factored operator on the shared cpu device, cached across tests
/// (function-local static cache). Tests that assert on the per-operator
/// metrics pass a distinct `tol` so they get an operator — and counters —
/// of their own; metrics accumulate for the operator's lifetime.
OperatorHandle serving_operator(real_t tol = 1e-8) {
  static OperatorCache cache;
  static const kern::ExponentialKernel base(0.3);
  static const kern::RidgeKernel kernel(base, 1.0);
  static const geo::PointCloud points = geo::uniform_random_cube(192, 3, 77);
  ServeBuildOptions opts;
  opts.leaf_size = 16;
  opts.construction.tol = tol;
  opts.construction.sample_block = 16;
  opts.construction.initial_samples = 32;
  return cache.acquire(make_operator_key(points, kernel, opts, "cpu"),
                       [&] { return build_served_operator(points, kernel, opts, "cpu"); });
}

CoalescerOptions manual_options(index_t max_batch, double max_delay) {
  CoalescerOptions o;
  o.max_batch = max_batch;
  o.max_delay_seconds = max_delay;
  o.manual_pump = true;
  return o;
}

TEST(Coalescer, FlushesOnFullBatchAndMatchesBlockedLaunch) {
  auto op = serving_operator();
  const index_t n = op->size();
  auto clock = std::make_shared<ManualClock>();
  Coalescer co(manual_options(4, 1e9), clock);

  const Matrix xs = test_util::random_matrix(n, 4, 5);
  Matrix ys(n, 4);
  std::vector<std::future<void>> futs;
  for (index_t j = 0; j < 3; ++j)
    futs.push_back(co.submit(op, RequestKind::Matvec,
                             const_real_span(xs.data() + j * n, static_cast<size_t>(n)),
                             real_span(ys.data() + j * n, static_cast<size_t>(n))));
  EXPECT_EQ(co.pump(), 0); // 3 < max_batch and the deadline is far away
  EXPECT_EQ(co.pending(), 3);
  futs.push_back(co.submit(op, RequestKind::Matvec,
                           const_real_span(xs.data() + 3 * n, static_cast<size_t>(n)),
                           real_span(ys.data() + 3 * n, static_cast<size_t>(n))));
  EXPECT_EQ(co.pump(), 4); // full group flushes in one blocked launch
  EXPECT_EQ(co.pending(), 0);
  for (auto& f : futs) f.get();

  // The coalesced launch is exactly one blocked matvec: bitwise identical.
  Matrix y_ref(n, 4);
  batched::ExecutionContext ctx(backend::shared_backend("cpu"));
  op->matrix.matvec(ctx, xs.view(), y_ref.view());
  EXPECT_EQ(max_abs_diff(ys.view(), y_ref.view()), 0.0);

  const MetricsSnapshot m = op->metrics->snapshot();
  EXPECT_EQ(m.batches, 1u);
  EXPECT_EQ(m.flush_full, 1u);
  EXPECT_EQ(m.flush_timeout, 0u);
  EXPECT_EQ(m.coalesced_rhs, 4u);
  EXPECT_EQ(m.matvecs, 4u);
}

TEST(Coalescer, FlushesOnTimeoutWithManualClock) {
  auto op = serving_operator(2e-8); // private operator: fresh latency stats
  const index_t n = op->size();
  auto clock = std::make_shared<ManualClock>();
  Coalescer co(manual_options(64, 0.5), clock);
  const std::uint64_t timeouts0 = op->metrics->flush_timeout.load();

  const Matrix xs = test_util::random_matrix(n, 2, 9);
  Matrix ys(n, 2);
  std::vector<std::future<void>> futs;
  for (index_t j = 0; j < 2; ++j)
    futs.push_back(co.submit(op, RequestKind::Matvec,
                             const_real_span(xs.data() + j * n, static_cast<size_t>(n)),
                             real_span(ys.data() + j * n, static_cast<size_t>(n))));
  EXPECT_EQ(co.pump(), 0);
  clock->advance(0.4);
  EXPECT_EQ(co.pump(), 0); // 0.4 < max_delay: still waiting for more RHS
  // Regression: reporters snapshot operators before any request completes;
  // the quantiles of an empty latency sketch must read 0, not NaN.
  const MetricsSnapshot pending = op->metrics->snapshot();
  EXPECT_EQ(pending.p50_seconds, 0.0);
  EXPECT_EQ(pending.p99_seconds, 0.0);
  clock->advance(0.2);
  EXPECT_EQ(co.pump(), 2); // oldest request is now 0.6s old: flush
  for (auto& f : futs) f.get();

  const MetricsSnapshot m = op->metrics->snapshot();
  EXPECT_EQ(m.flush_timeout - timeouts0, 1u);
  // ManualClock latency: both requests waited 0.6s, and the sketch returns
  // a recorded value, so p50 and p99 are that latency up to clock rounding.
  EXPECT_NEAR(m.p50_seconds, 0.6, 1e-12);
  EXPECT_NEAR(m.p99_seconds, 0.6, 1e-12);
}

TEST(Coalescer, SolveRequestsCoalesceAndMatchSolveMany) {
  auto op = serving_operator();
  const index_t n = op->size();
  auto clock = std::make_shared<ManualClock>();
  Coalescer co(manual_options(3, 1e9), clock);

  const Matrix bs = test_util::random_matrix(n, 3, 13);
  Matrix xs(n, 3);
  std::vector<std::future<void>> futs;
  for (index_t j = 0; j < 3; ++j)
    futs.push_back(co.submit(op, RequestKind::Solve,
                             const_real_span(bs.data() + j * n, static_cast<size_t>(n)),
                             real_span(xs.data() + j * n, static_cast<size_t>(n))));
  EXPECT_EQ(co.pump(), 3);
  for (auto& f : futs) f.get();

  Matrix x_ref(n, 3);
  batched::ExecutionContext ctx(backend::shared_backend("cpu"));
  op->factor.solve_many(bs.view(), x_ref.view(), ctx);
  EXPECT_EQ(max_abs_diff(xs.view(), x_ref.view()), 0.0);
}

TEST(Coalescer, MatvecAndSolveFormSeparateGroups) {
  auto op = serving_operator();
  const index_t n = op->size();
  auto clock = std::make_shared<ManualClock>();
  Coalescer co(manual_options(2, 1e9), clock);

  const Matrix x = test_util::random_matrix(n, 2, 21);
  Matrix y(n, 2);
  // One of each kind: neither group is full, so nothing may flush...
  auto f0 = co.submit(op, RequestKind::Matvec, const_real_span(x.data(), static_cast<size_t>(n)),
                      real_span(y.data(), static_cast<size_t>(n)));
  auto f1 = co.submit(op, RequestKind::Solve,
                      const_real_span(x.data() + n, static_cast<size_t>(n)),
                      real_span(y.data() + n, static_cast<size_t>(n)));
  EXPECT_EQ(co.pump(), 0);
  EXPECT_EQ(co.pending(), 2);
  // ...until drain forces both launches through.
  EXPECT_EQ(co.drain(), 2);
  f0.get();
  f1.get();
}

TEST(Coalescer, ManualModeThrowsWhenQueueIsFull) {
  auto op = serving_operator();
  const index_t n = op->size();
  CoalescerOptions o = manual_options(64, 1e9);
  o.queue_capacity = 2;
  auto clock = std::make_shared<ManualClock>();
  Coalescer co(o, clock);

  const Matrix x = test_util::random_matrix(n, 3, 33);
  Matrix y(n, 3);
  auto span_x = [&](index_t j) { return const_real_span(x.data() + j * n, static_cast<size_t>(n)); };
  auto span_y = [&](index_t j) { return real_span(y.data() + j * n, static_cast<size_t>(n)); };
  auto f0 = co.submit(op, RequestKind::Matvec, span_x(0), span_y(0));
  auto f1 = co.submit(op, RequestKind::Matvec, span_x(1), span_y(1));
  EXPECT_THROW(co.submit(op, RequestKind::Matvec, span_x(2), span_y(2)), std::runtime_error);
  EXPECT_EQ(co.drain(), 2);
  f0.get();
  f1.get();
}

TEST(Coalescer, ThreadedLanesServeConcurrentClients) {
  auto op = serving_operator(4e-8); // private operator: fresh counters
  const index_t n = op->size();
  CoalescerOptions o;
  o.max_batch = 8;
  o.max_delay_seconds = 500e-6;
  o.lanes = 2;
  Coalescer co(o);

  constexpr int kClients = 4, kPerClient = 8;
  const Matrix xs = test_util::random_matrix(n, kClients * kPerClient, 3);
  Matrix ys(n, kClients * kPerClient);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        const index_t j = static_cast<index_t>(c * kPerClient + r);
        auto fut = co.submit(op, RequestKind::Matvec,
                             const_real_span(xs.data() + j * n, static_cast<size_t>(n)),
                             real_span(ys.data() + j * n, static_cast<size_t>(n)));
        fut.get();
      }
    });
  for (auto& t : clients) t.join();
  co.stop();

  Matrix y_ref(n, xs.cols());
  batched::ExecutionContext ctx(backend::shared_backend("cpu"));
  op->matrix.matvec(ctx, xs.view(), y_ref.view());
  // Lanes coalesce nondeterministic subsets of the columns, and blocked
  // gemm rounding depends on the column grouping at the last ulp — so this
  // comparison is to tolerance, unlike the fixed-batch tests above.
  EXPECT_LT(test_util::rel_fro_error(ys.view(), y_ref.view()), test_util::kMatvecRelTol);
  EXPECT_EQ(op->metrics->latency_sketch.snapshot().count(), op->metrics->snapshot().requests);
}

// --- recovery policies -------------------------------------------------

TEST(OperatorCache, RetryableBuildErrorsRetryWithCappedBackoff) {
  std::vector<double> sleeps;
  CacheOptions o;
  o.max_build_retries = 3;
  o.backoff_initial_seconds = 0.05;
  o.backoff_max_seconds = 0.15;
  o.sleep_fn = [&](double d) { sleeps.push_back(d); };
  OperatorCache cache(o);

  int invocations = 0;
  auto h = cache.acquire(key_of("flaky"), [&]() -> ServedOperator {
    if (++invocations < 4) throw LaunchError("transient launch failure");
    return dummy_op(10);
  });
  EXPECT_TRUE(h);
  EXPECT_EQ(invocations, 4);
  // Exponential backoff from 0.05, capped at backoff_max: 0.05, 0.1, 0.15.
  ASSERT_EQ(sleeps.size(), 3u);
  EXPECT_DOUBLE_EQ(sleeps[0], 0.05);
  EXPECT_DOUBLE_EQ(sleeps[1], 0.10);
  EXPECT_DOUBLE_EQ(sleeps[2], 0.15);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.build_retries, 3u);
  EXPECT_EQ(s.build_failures, 0u);
}

TEST(OperatorCache, NonRetryableAndUnknownErrorsAreNotRetried) {
  CacheOptions o;
  o.max_build_retries = 5;
  o.sleep_fn = [](double) { FAIL() << "must not back off for a non-retryable error"; };
  OperatorCache cache(o);

  int invocations = 0;
  EXPECT_THROW(cache.acquire(key_of("indefinite"),
                             [&]() -> ServedOperator {
                               ++invocations;
                               throw NumericalError("not SPD");
                             }),
               NumericalError);
  EXPECT_EQ(invocations, 1); // deterministic failure: retrying cannot help

  // Exceptions outside the taxonomy propagate on the first attempt too —
  // the cache has no basis to judge whether re-running them is safe.
  invocations = 0;
  EXPECT_THROW(cache.acquire(key_of("unknown"),
                             [&]() -> ServedOperator {
                               ++invocations;
                               throw std::runtime_error("not taxonomy");
                             }),
               std::runtime_error);
  EXPECT_EQ(invocations, 1);
  EXPECT_EQ(cache.stats().build_failures, 2u);
}

TEST(OperatorCache, ConcurrentMissesShareOneFailingBuild) {
  CacheOptions opts;
  opts.max_build_retries = 0; // single invocation per acquire
  OperatorCache cache(opts);
  std::atomic<int> invocations{0};
  std::promise<void> entered;
  auto entered_fut = entered.get_future().share();

  std::atomic<int> failures{0};
  std::thread builder([&] {
    try {
      (void)cache.acquire(key_of("shared-fail"), [&]() -> ServedOperator {
        if (invocations.fetch_add(1) == 0)
          entered.set_value(); // let the joiners pile onto the pending future
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throw LaunchError("build died");
      });
    } catch (const LaunchError&) {
      failures.fetch_add(1);
    }
  });
  entered_fut.wait();
  std::vector<std::thread> joiners;
  for (int t = 0; t < 3; ++t)
    joiners.emplace_back([&] {
      try {
        (void)cache.acquire(key_of("shared-fail"),
                            [&]() -> ServedOperator { throw LaunchError("build died"); });
      } catch (const LaunchError&) {
        failures.fetch_add(1);
      }
    });
  builder.join();
  for (auto& t : joiners) t.join();
  // Every caller observed the single flight's failure; joiners that raced
  // past the pending window ran (and failed) their own build, but nothing
  // was cached and the key is not wedged.
  EXPECT_EQ(failures.load(), 4);
  EXPECT_GE(invocations.load(), 1);
  EXPECT_FALSE(cache.find(key_of("shared-fail")));
  EXPECT_TRUE(cache.acquire(key_of("shared-fail"), [] { return dummy_op(10); }));
}

TEST(OperatorCache, FailureCooldownRejectsThenExpires) {
  auto clock = std::make_shared<ManualClock>();
  CacheOptions o;
  o.max_build_retries = 0;
  o.failure_cooldown_seconds = 10.0;
  o.clock = clock;
  OperatorCache cache(o);

  int invocations = 0;
  auto failing = [&]() -> ServedOperator {
    ++invocations;
    throw LaunchError("device fell over");
  };
  EXPECT_THROW(cache.acquire(key_of("cool"), failing), LaunchError);
  EXPECT_EQ(invocations, 1);

  // Inside the cooldown window the stored failure is rethrown and the
  // builder never runs — the negative-result cache absorbs retry storms.
  clock->advance(5.0);
  EXPECT_THROW(cache.acquire(key_of("cool"), failing), LaunchError);
  EXPECT_EQ(invocations, 1);
  EXPECT_EQ(cache.stats().cooldown_rejects, 1u);

  // Past the window the key builds again.
  clock->advance(6.0);
  auto h = cache.acquire(key_of("cool"), [&] {
    ++invocations;
    return dummy_op(10);
  });
  EXPECT_TRUE(h);
  EXPECT_EQ(invocations, 2);
}

TEST(OperatorCache, DeviceOomEvictsUnpinnedEntriesAndRetries) {
  CacheOptions o;
  o.sleep_fn = [](double) {};
  OperatorCache cache(o);
  (void)cache.acquire(key_of("old"), [] { return dummy_op(100); }); // unpinned: evictable
  auto pinned = cache.acquire(key_of("pinned"), [] { return dummy_op(100); });

  int invocations = 0;
  auto h = cache.acquire(key_of("big"), [&]() -> ServedOperator {
    if (++invocations == 1) throw DeviceOomError("device heap exhausted", 50);
    return dummy_op(100);
  });
  EXPECT_TRUE(h);
  EXPECT_EQ(invocations, 2);
  const CacheStats s = cache.stats();
  // The OOM retry evicted the unpinned LRU entry (and only it) without
  // consuming a backoff retry.
  EXPECT_EQ(s.oom_evictions, 1u);
  EXPECT_EQ(s.build_retries, 0u);
  EXPECT_FALSE(cache.find(key_of("old")));
  EXPECT_TRUE(cache.find(key_of("pinned")));
}

TEST(Coalescer, QueueFullErrorCarriesDepthAndCapacity) {
  auto op = serving_operator();
  const index_t n = op->size();
  CoalescerOptions o = manual_options(64, 1e9);
  o.queue_capacity = 2;
  Coalescer co(o, std::make_shared<ManualClock>());

  const Matrix x = test_util::random_matrix(n, 3, 41);
  Matrix y(n, 3);
  auto span_x = [&](index_t j) { return const_real_span(x.data() + j * n, static_cast<size_t>(n)); };
  auto span_y = [&](index_t j) { return real_span(y.data() + j * n, static_cast<size_t>(n)); };
  auto f0 = co.submit(op, RequestKind::Matvec, span_x(0), span_y(0));
  auto f1 = co.submit(op, RequestKind::Matvec, span_x(1), span_y(1));
  try {
    (void)co.submit(op, RequestKind::Matvec, span_x(2), span_y(2));
    FAIL() << "submit past capacity must throw QueueFullError";
  } catch (const QueueFullError& e) {
    EXPECT_EQ(e.depth(), 2u);
    EXPECT_EQ(e.capacity(), 2u);
    EXPECT_TRUE(e.retryable()); // load drains: callers may resubmit
  }
  EXPECT_EQ(co.drain(), 2);
  f0.get();
  f1.get();
}

TEST(Coalescer, RequestDeadlineExpiresUnderManualClock) {
  auto op = serving_operator(8e-8); // private operator: fresh counters
  const index_t n = op->size();
  CoalescerOptions o = manual_options(64, 1e9);
  o.request_deadline_seconds = 1.0;
  auto clock = std::make_shared<ManualClock>();
  Coalescer co(o, clock);

  const Matrix x = test_util::random_matrix(n, 2, 55);
  Matrix y(n, 2);
  std::vector<std::future<void>> futs;
  for (index_t j = 0; j < 2; ++j)
    futs.push_back(co.submit(op, RequestKind::Matvec,
                             const_real_span(x.data() + j * n, static_cast<size_t>(n)),
                             real_span(y.data() + j * n, static_cast<size_t>(n))));
  EXPECT_EQ(co.pump(), 0); // within deadline, batch not full: nothing moves
  clock->advance(1.5);
  EXPECT_EQ(co.pump(), 2); // both expired: resolved (exceptionally), not dispatched
  EXPECT_EQ(co.pending(), 0);
  for (auto& f : futs) {
    try {
      f.get();
      FAIL() << "expired request must fail with DeadlineExceededError";
    } catch (const DeadlineExceededError& e) {
      EXPECT_NEAR(e.waited_seconds(), 1.5, 1e-9);
      EXPECT_TRUE(e.retryable());
    }
  }
  EXPECT_EQ(op->metrics->snapshot().deadline_expired, 2u);
}

TEST(Coalescer, StopDrainsQueuedRequestsBeforeRejecting) {
  auto op = serving_operator();
  const index_t n = op->size();
  CoalescerOptions o;
  o.max_batch = 64;
  o.max_delay_seconds = 1e9; // nothing flushes on its own
  o.lanes = 1;
  Coalescer co(o);

  const Matrix x = test_util::random_matrix(n, 3, 59);
  Matrix y(n, 3);
  std::vector<std::future<void>> futs;
  for (index_t j = 0; j < 3; ++j)
    futs.push_back(co.submit(op, RequestKind::Matvec,
                             const_real_span(x.data() + j * n, static_cast<size_t>(n)),
                             real_span(y.data() + j * n, static_cast<size_t>(n))));
  co.stop(); // drain-then-reject: queued work completes...
  for (auto& f : futs) EXPECT_NO_THROW(f.get());
  // ...and only new submissions are refused.
  EXPECT_THROW((void)co.submit(op, RequestKind::Matvec,
                               const_real_span(x.data(), static_cast<size_t>(n)),
                               real_span(y.data(), static_cast<size_t>(n))),
               std::runtime_error);
}

} // namespace
} // namespace h2sketch::serve
