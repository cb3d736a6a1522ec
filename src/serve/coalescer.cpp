#include "serve/coalescer.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>

#include "backend/registry.hpp"
#include "batched/device.hpp"
#include "common/check.hpp"
#include "common/matrix.hpp"
#include "common/timer.hpp"
#include "h2/h2_matvec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace h2sketch::serve {

Coalescer::Coalescer(CoalescerOptions opts, std::shared_ptr<const Clock> clock)
    : opts_(opts), clock_(clock ? std::move(clock) : std::make_shared<SteadyClock>()) {
  H2S_CHECK(opts_.max_batch > 0, "coalescer: max_batch must be positive");
  H2S_CHECK(opts_.queue_capacity > 0, "coalescer: queue_capacity must be positive");
  if (!opts_.manual_pump) {
    const int lanes = std::max(1, opts_.lanes);
    lanes_.reserve(static_cast<size_t>(lanes));
    for (int i = 0; i < lanes; ++i) lanes_.emplace_back([this] { lane_loop(); });
  }
}

Coalescer::~Coalescer() { stop(); }

std::future<void> Coalescer::submit(OperatorHandle op, RequestKind kind, const_real_span x,
                                    real_span y) {
  H2S_CHECK(op, "coalescer submit: empty operator handle");
  const auto n = static_cast<std::size_t>(op->size());
  H2S_CHECK(x.size() == n && y.size() == n,
            "coalescer submit: x/y must be length " << n << " (got " << x.size() << ", "
                                                    << y.size() << ")");
  Request r;
  r.kind = kind;
  r.x = x;
  r.y = y;

  std::unique_lock<std::mutex> lk(mu_);
  if (opts_.manual_pump) {
    if (queue_size_ >= opts_.queue_capacity)
      throw QueueFullError("coalescer submit: queue full (" + std::to_string(queue_size_) + "/" +
                               std::to_string(opts_.queue_capacity) +
                               " requests) in manual_pump mode",
                           queue_size_, opts_.queue_capacity);
  } else {
    space_cv_.wait(lk, [&] { return queue_size_ < opts_.queue_capacity || stopping_; });
  }
  H2S_CHECK(!stopping_, "coalescer submit: coalescer is stopped");

  r.enqueue_time = clock_->now();
  op->metrics->requests.fetch_add(1, std::memory_order_relaxed);
  obs::trace_instant("serve", "admit", "op",
                     static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(op.id())), "kind",
                     static_cast<std::uint64_t>(kind));
  auto fut = r.done.get_future();
  const GroupKey key{op.id(), static_cast<int>(kind)};
  r.op = std::move(op);
  groups_[key].reqs.push_back(std::move(r));
  ++queue_size_;
  lk.unlock();
  work_cv_.notify_one();
  return fut;
}

std::optional<Coalescer::Batch> Coalescer::take_ready_locked(double now, bool force) {
  auto chosen = groups_.end();
  bool full = false;
  for (auto it = groups_.begin(); it != groups_.end(); ++it) {
    if (it->second.reqs.empty()) continue;
    if (static_cast<index_t>(it->second.reqs.size()) >= opts_.max_batch) {
      chosen = it;
      full = true;
      break; // full groups take priority: they amortize best
    }
    if (chosen == groups_.end() &&
        (force || now - it->second.reqs.front().enqueue_time >= opts_.max_delay_seconds))
      chosen = it;
  }
  if (chosen == groups_.end()) return std::nullopt;

  auto& reqs = chosen->second.reqs;
  const auto take = std::min<std::size_t>(reqs.size(), static_cast<std::size_t>(opts_.max_batch));
  Batch b;
  b.kind = reqs.front().kind;
  b.full = full;
  b.reqs.reserve(take);
  std::move(reqs.begin(), reqs.begin() + static_cast<std::ptrdiff_t>(take),
            std::back_inserter(b.reqs));
  reqs.erase(reqs.begin(), reqs.begin() + static_cast<std::ptrdiff_t>(take));
  if (reqs.empty()) groups_.erase(chosen);
  queue_size_ -= take;
  return b;
}

/// Remove every request that has outlived its deadline. Groups are FIFO, so
/// scanning from the front of each finds all expired entries.
void Coalescer::take_expired_locked(double now, std::vector<Request>& expired) {
  if (opts_.request_deadline_seconds <= 0.0) return;
  for (auto it = groups_.begin(); it != groups_.end();) {
    auto& reqs = it->second.reqs;
    std::size_t n = 0;
    while (n < reqs.size() && now - reqs[n].enqueue_time > opts_.request_deadline_seconds) ++n;
    if (n > 0) {
      std::move(reqs.begin(), reqs.begin() + static_cast<std::ptrdiff_t>(n),
                std::back_inserter(expired));
      reqs.erase(reqs.begin(), reqs.begin() + static_cast<std::ptrdiff_t>(n));
      queue_size_ -= n;
    }
    it = reqs.empty() ? groups_.erase(it) : std::next(it);
  }
}

/// Resolve expired requests with DeadlineExceededError (outside the queue
/// lock — promise continuations can run arbitrary client code).
index_t Coalescer::fail_expired(std::vector<Request> expired, double now) {
  for (auto& r : expired) {
    const double waited = now - r.enqueue_time;
    r.op->metrics->deadline_expired.fetch_add(1, std::memory_order_relaxed);
    r.done.set_exception(std::make_exception_ptr(DeadlineExceededError(
        "coalescer: request waited " + std::to_string(waited) + "s, past its " +
            std::to_string(opts_.request_deadline_seconds) + "s deadline",
        waited)));
  }
  return static_cast<index_t>(expired.size());
}

double Coalescer::earliest_deadline_locked() const {
  double earliest = std::numeric_limits<double>::infinity();
  for (const auto& [key, g] : groups_) {
    if (g.reqs.empty()) continue;
    double d = g.reqs.front().enqueue_time + opts_.max_delay_seconds;
    if (opts_.request_deadline_seconds > 0.0)
      d = std::min(d, g.reqs.front().enqueue_time + opts_.request_deadline_seconds);
    earliest = std::min(earliest, d);
  }
  return earliest;
}

/// One coalesced launch on `backend_name`, creating (and caching) the
/// lane-local context on first use. The assignment into the map happens
/// after the context constructs, so a failed construction leaves no null
/// half-made entry behind.
void Coalescer::launch_batch(Batch& batch, ContextMap& ctxs, ConstMatrixView b, MatrixView y,
                             const std::string& backend_name) {
  auto& ctx = ctxs[backend_name];
  if (!ctx)
    ctx = std::make_unique<batched::ExecutionContext>(backend::shared_backend(backend_name));
  ServedOperator& op = *batch.reqs.front().op;
  if (batch.kind == RequestKind::Matvec)
    h2::h2_matvec(*ctx, op.matrix, b, y);
  else
    op.factor.solve_many(b, y, *ctx);
}

index_t Coalescer::execute_batch(Batch batch, ContextMap& ctxs) {
  const auto k = static_cast<index_t>(batch.reqs.size());
  ServedOperator& op = *batch.reqs.front().op;
  const index_t n = op.size();

  try {
    obs::TraceSpan flush_span("serve", "flush", "rhs", static_cast<std::uint64_t>(k), "full",
                              batch.full ? 1 : 0);
    // Marshal the single-RHS payloads into one N x k block...
    Matrix b(n, k), y(n, k);
    for (index_t j = 0; j < k; ++j)
      std::memcpy(b.data() + j * n, batch.reqs[static_cast<size_t>(j)].x.data(),
                  static_cast<std::size_t>(n) * sizeof(real_t));

    // ...one blocked launch for the whole tick, degrading once on a
    // retryable failure: the fallback config shares the original's device
    // heap (registry::degraded_backend_name), and both matvec and
    // solve_many rewrite y in full, so a half-finished failed launch leaves
    // nothing stale behind...
    try {
      launch_batch(batch, ctxs, b.view(), y.view(), op.backend);
    } catch (const Error& e) {
      const std::string degraded{backend::degraded_backend_name(op.backend)};
      if (!e.retryable() || degraded == op.backend) throw;
      op.metrics->launch_failures.fetch_add(1, std::memory_order_relaxed);
      obs::trace_instant("serve", "degraded_retry", "rhs", static_cast<std::uint64_t>(k));
      launch_batch(batch, ctxs, b.view(), y.view(), degraded);
      op.metrics->degraded_launches.fetch_add(1, std::memory_order_relaxed);
    }

    // ...and scatter back out.
    obs::TraceSpan scatter_span("serve", "scatter", "rhs", static_cast<std::uint64_t>(k));
    for (index_t j = 0; j < k; ++j)
      std::memcpy(batch.reqs[static_cast<size_t>(j)].y.data(), y.data() + j * n,
                  static_cast<std::size_t>(n) * sizeof(real_t));
  } catch (...) {
    auto e = std::current_exception();
    for (auto& r : batch.reqs) r.done.set_exception(e);
    return k;
  }

  op.metrics->batches.fetch_add(1, std::memory_order_relaxed);
  op.metrics->coalesced_rhs.fetch_add(static_cast<std::uint64_t>(k), std::memory_order_relaxed);
  (batch.full ? op.metrics->flush_full : op.metrics->flush_timeout)
      .fetch_add(1, std::memory_order_relaxed);
  auto& kind_counter = batch.kind == RequestKind::Matvec ? op.metrics->matvecs : op.metrics->solves;
  kind_counter.fetch_add(static_cast<std::uint64_t>(k), std::memory_order_relaxed);

  const double now = clock_->now();
  // Each request latency goes once into the per-operator sketch (behind
  // MetricsSnapshot::p50/p99) and once into the process-wide one.
  obs::SketchMetric& global_latency =
      obs::MetricsRegistry::global().sketch("serve_request_latency_seconds");
  for (auto& r : batch.reqs) {
    const double latency = now - r.enqueue_time;
    op.metrics->latency_sketch.record(latency);
    global_latency.record(latency);
    r.done.set_value();
  }
  return k;
}

index_t Coalescer::run_ready(bool force, ContextMap& ctxs) {
  index_t completed = 0;
  for (;;) {
    std::vector<Request> expired;
    std::unique_lock<std::mutex> lk(mu_);
    const double now = clock_->now();
    take_expired_locked(now, expired);
    auto batch = take_ready_locked(now, force);
    lk.unlock();
    completed += fail_expired(std::move(expired), now);
    if (!batch) {
      if (completed > 0) space_cv_.notify_all();
      break;
    }
    completed += execute_batch(std::move(*batch), ctxs);
    space_cv_.notify_all();
  }
  return completed;
}

index_t Coalescer::pump() { return run_ready(/*force=*/false, pump_ctxs_); }

index_t Coalescer::drain() { return run_ready(/*force=*/true, pump_ctxs_); }

void Coalescer::lane_loop() {
  ContextMap ctxs;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    std::vector<Request> expired;
    const double now = clock_->now();
    take_expired_locked(now, expired);
    auto batch = take_ready_locked(now, stopping_);
    if (batch || !expired.empty()) {
      lk.unlock();
      fail_expired(std::move(expired), now);
      if (batch) execute_batch(std::move(*batch), ctxs);
      space_cv_.notify_all();
      lk.lock();
      continue;
    }
    if (stopping_) return; // stopping and nothing left to flush
    const double deadline = earliest_deadline_locked();
    if (deadline == std::numeric_limits<double>::infinity()) {
      work_cv_.wait(lk);
    } else {
      // Sleep until the earliest group expires (plus a hair so the wake-up
      // observes it expired). Steady clock and Clock::now agree in the
      // threaded configuration.
      const double wait_s = std::max(0.0, deadline - clock_->now()) + 50e-6;
      work_cv_.wait_for(lk, std::chrono::duration<double>(wait_s));
    }
  }
}

void Coalescer::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& t : lanes_)
    if (t.joinable()) t.join();
  lanes_.clear();
  if (opts_.manual_pump) drain(); // flush what tests left queued
}

index_t Coalescer::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<index_t>(queue_size_);
}

} // namespace h2sketch::serve
