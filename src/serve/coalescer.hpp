#pragma once

#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/errors.hpp"
#include "common/types.hpp"
#include "serve/clock.hpp"
#include "serve/operator_cache.hpp"

/// \file coalescer.hpp
/// The serve-many half of the serving story: a bounded submission queue
/// that coalesces concurrent single-RHS matvec/solve requests against a
/// cached operator into one blocked launch (`h2_matvec` /
/// `UlvCholesky::solve_many`) per tick. Requests are grouped by
/// (operator, kind); a group flushes when it reaches `max_batch` RHS
/// (flush-on-full) or when its oldest request has waited `max_delay`
/// (flush-on-timeout). Dispatch fans across `lanes` threads, each owning a
/// private ExecutionContext per backend — the coalesced launches themselves
/// then spread over the context's internal streams.
///
/// Two drive modes:
///  * threaded (default): `lanes` dispatcher threads tick on a steady
///    clock; `submit` applies backpressure by blocking while the queue is
///    at capacity.
///  * manual_pump: no threads; tests call `pump()`/`drain()` themselves
///    with an injected ManualClock, so flush-on-timeout is exercised
///    deterministically with no real sleeps.

namespace h2sketch::serve {

enum class RequestKind { Matvec, Solve };

struct CoalescerOptions {
  index_t max_batch = 16;          ///< flush a group at this many queued RHS
  double max_delay_seconds = 1e-3; ///< flush a group when its oldest request is this late
  std::size_t queue_capacity = 4096; ///< total queued requests before backpressure
  int lanes = 1;                   ///< dispatcher threads (ignored under manual_pump)
  bool manual_pump = false;        ///< no threads; caller drives pump()/drain()
  /// Per-request deadline: a request still queued this long after submit
  /// fails with `DeadlineExceededError` instead of dispatching (load
  /// shedding — a client long past its own timeout should not consume a
  /// launch slot). 0 (default) disables deadlines.
  double request_deadline_seconds = 0.0;
};

/// Request coalescer. `submit` is thread-safe from any number of client
/// threads. The x/y buffers behind a request must stay valid until its
/// future resolves; results land in y in the operator tree's permuted
/// position order (like solve/h2_matvec).
class Coalescer {
 public:
  explicit Coalescer(CoalescerOptions opts, std::shared_ptr<const Clock> clock = nullptr);
  ~Coalescer();
  Coalescer(const Coalescer&) = delete;
  Coalescer& operator=(const Coalescer&) = delete;

  /// Enqueue one single-RHS request (x, y length-N). The returned future
  /// resolves when y is written (or carries the launch's exception). Blocks
  /// while the queue is at capacity (throws `QueueFullError` — carrying the
  /// observed depth — instead under manual_pump, where nothing would ever
  /// drain the queue while the caller blocks).
  std::future<void> submit(OperatorHandle op, RequestKind kind, const_real_span x, real_span y);

  /// Dispatch every group that is ready (full or expired) on the caller's
  /// thread; returns requests completed. Manual mode's tick — call from one
  /// thread at a time.
  index_t pump();

  /// Dispatch everything queued regardless of readiness.
  index_t drain();

  /// Flush remaining work and join the lanes (idempotent; the destructor
  /// calls it). After stop(), submit throws.
  void stop();

  /// Requests currently queued (not yet dispatched).
  index_t pending() const;

 private:
  struct Request {
    OperatorHandle op; ///< pins the operator while the request is in flight
    RequestKind kind;
    const_real_span x;
    real_span y;
    double enqueue_time = 0.0;
    std::promise<void> done;
  };
  struct Group {
    std::vector<Request> reqs; ///< FIFO: front is the oldest
  };
  /// (cache-entry identity, request kind) — one group per coalescable launch.
  using GroupKey = std::pair<const void*, int>;
  struct Batch {
    std::vector<Request> reqs;
    RequestKind kind;
    bool full = false; ///< flushed on max_batch (else timeout/forced)
  };
  using ContextMap =
      std::unordered_map<std::string, std::unique_ptr<batched::ExecutionContext>>;

  std::optional<Batch> take_ready_locked(double now, bool force);
  void take_expired_locked(double now, std::vector<Request>& expired);
  index_t fail_expired(std::vector<Request> expired, double now);
  double earliest_deadline_locked() const;
  void launch_batch(Batch& batch, ContextMap& ctxs, ConstMatrixView b, MatrixView y,
                    const std::string& backend_name);
  index_t execute_batch(Batch batch, ContextMap& ctxs);
  index_t run_ready(bool force, ContextMap& ctxs);
  void lane_loop();

  const CoalescerOptions opts_;
  std::shared_ptr<const Clock> clock_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< lanes: work may be ready
  std::condition_variable space_cv_; ///< submitters: queue may have room
  std::map<GroupKey, Group> groups_;
  std::size_t queue_size_ = 0;
  bool stopping_ = false;

  std::vector<std::thread> lanes_;
  ContextMap pump_ctxs_; ///< contexts for manual pump()/drain() (single driver)
};

} // namespace h2sketch::serve
