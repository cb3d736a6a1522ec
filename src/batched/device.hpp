#pragma once

#include <atomic>
#include <array>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "backend/device_backend.hpp"
#include "common/parallel.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "common/workspace.hpp"
#include "obs/trace.hpp"

/// \file device.hpp
/// The execution model underlying the paper's GPU implementation (§IV-A):
/// operations are split into a *marshaling* phase (gather views/dimensions
/// from the level-flattened trees) and a *batched execution* phase in which
/// a single kernel launch processes every node of a level.
///
/// Two backends share all call sites:
///  * Batched — one launch per batch (the GPU-shaped path), and the launch
///    counter advances by 1.
///  * Naive — one launch per batch *entry* (the per-block implementation a
///    non-batched code would use). Same results; the launch counter advances
///    by the batch size. The Naive-vs-Batched launch-count ratio is the
///    mechanism behind the paper's GPU speedups, and is what the ablation
///    benchmark reports.
///
/// Launches are issued on logical **streams**, mirroring CUDA stream
/// semantics so a GPU backend can drop in behind the same API:
///  * launches on the same stream execute in FIFO order (read-after-write
///    within a pipeline needs no explicit barrier),
///  * launches on different streams may execute concurrently on the
///    persistent work-stealing pool,
///  * `sync(stream)` / `sync_all()` are the explicit barriers; a thread
///    waiting in a sync helps drain the pool rather than idling.
///
/// Within a launch, batch entries are grouped into tasks by a per-entry
/// *cost estimate* (e.g. rows*cols*k flops for a gemm) instead of uniform
/// chunks — H2 batches mix node sizes spanning orders of magnitude, and
/// uniform `schedule(static)` chunking left whole threads idle behind one
/// big entry. Chunk boundaries are derived from the costs alone (never the
/// worker count), so results stay bitwise identical for any thread count.

namespace h2sketch::batched {

/// Launch granularity (legacy name kept for the original call sites; the
/// enum itself now lives in the backend layer as LaunchMode, alongside the
/// device backends that pair with it — see backend/registry.hpp).
using Backend = backend::LaunchMode;

/// Logical stream handle. Streams are small fixed resources (like CUDA
/// stream handles); call sites use the named constants below.
using StreamId = int;

/// Number of logical streams per context. Independent pipelines of the
/// construction/matvec map onto these; more would add bookkeeping with no
/// extra concurrency to exploit.
inline constexpr StreamId kNumStreams = 4;

/// Conventional roles used by the library's call sites (any launch may use
/// any stream; these names only document the pipelines).
inline constexpr StreamId kSampleStream = 0;   ///< sketch/sample pipeline (default)
inline constexpr StreamId kBasisStream = 1;    ///< basis/transfer (omega) pipeline
inline constexpr StreamId kEntryGenStream = 2; ///< kernel entry generation
inline constexpr StreamId kAuxStream = 3;      ///< spill stream for level fan-out

/// Fixed fan-out of a launch: entries are greedily packed into at most ~this
/// many cost-balanced tasks. A constant (not the thread count) keeps chunk
/// boundaries deterministic.
inline constexpr index_t kLaunchFanout = 64;

/// Execution context: backend selection, stream scheduling, kernel-launch
/// accounting, and the per-level arena workspace.
///
/// A context pairs a **device backend** (who owns device memory and the
/// batched-primitive implementations — see backend/device_backend.hpp)
/// with a **launch mode** (Naive vs Batched accounting). The
/// default-constructed context uses the process-wide configuration from
/// $H2SKETCH_BACKEND; passing only a launch mode keeps the configured
/// device. Launch bodies execute inside the backend's kernel scopes, so on
/// SimulatedDevice the device heap is accessible exactly while launches
/// (or explicit copies) run.
class ExecutionContext {
 public:
  /// Process-default configuration ($H2SKETCH_BACKEND, default cpu/Batched).
  ExecutionContext();
  /// Explicit launch mode on the process-default device backend.
  explicit ExecutionContext(Backend backend);
  /// Fully explicit configuration (registry- or factory-created).
  explicit ExecutionContext(backend::ExecutionConfig config);
  ~ExecutionContext();
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  Backend backend() const { return backend_; }

  /// The device backend this context dispatches batched primitives to.
  backend::DeviceBackend& device() const { return *device_; }
  const std::shared_ptr<backend::DeviceBackend>& device_ptr() const { return device_; }

  /// Total kernel launches recorded since construction / reset, across all
  /// streams. Safe to call concurrently with launch recording.
  index_t kernel_launches() const { return launches_.load(std::memory_order_acquire); }

  /// Launches recorded on one stream.
  index_t stream_launches(StreamId s) const;

  /// Record `n` launches performed outside run_batch (e.g. a single
  /// monolithic fill). Attributed to the default stream. Atomic: safe under
  /// concurrent recording from overlapping launches.
  void count_launch(index_t n = 1) { count_stream_launch(kSampleStream, n); }

  /// Execute f(i) for each batch entry i in [0, batch) as one launch on
  /// `stream`, with entries grouped into tasks by cost(i) (an approximate
  /// flop count; any monotone work estimate works). Batched mode: the launch
  /// is asynchronous — it runs FIFO with respect to earlier launches on the
  /// same stream and concurrently with other streams; everything captured by
  /// f (and f itself, which is copied into the launch) must stay valid until
  /// the stream is synced. Naive mode: each entry is its own launch, run
  /// serially inline. An empty batch records no launch in either backend.
  template <typename Cost, typename F>
  void run_batch(StreamId stream, index_t batch, Cost&& cost, F&& f) {
    if (batch <= 0) return;
    // Launch labels come from the dispatch wrappers' ScopedLaunchLabel
    // (op names); a non-null label also means "tracing was on at issue
    // time" — synchronous paths time the work inline, the queued path
    // stamps the LaunchState and reports at completion.
    const char* label = obs::trace_enabled() ? launch_trace_label() : nullptr;
    if (backend_ == Backend::Naive) {
      count_stream_launch(stream, batch);
      const std::int64_t t0 = label ? obs::trace_now_ns() : 0;
      {
        backend::KernelScope ks(device_.get());
        serial_for(batch, f);
      }
      if (label) record_launch_event(stream, label, t0, batch, batch);
      return;
    }
    count_stream_launch(stream, 1);
    if (ThreadPool::global().width() <= 1 && stream_idle(stream)) {
      // Single lane and nothing queued ahead: run in place, zero overhead.
      const std::int64_t t0 = label ? obs::trace_now_ns() : 0;
      {
        backend::KernelScope ks(device_.get());
        serial_for(batch, f);
      }
      if (label) record_launch_event(stream, label, t0, batch, 1);
      return;
    }
    enqueue_launch(stream, std::function<void(index_t)>(std::forward<F>(f)),
                   cost_chunks(batch, cost), label);
  }

  /// Uniform-cost stream launch.
  template <typename F>
  void run_batch(StreamId stream, index_t batch, F&& f) {
    run_batch(stream, batch, [](index_t) { return index_t{1}; }, std::forward<F>(f));
  }

  /// Legacy synchronous batch: one uniform-cost launch on the default
  /// stream, completed on return.
  template <typename F>
  void run_batch(index_t batch, F&& f) {
    run_batch(kSampleStream, batch, std::forward<F>(f));
    sync(kSampleStream);
  }

  /// Barrier for one stream: returns when every launch issued on it has
  /// completed; rethrows the first exception any of its launches raised.
  /// The calling thread executes pending pool tasks while it waits.
  void sync(StreamId stream);

  /// Barrier for every stream.
  void sync_all();

  /// Arena for per-level batched temporaries (one allocation per level).
  Workspace& workspace() { return workspace_; }

  void reset_counters();

 private:
  struct LaunchState {
    std::function<void(index_t)> body;
    std::vector<std::pair<index_t, index_t>> chunks; ///< [begin, end) entry ranges
    std::atomic<index_t> remaining{0};
    const char* label = nullptr;  ///< trace name (literal); null = not traced
    std::int64_t start_ns = 0;    ///< dispatch time, stamped in dispatch_front
  };
  struct Stream {
    mutable std::mutex mu;
    std::deque<std::shared_ptr<LaunchState>> queue; ///< front = active launch
    bool active = false;                            ///< under mu
    std::exception_ptr error;                       ///< under mu; first failure
    std::atomic<index_t> launches{0};
  };

  void count_stream_launch(StreamId s, index_t n);
  bool stream_idle(StreamId s) const;
  void enqueue_launch(StreamId s, std::function<void(index_t)> body,
                      std::vector<std::pair<index_t, index_t>> chunks, const char* label);
  void dispatch_front(StreamId s);
  void launch_complete(StreamId s);
  void record_stream_error(StreamId s, std::exception_ptr e);

  /// Trace track for (this context, stream s): GPU-timeline-style lanes in
  /// the exported trace. The exporter decomposes the tid back into
  /// ctx/stream, so the strides must agree.
  static_assert(kNumStreams == obs::kStreamsPerContext,
                "trace exporter stream-track naming is out of sync with kNumStreams");
  std::int32_t stream_track(StreamId s) const {
    return obs::kStreamTrackBase + trace_ctx_id_ * kNumStreams + s;
  }
  static const char* launch_trace_label() {
    const char* l = obs::launch_label();
    return l ? l : "launch";
  }
  /// Emit one completed-launch span on the stream track.
  void record_launch_event(StreamId s, const char* label, std::int64_t start_ns, index_t batch,
                           index_t chunks);

  /// Greedy cost-balanced chunking: pack entries in order until a chunk
  /// reaches the target cost — total/kLaunchFanout, floored at 4x the mean
  /// entry cost so small batches produce ~batch/4 chunks instead of
  /// degenerating to one task per entry. Boundaries depend only on the
  /// costs and the batch size, never the thread count.
  template <typename Cost>
  static std::vector<std::pair<index_t, index_t>> cost_chunks(index_t batch, Cost&& cost) {
    std::uint64_t total = 0;
    std::vector<std::uint64_t> c(static_cast<size_t>(batch));
    for (index_t i = 0; i < batch; ++i) {
      const auto ci = static_cast<std::uint64_t>(std::max<index_t>(1, cost(i)));
      c[static_cast<size_t>(i)] = ci;
      total += ci;
    }
    const std::uint64_t target =
        std::max<std::uint64_t>({1, total / static_cast<std::uint64_t>(kLaunchFanout),
                                 (4 * total) / static_cast<std::uint64_t>(batch)});
    std::vector<std::pair<index_t, index_t>> chunks;
    index_t begin = 0;
    std::uint64_t acc = 0;
    for (index_t i = 0; i < batch; ++i) {
      acc += c[static_cast<size_t>(i)];
      if (acc >= target) {
        chunks.emplace_back(begin, i + 1);
        begin = i + 1;
        acc = 0;
      }
    }
    if (begin < batch) chunks.emplace_back(begin, batch);
    return chunks;
  }

  std::shared_ptr<backend::DeviceBackend> device_;
  Backend backend_;
  std::int32_t trace_ctx_id_ = obs::next_trace_ctx_id();
  std::atomic<index_t> launches_{0};
  std::array<Stream, static_cast<size_t>(kNumStreams)> streams_;
  Workspace workspace_;
};

/// Exception-safety fence for async stream launches. Launch bodies capture
/// views of buffers owned by stack frames; if an exception (e.g. an injected
/// `LaunchError`) unwinds a frame while launches are still queued, the pool
/// would execute them against freed memory. Declare a StreamFence *after*
/// the operands the pending launches reference and *before* issuing
/// launches: on normal return it is a no-op, but on unwind it drains every
/// stream (swallowing their errors — the in-flight exception wins) before
/// the operands are destroyed.
class StreamFence {
 public:
  explicit StreamFence(ExecutionContext& ctx)
      : ctx_(ctx), exceptions_at_entry_(std::uncaught_exceptions()) {}
  StreamFence(const StreamFence&) = delete;
  StreamFence& operator=(const StreamFence&) = delete;
  ~StreamFence() {
    if (std::uncaught_exceptions() <= exceptions_at_entry_) return;
    for (StreamId s = 0; s < kNumStreams; ++s) {
      try {
        ctx_.sync(s);
      } catch (...) {
        // The exception already unwinding takes precedence.
      }
    }
  }

 private:
  ExecutionContext& ctx_;
  int exceptions_at_entry_;
};

} // namespace h2sketch::batched
