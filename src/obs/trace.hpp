#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

/// \file trace.hpp
/// Low-overhead cross-layer tracing with Chrome trace-event export.
///
/// `TraceSpan` is an RAII scope that records a timed event into a
/// thread-local lock-free buffer that grows in fixed chunks up to a hard
/// cap (events past it are counted as dropped). When tracing is disabled
/// (the default) every entry point is a single relaxed atomic load and no
/// allocation ever happens — the hot paths (run_batch, backend copies,
/// coalescer ticks) pay one predictable branch.
///
/// Enable programmatically with `start_trace()` / `stop_trace()`, or set
/// `H2SKETCH_TRACE=path.json` in the environment to trace the whole process
/// and write the file at exit. The export is Chrome trace-event JSON: open
/// it at https://ui.perfetto.dev (or chrome://tracing).
///
/// Track model: each recording thread gets its own track (tid 0, 1, ...
/// in registration order). ExecutionContext additionally mirrors every
/// batched launch onto a per-(context, stream) track (tid >= kStreamTrackBase)
/// so the four logical streams read as GPU-style timelines, which is how a
/// coalesced serving request stays followable across the thread pool:
/// admit (client thread) -> flush (lane thread) -> launches (stream tracks)
/// -> scatter (lane thread).
///
/// Quiescence contract: `stop_trace()` flips the enabled flag and then
/// reads every thread's buffer. Callers must ensure no instrumented work is
/// in flight when they stop (sync contexts / join lanes first) — the
/// exporters here and the tests do. Spans that straddle the disable point
/// are dropped, never torn.

namespace h2sketch::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
} // namespace detail

/// True while a trace is being collected. One relaxed load; safe to call at
/// any frequency from any thread.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Stream tracks start here: tid = kStreamTrackBase + ctx_id * n_streams + stream.
inline constexpr std::int32_t kStreamTrackBase = 4096;

/// Stream-track stride per ExecutionContext. Must equal batched::kNumStreams
/// (static_asserted in device.hpp) — the exporter decomposes stream tids
/// into "ctx<i>/stream<j>" names with this stride.
inline constexpr std::int32_t kStreamsPerContext = 4;

/// Use as `tid` to mean "the calling thread's own track".
inline constexpr std::int32_t kCallerTrack = -1;

/// Monotonic nanoseconds since the process trace epoch.
std::int64_t trace_now_ns();

/// One recorded event. `cat`/`name`/arg keys must be string literals (or
/// otherwise outlive the trace) — the buffer stores pointers, not copies.
struct TraceEvent {
  const char* cat = nullptr;
  const char* name = nullptr;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = -1; ///< -1 marks an instant event
  std::int32_t tid = kCallerTrack;
  const char* arg_key[2] = {nullptr, nullptr};
  std::uint64_t arg_val[2] = {0, 0};
};

/// Append `ev` to the calling thread's buffer (drops past the cap).
/// No-op when tracing is disabled.
void record_event(const TraceEvent& ev);

/// Record an instant event (a point-in-time marker, rendered as a pin).
inline void trace_instant(const char* cat, const char* name, const char* k0 = nullptr,
                          std::uint64_t v0 = 0, const char* k1 = nullptr, std::uint64_t v1 = 0) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.cat = cat;
  ev.name = name;
  ev.ts_ns = trace_now_ns();
  ev.arg_key[0] = k0;
  ev.arg_val[0] = v0;
  ev.arg_key[1] = k1;
  ev.arg_val[1] = v1;
  record_event(ev);
}

/// RAII timed scope on the calling thread's track. All-literal arguments;
/// the constructor is a single branch when tracing is off.
class TraceSpan {
 public:
  TraceSpan(const char* cat, const char* name, const char* k0 = nullptr, std::uint64_t v0 = 0,
            const char* k1 = nullptr, std::uint64_t v1 = 0) {
    if (!trace_enabled()) return;
    active_ = true;
    ev_.cat = cat;
    ev_.name = name;
    ev_.ts_ns = trace_now_ns();
    ev_.arg_key[0] = k0;
    ev_.arg_val[0] = v0;
    ev_.arg_key[1] = k1;
    ev_.arg_val[1] = v1;
  }
  ~TraceSpan() {
    if (!active_) return;
    ev_.dur_ns = trace_now_ns() - ev_.ts_ns;
    record_event(ev_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool active_ = false;
  TraceEvent ev_;
};

/// Thread-local launch label: the batched primitives scope one of these
/// around their body so the runtime can name the launches a primitive
/// issues (a single call may enqueue several) without threading strings
/// through every signature.
const char* launch_label();

class ScopedLaunchLabel {
 public:
  explicit ScopedLaunchLabel(const char* label);
  ~ScopedLaunchLabel();
  ScopedLaunchLabel(const ScopedLaunchLabel&) = delete;
  ScopedLaunchLabel& operator=(const ScopedLaunchLabel&) = delete;

 private:
  const char* prev_;
};

/// Collected trace, detached from the thread buffers (strings copied).
struct TraceData {
  struct Event {
    std::string cat;
    std::string name;
    std::int64_t ts_ns = 0;
    std::int64_t dur_ns = -1;
    std::int32_t tid = 0;
    std::vector<std::pair<std::string, std::uint64_t>> args;
  };
  std::vector<Event> events;
  std::uint64_t dropped = 0;

  /// Serialize as Chrome trace-event JSON ({"traceEvents": [...]}) with
  /// thread_name metadata naming the per-thread and per-stream tracks, and
  /// the dropped-event count as "otherData": {"dropped": N}.
  std::string to_json() const;
  void write_json(const std::string& path) const;
};

/// Begin collecting (resets all thread buffers). Idempotent while running.
void start_trace();

/// Stop collecting and return everything recorded. See the quiescence
/// contract above.
TraceData stop_trace();

/// Buffer accounting, for the zero-overhead-when-disabled pin test.
struct TraceStats {
  std::size_t buffers = 0; ///< thread-local buffers ever allocated
  std::size_t events = 0;  ///< events currently held
  std::uint64_t dropped = 0;
};
TraceStats trace_stats();

/// Fresh id for an ExecutionContext's stream-track block.
std::int32_t next_trace_ctx_id();

} // namespace h2sketch::obs
