#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/check.hpp"

namespace h2sketch::obs {

std::atomic<bool> detail::g_trace_enabled{false};

namespace {

/// Events per chunk of a thread's buffer. A thread allocates its first
/// chunk on its first event while tracing is on, and one more chunk each
/// time the last one fills: one allocation per chunk at rollover, never a
/// lock or a malloc per event. Chunks are kept across traces.
constexpr std::size_t kChunkEvents = 1 << 15;

/// Hard cap per thread: kMaxChunks chunks (2^21 events, ~150 MB). Events
/// past it increment `dropped`.
constexpr std::size_t kMaxChunks = 64;

struct ThreadBuffer {
  explicit ThreadBuffer(std::int32_t tid_) : tid(tid_) {}
  std::int32_t tid;
  /// Only the owner thread allocates a chunk, before it publishes a count
  /// that reaches into it, so the collector sees every chunk it reads.
  std::array<std::unique_ptr<TraceEvent[]>, kMaxChunks> chunks;
  /// Owner thread stores with release after writing the slot; the collector
  /// loads with acquire, so slot contents are published without a lock.
  std::atomic<std::size_t> count{0};
  std::atomic<std::uint64_t> dropped{0};
};

struct BufferRegistry {
  std::mutex mu;
  std::vector<ThreadBuffer*> buffers; // leaked: TLS pointers must stay valid
  std::int32_t next_tid = 0;
};

/// Leaked singleton: thread-exit order and the atexit exporter must both be
/// able to touch it safely.
BufferRegistry& registry() {
  static BufferRegistry* reg = new BufferRegistry;
  return *reg;
}

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local const char* t_launch_label = nullptr;

ThreadBuffer* acquire_buffer() {
  if (t_buffer) return t_buffer;
  auto& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  auto* buf = new ThreadBuffer(reg.next_tid++);
  reg.buffers.push_back(buf);
  t_buffer = buf;
  return buf;
}

std::atomic<std::int32_t> g_next_ctx_id{0};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

} // namespace

std::int64_t trace_now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0).count();
}

void record_event(const TraceEvent& ev) {
  if (!trace_enabled()) return;
  ThreadBuffer* buf = acquire_buffer();
  const std::size_t idx = buf->count.load(std::memory_order_relaxed);
  const std::size_t chunk = idx / kChunkEvents;
  if (chunk >= kMaxChunks) {
    buf->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!buf->chunks[chunk]) buf->chunks[chunk] = std::make_unique<TraceEvent[]>(kChunkEvents);
  TraceEvent& slot = buf->chunks[chunk][idx % kChunkEvents];
  slot = ev;
  if (slot.tid == kCallerTrack) slot.tid = buf->tid;
  buf->count.store(idx + 1, std::memory_order_release);
}

const char* launch_label() { return t_launch_label; }

ScopedLaunchLabel::ScopedLaunchLabel(const char* label) : prev_(t_launch_label) {
  t_launch_label = label;
}
ScopedLaunchLabel::~ScopedLaunchLabel() { t_launch_label = prev_; }

std::int32_t next_trace_ctx_id() {
  return g_next_ctx_id.fetch_add(1, std::memory_order_relaxed);
}

void start_trace() {
  auto& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  for (ThreadBuffer* buf : reg.buffers) {
    buf->count.store(0, std::memory_order_release);
    buf->dropped.store(0, std::memory_order_relaxed);
  }
  detail::g_trace_enabled.store(true, std::memory_order_seq_cst);
}

TraceData stop_trace() {
  detail::g_trace_enabled.store(false, std::memory_order_seq_cst);
  TraceData data;
  auto& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  for (ThreadBuffer* buf : reg.buffers) {
    const std::size_t n = buf->count.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEvent& src = buf->chunks[i / kChunkEvents][i % kChunkEvents];
      TraceData::Event ev;
      ev.cat = src.cat ? src.cat : "";
      ev.name = src.name ? src.name : "";
      ev.ts_ns = src.ts_ns;
      ev.dur_ns = src.dur_ns;
      ev.tid = src.tid;
      for (int a = 0; a < 2; ++a)
        if (src.arg_key[a]) ev.args.emplace_back(src.arg_key[a], src.arg_val[a]);
      data.events.push_back(std::move(ev));
    }
    data.dropped += buf->dropped.load(std::memory_order_relaxed);
    buf->count.store(0, std::memory_order_release);
    buf->dropped.store(0, std::memory_order_relaxed);
  }
  std::sort(data.events.begin(), data.events.end(),
            [](const TraceData::Event& a, const TraceData::Event& b) { return a.ts_ns < b.ts_ns; });
  return data;
}

TraceStats trace_stats() {
  TraceStats st;
  auto& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  st.buffers = reg.buffers.size();
  for (ThreadBuffer* buf : reg.buffers) {
    st.events += buf->count.load(std::memory_order_acquire);
    st.dropped += buf->dropped.load(std::memory_order_relaxed);
  }
  return st;
}

std::string TraceData::to_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  auto comma = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Track-name metadata: plain threads by registration order, stream
  // tracks decomposed into (context, stream).
  std::vector<std::int32_t> tids;
  for (const Event& ev : events) tids.push_back(ev.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  for (std::int32_t tid : tids) {
    comma();
    std::string name;
    if (tid >= kStreamTrackBase) {
      const std::int32_t ctx = (tid - kStreamTrackBase) / kStreamsPerContext;
      const std::int32_t stream = (tid - kStreamTrackBase) % kStreamsPerContext;
      name = "ctx" + std::to_string(ctx) + "/stream" + std::to_string(stream);
    } else {
      name = tid == 0 ? "thread0 (main)" : "thread" + std::to_string(tid);
    }
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }

  char ts[64];
  for (const Event& ev : events) {
    comma();
    std::snprintf(ts, sizeof(ts), "%.3f", static_cast<double>(ev.ts_ns) / 1000.0);
    os << "{\"ph\":\"" << (ev.dur_ns < 0 ? "i" : "X") << "\",\"pid\":1,\"tid\":" << ev.tid
       << ",\"ts\":" << ts;
    if (ev.dur_ns >= 0) {
      std::snprintf(ts, sizeof(ts), "%.3f", static_cast<double>(ev.dur_ns) / 1000.0);
      os << ",\"dur\":" << ts;
    } else {
      os << ",\"s\":\"t\"";
    }
    os << ",\"cat\":\"" << json_escape(ev.cat) << "\",\"name\":\"" << json_escape(ev.name) << "\"";
    if (!ev.args.empty()) {
      os << ",\"args\":{";
      for (std::size_t a = 0; a < ev.args.size(); ++a) {
        if (a) os << ",";
        os << "\"" << json_escape(ev.args[a].first) << "\":" << ev.args[a].second;
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n],\"otherData\":{\"dropped\":" << dropped << "}}\n";
  return os.str();
}

void TraceData::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  H2S_CHECK(f != nullptr, "trace: cannot open '" << path << "' for writing");
  const std::string body = to_json();
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

namespace {

/// H2SKETCH_TRACE=path.json: trace the whole process, export at exit.
/// Registered from a dynamic initializer so `main` runs fully traced; the
/// atexit hook runs after main returns, when instrumented work is quiesced.
struct EnvTraceExport {
  EnvTraceExport() {
    const char* path = std::getenv("H2SKETCH_TRACE");
    if (!path || !*path) return;
    static std::string g_path;
    g_path = path;
    start_trace();
    std::atexit([] {
      if (!trace_enabled()) return;
      stop_trace().write_json(g_path);
    });
  }
};
EnvTraceExport g_env_trace_export;

} // namespace

} // namespace h2sketch::obs
