#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

/// \file thread_pool.hpp
/// Persistent work-stealing thread pool: the CPU realization of the stream
/// runtime (the GPU analogue is a set of CUDA streams feeding one device).
///
/// The previous batched backend paid one OpenMP fork/join per launch with
/// `schedule(static)` over batch entries whose costs vary by orders of
/// magnitude. This pool replaces that with:
///  * persistent workers — created once, reused by every launch, sleeping on
///    a condition variable when idle (no per-launch thread management),
///  * per-worker deques with stealing — owners push/pop LIFO at the bottom,
///    idle workers steal FIFO from the top of a victim, so uneven chunk
///    costs rebalance automatically,
///  * cooperative waiting — a thread blocked in TaskGroup::wait() (or a
///    stream sync) executes pending tasks instead of idling, which also
///    makes nested submission (a task spawning subtasks and waiting on
///    them) deadlock-free.
///
/// Determinism contract: the pool never decides *what* is computed, only
/// *where*. Chunk boundaries are always derived from the work itself (entry
/// counts / cost estimates), never from the worker count, and every task
/// writes disjoint outputs, so results are bitwise identical for any number
/// of threads — the property test_determinism pins.
///
/// The pool's width follows `h2sketch::num_threads()` (OMP_NUM_THREADS /
/// omp_set_num_threads when built with OpenMP, `H2SKETCH_NUM_THREADS` in
/// OpenMP-free builds) at every parallel region, so existing thread-count
/// knobs keep working in both directions: a width increase spawns workers
/// lazily; a decrease parks the surplus workers (their queued tasks are
/// stolen by the remaining lanes, and width 1 bypasses the pool
/// entirely). Workers never exit until the pool is destroyed.

namespace h2sketch {

class ThreadPool;

/// Tracks completion and the first exception of a set of submitted tasks.
/// wait() participates in execution (helps drain the pool) and rethrows the
/// first captured exception once every task of the group has finished.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  /// Destruction with unfinished tasks would leave dangling group pointers
  /// in the pool; wait (dropping any exception — wait() explicitly to see it).
  ~TaskGroup();

  /// Submit fn as a task of this group.
  void run(std::function<void()> fn);

  /// Block until every task of the group has finished, executing pending
  /// pool tasks while waiting. Rethrows the group's first exception.
  void wait();

  bool done() const { return pending_.load(std::memory_order_acquire) == 0; }

 private:
  friend class ThreadPool;
  void record_error(std::exception_ptr e);

  ThreadPool& pool_;
  std::atomic<index_t> pending_{0};
  std::mutex error_mu_;
  std::exception_ptr error_;
};

class ThreadPool {
 public:
  /// Process-wide pool used by the stream runtime and gemm_parallel. Its
  /// width tracks num_threads() dynamically; workers are spawned lazily.
  static ThreadPool& global();

  /// A pool with a forced width (tests / benchmarks). width <= 0 means
  /// "track num_threads() dynamically" like the global pool.
  explicit ThreadPool(int forced_width = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Current parallel width (participating threads incl. the caller).
  int width() const;

  /// Submit a task on behalf of `group`. Never runs inline: tasks execute on
  /// workers or inside a cooperative wait. Worker threads push to their own
  /// deque (LIFO); external threads round-robin across deques.
  void submit(TaskGroup& group, std::function<void()> fn);

  /// Submit a task with no completion group. The task owns its own
  /// accounting and must not throw (the stream runtime's launch chunks
  /// catch into per-stream error slots).
  void submit_detached(std::function<void()> fn);

  /// Execute one pending task if any is available. Returns false when every
  /// deque is empty. Public so stream syncs can help drain the pool.
  bool try_run_one();

  /// Block the calling thread until idle() returns true, executing pending
  /// tasks while waiting. idle() is evaluated under the pool's wake lock, so
  /// any state it reads must be updated before notify_waiters().
  void wait_until(const std::function<bool()>& idle);

  /// Wake every sleeping worker/waiter (call after externally changing state
  /// observed by a wait_until predicate).
  void notify_waiters();

  /// Chunked parallel loop over [0, n): f(i) for every i, chunk boundaries
  /// derived from n only (never from the width), caller participates.
  template <typename F>
  void parallel_for(index_t n, F&& f);

  /// Total tasks executed since construction (telemetry for tests/bench).
  std::uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };
  struct WorkerSlot {
    std::mutex mu;
    std::deque<Task> deque;
    std::thread thread;
  };

  void ensure_workers(int target);
  void submit_impl(TaskGroup* group, std::function<void()> fn);
  void worker_loop(size_t slot);
  bool pop_task(size_t preferred, Task& out);
  void run_task(Task& task);

  bool worker_eligible(size_t slot) const;

  const int forced_width_;
  std::atomic<bool> stop_{false};
  std::atomic<index_t> queued_{0};
  std::atomic<int> sleepers_{0}; ///< threads parked on wake_cv_
  /// Last width observed by an external thread; what workers consult
  /// (OpenMP's nthreads ICV is invisible from foreign threads).
  mutable std::atomic<int> active_width_{1};
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> round_robin_{0};

  mutable std::mutex workers_mu_;
  std::vector<std::unique_ptr<WorkerSlot>> workers_; ///< grows, never shrinks

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
};

/// Fixed fan-out for uniform chunking: a loop is split into at most this
/// many tasks. A constant (not the thread count) keeps chunk boundaries —
/// and therefore any conceivable rounding behavior — identical for every
/// width.
inline constexpr index_t kParallelForFanout = 64;

template <typename F>
void ThreadPool::parallel_for(index_t n, F&& f) {
  if (n <= 0) return;
  const int w = width();
  if (w <= 1 || n == 1) {
    for (index_t i = 0; i < n; ++i) f(i);
    return;
  }
  const index_t chunks = std::min(n, kParallelForFanout);
  TaskGroup group(*this);
  // Chunk c covers [c*n/chunks, (c+1)*n/chunks): boundaries depend on n only.
  for (index_t c = 1; c < chunks; ++c) {
    const index_t b = c * n / chunks, e = (c + 1) * n / chunks;
    group.run([&f, b, e] {
      for (index_t i = b; i < e; ++i) f(i);
    });
  }
  const index_t e0 = n / chunks;
  for (index_t i = 0; i < e0; ++i) f(i); // caller takes the first chunk
  group.wait();
}

} // namespace h2sketch
