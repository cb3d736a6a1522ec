#pragma once

#include <cstdint>
#include <cstdlib>

#include "common/thread_pool.hpp"
#include "common/types.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

/// \file parallel.hpp
/// Shared-memory parallel loop wrappers. `parallel_for` is a thin shim over
/// the persistent work-stealing pool (thread_pool.hpp): no per-launch
/// fork/join, cooperative waiting, chunk boundaries derived from the trip
/// count only (bitwise-deterministic for any thread count).

namespace h2sketch {

/// Requested parallel width. OpenMP builds: OMP_NUM_THREADS /
/// omp_set_num_threads, the user-facing knob, re-read at every parallel
/// region so mid-process changes take effect (the thread-count-varying
/// determinism and scaling tests depend on this never being overridden).
/// OpenMP-free builds (e.g. the TSan configuration, where libgomp's lack
/// of instrumentation forces OpenMP off): H2SKETCH_NUM_THREADS, else 1.
inline int num_threads() {
#if defined(_OPENMP)
  return omp_get_max_threads();
#else
  static const int env_width = [] {
    if (const char* s = std::getenv("H2SKETCH_NUM_THREADS")) {
      const int v = std::atoi(s);
      if (v > 0) return v;
    }
    return 0;
  }();
  return env_width > 0 ? env_width : 1;
#endif
}

/// Apply f(i) for i in [0, n) on the persistent pool.
/// f must be safe to run concurrently for distinct i.
template <typename F>
void parallel_for(index_t n, F&& f) {
  ThreadPool::global().parallel_for(n, std::forward<F>(f));
}

/// Serial loop with the same shape (the Naive backend uses this so both
/// backends share call sites).
template <typename F>
void serial_for(index_t n, F&& f) {
  for (index_t i = 0; i < n; ++i) f(i);
}

} // namespace h2sketch
