/// End-to-end construction wall time under the stream runtime (persistent
/// pool, cost-aware chunking, stream overlap and the intra-op parallel GEMM
/// path) at 1 and 4 threads.
///
/// Results go to BENCH_construction.json: per (N, threads) wall time, and
/// 1->T scaling efficiency, at N = 2048 and 8192. The runtime is a
/// scheduling change only, so every thread count must agree on samples and
/// ranks; the bench exits nonzero otherwise. `--smoke` runs a tiny single
/// problem for the CI sanitizer sweep.

#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "geometry/point_cloud.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/entry_gen.hpp"
#include "kernels/kernels.hpp"
#include "kernels/proxy_sampler.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

using namespace h2sketch;
using namespace h2sketch::bench;

namespace {

struct Measurement {
  index_t n = 0;
  int threads = 0;
  double seconds = 0.0;
  index_t total_samples = 0;
  index_t kernel_launches = 0;
  index_t max_rank = 0;
};

void set_threads(int t) {
#if defined(_OPENMP)
  omp_set_num_threads(t);
#else
  (void)t;
#endif
}

Measurement build_once(index_t n, index_t leaf, int threads, std::uint64_t seed,
                       kern::SamplerKind kind) {
  set_threads(threads);
  auto tree = std::make_shared<tree::ClusterTree>(
      tree::ClusterTree::build(geo::uniform_random_cube(n, 3, seed), leaf));
  kern::ExponentialKernel kernel(0.2);
  kern::KernelEntryGenerator gen(*tree, kernel);
  core::ConstructionOptions opts;
  opts.tol = 1e-6;
  opts.initial_samples = 32;
  opts.sample_block = 32;
  // Surrogate setup (proxy kind) happens outside the timed region: this
  // measures the construction runtime, not sampler setup.
  kern::ProxySamplerOptions popts;
  popts.tol = opts.tol;
  auto sampler = kern::make_kernel_sampler(kind, tree, kernel, popts);

  batched::ExecutionContext ctx;
  const double t0 = wall_seconds();
  auto res = core::construct_h2(tree, tree::Admissibility::general(0.7), *sampler, gen, opts, ctx);
  Measurement m;
  m.n = n;
  m.threads = threads;
  m.seconds = wall_seconds() - t0;
  m.total_samples = res.stats.total_samples;
  m.kernel_launches = res.stats.kernel_launches;
  m.max_rank = res.stats.max_rank;
  return m;
}

/// Best of `reps` runs (damps scheduler noise without averaging in cold
/// caches).
Measurement best_of(index_t n, index_t leaf, int threads, int reps, kern::SamplerKind kind) {
  Measurement best;
  for (int r = 0; r < reps; ++r) {
    Measurement m = build_once(n, leaf, threads, /*seed=*/1234, kind);
    if (best.n == 0 || m.seconds < best.seconds) best = m;
  }
  return best;
}

} // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  // --proxy switches the sketching operator to the O(N d) proxy-point
  // sampler (H2SKETCH_SAMPLER=exact|proxy overrides either default) — the
  // CI sanitizers drive the proxy launch paths through this flag.
  const kern::SamplerKind kind = kern::sampler_kind_from_env(
      has_flag(argc, argv, "--proxy") ? kern::SamplerKind::Proxy : kern::SamplerKind::Exact);

  // A 3D cube at eta = 0.7 needs depth before any pair is admissible
  // (leaf 32 has zero far blocks below N ~ 2048), so the smoke problem
  // drops to leaf 16 to keep the full adaptive pipeline in play.
  const std::vector<index_t> sizes =
      smoke ? std::vector<index_t>{1024} : std::vector<index_t>{2048, 8192};
  const index_t leaf = smoke ? 16 : 32;
  const std::vector<int> thread_counts = smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 4};
  const int reps = smoke ? 1 : 3;

  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "hardware threads: " << hw << "\n";

  Table table("bench_construction",
              {"n", "threads", "time_s", "samples", "launches", "speedup_vs_1"});
  table.print_header();

  std::vector<Measurement> all;
  bool consistent = true;
  for (index_t n : sizes) {
    Measurement one;
    for (int t : thread_counts) {
      const Measurement m = best_of(n, leaf, t, reps, kind);
      if (t == thread_counts.front()) one = m;
      // Identical adaptive control flow (and therefore samples/ranks) at
      // every width is a correctness gate, not a benchmark statistic.
      if (m.total_samples != one.total_samples || m.max_rank != one.max_rank)
        consistent = false;
      table.row({fmt(n), fmt(t), fmt(m.seconds), fmt(m.total_samples), fmt(m.kernel_launches),
                 fmt(one.seconds / m.seconds)});
      all.push_back(m);
    }
  }

  // Scaling efficiency: T1 / (T * T_T) per size.
  std::cout << "\n";
  for (index_t n : sizes) {
    double t1 = 0.0, tmax = 0.0;
    int maxt = 0;
    for (const auto& m : all) {
      if (m.n != n) continue;
      if (m.threads == 1) t1 = m.seconds;
      if (m.threads > maxt) {
        maxt = m.threads;
        tmax = m.seconds;
      }
    }
    if (maxt > 1 && tmax > 0.0)
      std::cout << "N=" << n << ": scaling efficiency 1->" << maxt << " threads: "
                << fmt(t1 / (tmax * maxt)) << " (speedup " << fmt(t1 / tmax) << "x)\n";
  }
  if (!consistent) std::cout << "WARNING: thread counts disagreed on samples/ranks\n";

  // Smoke and proxy runs write separate (gitignored) files so reproducing
  // the CI steps from the repo root cannot clobber the committed full-mode
  // exact-sampler record.
  const bool proxy_kind = kind == kern::SamplerKind::Proxy;
  const char* json_name =
      proxy_kind ? (smoke ? "BENCH_construction_proxy_smoke.json" : "BENCH_construction_proxy.json")
                 : (smoke ? "BENCH_construction_smoke.json" : "BENCH_construction.json");
  std::ofstream json(json_name);
  json << "{\n  \"bench\": \"construction\",\n  \"mode\": \"" << (smoke ? "smoke" : "full")
       << "\",\n  \"hardware_threads\": " << hw << ",\n  \"workload\": "
       << "\"3D cube, exponential kernel (l=0.2), "
       << (proxy_kind ? "ProxyMatVecSampler" : "KernelMatVecSampler") << ", tol=1e-6\""
       << ",\n  \"leaf\": " << leaf << ",\n  \"reps\": " << reps
       << ",\n  \"consistent\": " << (consistent ? "true" : "false")
       << ",\n  \"note\": \"seconds is the best of reps builds; rows with threads > "
       << "hardware_threads are oversubscribed and measure scheduler overhead, not "
       << "scaling\",\n  \"runs\": [\n";
  for (size_t i = 0; i < all.size(); ++i) {
    const auto& m = all[i];
    json << "    {\"n\": " << m.n << ", \"threads\": " << m.threads
         << ", \"seconds\": " << m.seconds << ", \"total_samples\": " << m.total_samples
         << ", \"kernel_launches\": " << m.kernel_launches << ", \"max_rank\": " << m.max_rank
         << ", \"oversubscribed\": "
         << (static_cast<unsigned>(m.threads) > hw ? "true" : "false") << "}"
         << (i + 1 < all.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\nwrote " << json_name << "\n";
  return consistent ? 0 : 1;
}
