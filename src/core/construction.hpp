#pragma once

#include <memory>

#include "batched/device.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "h2/h2_matrix.hpp"
#include "kernels/entry_gen.hpp"
#include "kernels/proxy_sampler.hpp"
#include "kernels/sampler.hpp"

/// \file construction.hpp
/// The paper's Algorithm 1: bottom-up, partially black-box, sketching-based
/// construction of a strongly-admissible H2 matrix, with adaptive sampling.
///
/// Inputs: a black-box sketching operator Y = Kblk(Omega), a batched entry
/// generator for sub-blocks K(I, J), and a hierarchical block partitioning
/// (cluster tree + admissibility). Output: the H2 matrix (U/E/B/D and
/// skeleton index sets) plus run statistics.
///
/// Processing runs level by level from the leaves. Per level:
///   1. form the local samples Y_loc by subtracting the already-explicit
///      blocks (dense near field at the leaves, child-level coupling above)
///      via batched BSR products;
///   2. adaptively add sample rounds until every node's Y_loc passes the
///      QR convergence probe (min |diag R| < eps_abs), sweeping new samples
///      up through the completed levels (updateSamples);
///   3. batched row-ID the samples to get the basis (U at leaves, stacked
///      transfer [E1; E2] above) and skeleton indices;
///   4. sweep samples and random vectors up (batchedShrink / batchedGemm);
///   5. evaluate the level's coupling blocks B at the skeleton indices
///      (batchedGen).

namespace h2sketch::core {

struct ConstructionResult {
  h2::H2Matrix matrix;
  ConstructionStats stats;
};

/// Run Algorithm 1 under the given execution context (Batched = GPU-shaped
/// path, Naive = per-block path; identical results either way). Throws
/// InvalidArgumentError unless opts.tol is finite and > 0.
ConstructionResult construct_h2(std::shared_ptr<const tree::ClusterTree> tree,
                                const tree::Admissibility& adm, kern::MatVecSampler& sampler,
                                const kern::EntryGenerator& gen, const ConstructionOptions& opts,
                                batched::ExecutionContext& ctx);

/// Convenience overload with an internal Batched context.
ConstructionResult construct_h2(std::shared_ptr<const tree::ClusterTree> tree,
                                const tree::Admissibility& adm, kern::MatVecSampler& sampler,
                                const kern::EntryGenerator& gen, const ConstructionOptions& opts);

/// Kernel-matrix entry point with selectable sampling: instantiates the
/// entry generator and a sampler of the requested kind internally. Exact is
/// the O(N^2 d) oracle; Proxy evaluates sketches at O(N d) through a
/// proxy-point surrogate. proxy_opts.tol <= 0 inherits opts.tol.
ConstructionResult construct_h2(std::shared_ptr<const tree::ClusterTree> tree,
                                const tree::Admissibility& adm,
                                const kern::KernelFunction& kernel, const ConstructionOptions& opts,
                                kern::SamplerKind kind = kern::SamplerKind::Exact,
                                kern::ProxySamplerOptions proxy_opts = {});

} // namespace h2sketch::core
