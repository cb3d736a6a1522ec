#pragma once

#include <memory>

#include "batched/device.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "kernels/entry_gen.hpp"
#include "kernels/proxy_sampler.hpp"
#include "kernels/sampler.hpp"
#include "solver/hss_matrix.hpp"

/// \file hss_construction.hpp
/// Bottom-up sketching HSS construction (Martinsson 2011, the paper's
/// reference [29]) producing the dedicated HssMatrix storage. Under weak
/// admissibility the paper's Algorithm 1 *is* this construction, so
/// build_hss runs core::construct_h2 with tree::Admissibility::weak() and
/// hands the result's arenas over to HssMatrix: bases, leaf diagonals
/// (the weak near field), ranks and skeletons move unchanged, and each
/// level's coupling keeps one block per sibling pair -- the (2p, 2p+1)
/// block B_p; the mirrored (2p+1, 2p) block is B_p^T and is dropped. The
/// hand-over checks the weak pattern instead of assuming it.

namespace h2sketch::solver {

struct HssResult {
  HssMatrix matrix;
  core::ConstructionStats stats;
};

/// Run Algorithm 1 under weak admissibility in the given execution context
/// and hand the result over to HssMatrix. stats.memory_bytes counts the
/// HssMatrix (one block per sibling pair).
HssResult build_hss(std::shared_ptr<const tree::ClusterTree> tree, kern::MatVecSampler& sampler,
                    const kern::EntryGenerator& gen, const core::ConstructionOptions& opts,
                    batched::ExecutionContext& ctx);

/// Convenience overload with an internal Batched context.
HssResult build_hss(std::shared_ptr<const tree::ClusterTree> tree, kern::MatVecSampler& sampler,
                    const kern::EntryGenerator& gen, const core::ConstructionOptions& opts);

/// Kernel-matrix entry point with selectable sampling: instantiates the
/// entry generator and a sampler of the requested kind internally
/// (H2SKETCH_SAMPLER=exact|proxy overrides `kind`). The proxy surrogate is
/// always strongly admissible even though the HSS structure is weak — proxy
/// surfaces need a separated far field; the HSS sketches then run against
/// the surrogate's O(N d) matvec. proxy_opts.tol <= 0 inherits opts.tol.
HssResult build_hss(std::shared_ptr<const tree::ClusterTree> tree,
                    const kern::KernelFunction& kernel, const core::ConstructionOptions& opts,
                    kern::SamplerKind kind = kern::SamplerKind::Exact,
                    kern::ProxySamplerOptions proxy_opts = {});

} // namespace h2sketch::solver
