#pragma once

#include <memory>

#include "core/construction.hpp"

/// \file hss_construction.hpp
/// Bottom-up sketching HSS construction (Martinsson 2011, the paper's
/// reference [29]). Under weak admissibility the paper's Algorithm 1 *is*
/// this construction, so build_hss runs core::construct_h2 with
/// tree::Admissibility::weak() and returns its result. The H2Matrix it
/// holds is the HSS matrix: nested bases, one coupling block per sibling
/// pair at every level below the root (entry 2p of far[l] holds
/// B_{2p,2p+1}; entry 2p+1 is its 0 x 0 mirror), and the leaf diagonals as
/// the only near blocks -- the pattern ulv_factor checks and reads.

namespace h2sketch::solver {

/// An HSS matrix is the H2Matrix of a weak-admissibility build.
using HssMatrix = h2::H2Matrix;

/// Run Algorithm 1 under weak admissibility in the given execution context.
core::ConstructionResult build_hss(std::shared_ptr<const tree::ClusterTree> tree,
                                   kern::MatVecSampler& sampler, const kern::EntryGenerator& gen,
                                   const core::ConstructionOptions& opts,
                                   batched::ExecutionContext& ctx);

/// Convenience overload with an internal Batched context.
core::ConstructionResult build_hss(std::shared_ptr<const tree::ClusterTree> tree,
                                   kern::MatVecSampler& sampler, const kern::EntryGenerator& gen,
                                   const core::ConstructionOptions& opts);

/// Kernel-matrix entry point with selectable sampling: instantiates the
/// entry generator and a sampler of the requested kind internally. The
/// proxy surrogate is always strongly admissible even though the HSS
/// structure is weak — proxy surfaces need a separated far field; the HSS
/// sketches then run against the surrogate's O(N d) matvec.
/// proxy_opts.tol <= 0 inherits opts.tol.
core::ConstructionResult build_hss(std::shared_ptr<const tree::ClusterTree> tree,
                                   const kern::KernelFunction& kernel,
                                   const core::ConstructionOptions& opts,
                                   kern::SamplerKind kind = kern::SamplerKind::Exact,
                                   kern::ProxySamplerOptions proxy_opts = {});

} // namespace h2sketch::solver
