#include "solver/hss_construction.hpp"

#include <utility>

namespace h2sketch::solver {

core::ConstructionResult build_hss(std::shared_ptr<const tree::ClusterTree> tree,
                                   kern::MatVecSampler& sampler, const kern::EntryGenerator& gen,
                                   const core::ConstructionOptions& opts,
                                   batched::ExecutionContext& ctx) {
  return core::construct_h2(std::move(tree), h2sketch::tree::Admissibility::weak(), sampler, gen,
                            opts, ctx);
}

core::ConstructionResult build_hss(std::shared_ptr<const tree::ClusterTree> tree,
                                   kern::MatVecSampler& sampler, const kern::EntryGenerator& gen,
                                   const core::ConstructionOptions& opts) {
  batched::ExecutionContext ctx(batched::Backend::Batched);
  return build_hss(std::move(tree), sampler, gen, opts, ctx);
}

core::ConstructionResult build_hss(std::shared_ptr<const tree::ClusterTree> tree,
                                   const kern::KernelFunction& kernel,
                                   const core::ConstructionOptions& opts, kern::SamplerKind kind,
                                   kern::ProxySamplerOptions proxy_opts) {
  return core::construct_h2(std::move(tree), h2sketch::tree::Admissibility::weak(), kernel, opts,
                            kind, proxy_opts);
}

} // namespace h2sketch::solver
