#include "solver/hss_construction.hpp"

#include <utility>

#include "core/construction.hpp"

namespace h2sketch::solver {

namespace {

/// Hand the arenas of a weak-admissibility H2 build over to HssMatrix. The
/// bases, leaf diagonals, ranks and skeletons move unchanged; each level's
/// coupling keeps slot 2p, the (2p, 2p+1) block, in a compact arena, and the
/// mirrored (2p+1, 2p) slots are freed.
HssMatrix hss_from_weak_h2(h2::H2Matrix a, backend::DeviceBackend& dev) {
  const tree::ClusterTree& t = *a.tree;
  const tree::MatrixTree& mt = a.mtree;
  const index_t levels = t.num_levels();
  const index_t leaf = t.leaf_level();
  for (index_t i = 0; i < t.nodes_at(leaf); ++i)
    H2S_CHECK(mt.near_leaf.row_count(i) == 1 && mt.near_leaf.col_at(i, 0) == i,
              "build_hss: near list is not the leaf diagonal at node " << i);
  for (index_t l = 0; l < levels; ++l) {
    const auto& far = mt.far[static_cast<size_t>(l)];
    for (index_t i = 0; i < t.nodes_at(l); ++i)
      H2S_CHECK(l == 0 ? far.row_count(i) == 0
                       : far.row_count(i) == 1 && far.col_at(i, 0) == (i ^ 1),
                "build_hss: far list at level " << l << " row " << i
                                                << " is not the sibling pair");
  }

  HssMatrix out;
  out.tree = a.tree;
  out.ranks = std::move(a.ranks);
  out.generators = std::move(a.basis);
  out.skeleton = std::move(a.skeleton);
  out.leaf_diag = std::move(a.dense);
  out.coupling = std::vector<backend::BlockArena>(static_cast<size_t>(levels));
  for (index_t l = 1; l < levels; ++l) {
    // Under the weak pattern far entry e of level l is row e, so slot 2p is
    // the (2p, 2p+1) block.
    backend::BlockArena& full = a.coupling[static_cast<size_t>(l)];
    backend::BlockArena& pairs = out.coupling[static_cast<size_t>(l)];
    const index_t np = t.nodes_at(l) / 2;
    pairs.reset(np);
    for (index_t p = 0; p < np; ++p) pairs.set_shape(p, full.rows(2 * p), full.cols(2 * p));
    pairs.allocate(dev);
    for (index_t p = 0; p < np; ++p) dev.copy_device(full.dev(2 * p), pairs.dev(p));
    full.reset(0);
  }
  out.validate();
  return out;
}

} // namespace

HssResult build_hss(std::shared_ptr<const tree::ClusterTree> tree, kern::MatVecSampler& sampler,
                    const kern::EntryGenerator& gen, const core::ConstructionOptions& opts,
                    batched::ExecutionContext& ctx) {
  core::ConstructionResult res = core::construct_h2(
      std::move(tree), h2sketch::tree::Admissibility::weak(), sampler, gen, opts, ctx);
  HssResult out{hss_from_weak_h2(std::move(res.matrix), ctx.device()), std::move(res.stats)};
  // The H2 figure counts every sibling block twice.
  out.stats.memory_bytes = out.matrix.memory_bytes();
  return out;
}

HssResult build_hss(std::shared_ptr<const tree::ClusterTree> tree, kern::MatVecSampler& sampler,
                    const kern::EntryGenerator& gen, const core::ConstructionOptions& opts) {
  batched::ExecutionContext ctx(batched::Backend::Batched);
  return build_hss(std::move(tree), sampler, gen, opts, ctx);
}

HssResult build_hss(std::shared_ptr<const tree::ClusterTree> tree,
                    const kern::KernelFunction& kernel, const core::ConstructionOptions& opts,
                    kern::SamplerKind kind, kern::ProxySamplerOptions proxy_opts) {
  if (proxy_opts.tol <= 0) proxy_opts.tol = opts.tol;
  const kern::KernelEntryGenerator gen(*tree, kernel);
  auto sampler =
      kern::make_kernel_sampler(kern::sampler_kind_from_env(kind), tree, kernel, proxy_opts);
  return build_hss(std::move(tree), *sampler, gen, opts);
}

} // namespace h2sketch::solver
