#include "core/construction.hpp"

#include <cmath>
#include <string>

#include "batched/batched_id.hpp"
#include "common/errors.hpp"
#include "core/builder.hpp"
#include "h2/h2_assembly.hpp"
#include "obs/metrics.hpp"

namespace h2sketch::core {

namespace detail {

H2SketchBuilder::H2SketchBuilder(std::shared_ptr<const tree::ClusterTree> tree,
                                 const tree::Admissibility& adm, kern::MatVecSampler& sampler,
                                 const kern::EntryGenerator& gen, const ConstructionOptions& opts,
                                 batched::ExecutionContext& ctx)
    : tree_(std::move(tree)), sampler_(sampler), gen_(gen), opts_(opts), ctx_(ctx),
      stream_(opts.seed) {
  H2S_CHECK(sampler_.size() == tree_->num_points(), "sampler size != tree size");
  out_.tree = tree_;
  out_.mtree = tree::MatrixTree::build(*tree_, adm);
  out_.init_structure();

  const index_t levels = tree_->num_levels();
  yloc_.resize(static_cast<size_t>(levels));
  y_up_.resize(static_cast<size_t>(levels));
  omega_up_.resize(static_cast<size_t>(levels));
  jlocal_.resize(static_cast<size_t>(levels));
  for (index_t l = 0; l < levels; ++l)
    jlocal_[static_cast<size_t>(l)].resize(static_cast<size_t>(tree_->nodes_at(l)));
}

ConstructionResult H2SketchBuilder::run() {
  const double t0 = wall_seconds();
  const index_t leaf = tree_->leaf_level();

  // Enqueued on the entry-gen stream: the near-field blocks generate while
  // the initial sketch round below runs the monolithic sampler product —
  // the two inputs of Algorithm 1 are independent until the leaf sweep. The
  // phase scope times only the marshaling; the generation itself overlaps
  // the sampling and is charged to wall time.
  {
    PhaseScope scope(stats_.phases, Phase::EntryGen);
    h2::generate_near_field(ctx_, out_, gen_);
  }

  if (out_.mtree.has_any_far()) {
    // Initial sketch round (Line 1 of Algorithm 1).
    sample_columns(opts_.effective_initial_samples());

    // Bottom-up level sweep (leaf = index L-1 ... level 1; the root carries
    // no admissible blocks). Within a level, the sample pipeline (stream 0),
    // the basis/omega pipeline (stream 1) and coupling entry generation
    // (stream 2) overlap; extend_yloc is the consumer of all three and
    // starts with the barrier.
    for (index_t l = leaf; l >= 1; --l) {
      extend_yloc(l, 0, d_total_);
      if (opts_.adaptive) {
        while (const index_t failing = unconverged_nodes(l)) {
          if (d_total_ + opts_.sample_block > opts_.max_samples) {
            // Cap reached: count offenders and proceed with what we have.
            stats_.nonconverged_nodes += failing;
            break;
          }
          add_sample_round(l);
        }
      }
      skeletonize_level(l);
      // Asynchronous: coupling generation overlaps the level's upsweep
      // launches (and, for the last level, nothing waits until the final
      // sync_all).
      PhaseScope scope(stats_.phases, Phase::EntryGen);
      h2::generate_coupling(ctx_, out_, gen_, l, l + 1);
    }
  }

  ctx_.sync_all();
  finalize_stats(t0);
  out_.validate();
  return ConstructionResult{std::move(out_), stats_};
}

void H2SketchBuilder::skeletonize_level(index_t level) {
  const index_t nodes = tree_->nodes_at(level);
  const auto ul = static_cast<size_t>(level);

  // Batched row ID of the level's samples (Lines 16 / 34).
  std::vector<la::RowID> ids(static_cast<size_t>(nodes));
  {
    PhaseScope scope(stats_.phases, Phase::ID);
    std::vector<ConstMatrixView> ys;
    ys.reserve(static_cast<size_t>(nodes));
    for (index_t i = 0; i < nodes; ++i)
      ys.push_back(yloc_[ul][static_cast<size_t>(i)].view());
    batched::batched_row_id(ctx_, ys, opts_.id_tol_factor * eps_abs(), /*max_rank=*/-1, ids);
  }

  // Store bases / transfers, ranks, skeleton index sets.
  {
    PhaseScope scope(stats_.phases, Phase::Misc);
    obs::SketchMetric& rank_sketch =
        obs::MetricsRegistry::global().sketch("construction_block_rank");
    for (index_t i = 0; i < nodes; ++i) {
      const auto ui = static_cast<size_t>(i);
      la::RowID& id = ids[ui];
      rank_sketch.record(static_cast<double>(id.skeleton.size()));
      h2::set_skeleton(out_, level, i, id.skeleton);
      out_.basis[ul].set_shape(i, id.interp.rows(), id.interp.cols());
      jlocal_[ul][ui] = std::move(id.skeleton);
    }
    // One packed device allocation for the level's bases/transfers; the ID
    // interpolants are the only operands produced host-side, so this upload
    // is the once-per-build operand traffic the steady state amortizes.
    out_.basis[ul].allocate(ctx_.device());
    for (index_t i = 0; i < nodes; ++i)
      out_.basis[ul].upload(i, ids[static_cast<size_t>(i)].interp.view());
  }

  // First upsweep of the level: every sample column so far, appended to
  // empty rank x 0 panels.
  y_up_[ul].resize(static_cast<size_t>(nodes));
  omega_up_[ul].resize(static_cast<size_t>(nodes));
  for (index_t i = 0; i < nodes; ++i) {
    y_up_[ul][static_cast<size_t>(i)].resize(ctx_.device(), out_.rank(level, i), 0);
    omega_up_[ul][static_cast<size_t>(i)].resize(ctx_.device(), out_.rank(level, i), 0);
  }
  extend_upswept(level, 0, d_total_);
}

void H2SketchBuilder::finalize_stats(double t0) {
  stats_.total_seconds = wall_seconds() - t0;
  stats_.total_samples = d_total_;
  stats_.kernel_launches = ctx_.kernel_launches();
  stats_.entries_generated = gen_.entries_generated();
  stats_.min_rank = out_.min_rank();
  stats_.max_rank = out_.max_rank();
  stats_.levels = tree_->num_levels();
  stats_.max_rank_per_level.assign(static_cast<size_t>(tree_->num_levels()), 0);
  for (index_t l = 0; l < tree_->num_levels(); ++l)
    for (index_t i = 0; i < tree_->nodes_at(l); ++i)
      stats_.max_rank_per_level[static_cast<size_t>(l)] =
          std::max(stats_.max_rank_per_level[static_cast<size_t>(l)], out_.rank(l, i));
  stats_.memory_bytes = out_.memory_bytes();
  stats_.csp = out_.mtree.csp();

  // Construction stats join the process-wide snapshot (ROADMAP item 4):
  // launch counts sit next to the serve/fault counters, and the rank and
  // residual sketches recorded along the way summarize per-block behavior.
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("construction_runs").add();
  reg.counter("construction_kernel_launches").add(
      static_cast<std::uint64_t>(stats_.kernel_launches));
  reg.counter("construction_samples").add(static_cast<std::uint64_t>(stats_.total_samples));
  reg.counter("construction_nonconverged_nodes")
      .add(static_cast<std::uint64_t>(stats_.nonconverged_nodes));
}

} // namespace detail

ConstructionResult construct_h2(std::shared_ptr<const tree::ClusterTree> tree,
                                const tree::Admissibility& adm, kern::MatVecSampler& sampler,
                                const kern::EntryGenerator& gen, const ConstructionOptions& opts,
                                batched::ExecutionContext& ctx) {
  // A zero or negative tol would ask for an exact operator: the adaptive
  // loop then samples until every node reaches full rank (N/2 at the top).
  if (!std::isfinite(opts.tol) || opts.tol <= 0)
    throw InvalidArgumentError("construct_h2: tol must be finite and > 0, got " +
                               std::to_string(opts.tol));
  detail::H2SketchBuilder builder(std::move(tree), adm, sampler, gen, opts, ctx);
  // The builder's launches reference its sampling panels; if construction
  // unwinds (e.g. an injected device fault), drain the streams before the
  // builder -- declared above the fence -- is destroyed.
  batched::StreamFence fence(ctx);
  return builder.run();
}

ConstructionResult construct_h2(std::shared_ptr<const tree::ClusterTree> tree,
                                const tree::Admissibility& adm, kern::MatVecSampler& sampler,
                                const kern::EntryGenerator& gen, const ConstructionOptions& opts) {
  batched::ExecutionContext ctx(batched::Backend::Batched);
  return construct_h2(std::move(tree), adm, sampler, gen, opts, ctx);
}

ConstructionResult construct_h2(std::shared_ptr<const tree::ClusterTree> tree,
                                const tree::Admissibility& adm,
                                const kern::KernelFunction& kernel, const ConstructionOptions& opts,
                                kern::SamplerKind kind, kern::ProxySamplerOptions proxy_opts) {
  if (proxy_opts.tol <= 0) proxy_opts.tol = opts.tol;
  const kern::KernelEntryGenerator gen(*tree, kernel);
  auto sampler = kern::make_kernel_sampler(kind, tree, kernel, proxy_opts);
  return construct_h2(std::move(tree), adm, *sampler, gen, opts);
}

} // namespace h2sketch::core
