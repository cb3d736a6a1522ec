#include "core/construction.hpp"

#include <cmath>
#include <numeric>
#include <string>

#include "batched/batched_gemm.hpp"
#include "batched/batched_id.hpp"
#include "common/errors.hpp"
#include "core/builder.hpp"
#include "la/blas.hpp"
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

  const index_t leaf = tree_->leaf_level();
  leaf_positions_.resize(static_cast<size_t>(tree_->nodes_at(leaf)));
  for (index_t i = 0; i < tree_->nodes_at(leaf); ++i) {
    auto& pos = leaf_positions_[static_cast<size_t>(i)];
    pos.resize(static_cast<size_t>(tree_->size(leaf, i)));
    std::iota(pos.begin(), pos.end(), tree_->begin(leaf, i));
  }
}

ConstructionResult H2SketchBuilder::run() {
  const double t0 = wall_seconds();
  const index_t leaf = tree_->leaf_level();

  // Enqueued on the entry-gen stream: the near-field blocks generate while
  // the initial sketch round below runs the monolithic sampler product —
  // the two inputs of Algorithm 1 are independent until the leaf sweep.
  generate_dense_blocks();

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
      generate_coupling(l);
    }
  }

  ctx_.sync_all();
  finalize_stats(t0);
  out_.validate();
  return ConstructionResult{std::move(out_), stats_};
}

void H2SketchBuilder::generate_dense_blocks() {
  // Marshal on this thread, generate asynchronously: the phase scope times
  // only the marshaling; the generation itself overlaps the initial
  // sampling and is charged to wall time, not the EntryGen phase.
  PhaseScope scope(stats_.phases, Phase::EntryGen);
  const index_t leaf = tree_->leaf_level();
  const auto& near = out_.mtree.near_leaf;
  // Shapes first, one device allocation for the whole near field, then the
  // generation launches write straight into the arena slots — the blocks
  // are born on the device and never cross the marshaling boundary.
  for (index_t r = 0; r < tree_->nodes_at(leaf); ++r)
    for (index_t j = 0; j < near.row_count(r); ++j) {
      const index_t e = near.row_ptr[static_cast<size_t>(r)] + j;
      const index_t c = near.col[static_cast<size_t>(e)];
      out_.dense.set_shape(e, tree_->size(leaf, r), tree_->size(leaf, c));
    }
  out_.dense.allocate(ctx_.device());
  std::vector<kern::BlockRequest> reqs;
  reqs.reserve(static_cast<size_t>(near.count()));
  for (index_t r = 0; r < tree_->nodes_at(leaf); ++r)
    for (index_t j = 0; j < near.row_count(r); ++j) {
      const index_t e = near.row_ptr[static_cast<size_t>(r)] + j;
      const index_t c = near.col[static_cast<size_t>(e)];
      reqs.push_back({leaf_positions_[static_cast<size_t>(r)],
                      leaf_positions_[static_cast<size_t>(c)], out_.dense.dev(e)});
    }
  kern::batched_generate(ctx_, batched::kEntryGenStream, gen_, std::move(reqs));
}

void H2SketchBuilder::skeletonize_level(index_t level) {
  const index_t nodes = tree_->nodes_at(level);
  const index_t leaf = tree_->leaf_level();
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
      const index_t k = static_cast<index_t>(id.skeleton.size());
      out_.ranks[ul][ui] = k;
      rank_sketch.record(static_cast<double>(k));
      out_.basis[ul].set_shape(i, id.interp.rows(), id.interp.cols());
      jlocal_[ul][ui] = id.skeleton;

      auto& skel = out_.skeleton[ul][ui];
      skel.resize(static_cast<size_t>(k));
      if (level == leaf) {
        const index_t b = tree_->begin(level, i);
        for (index_t s = 0; s < k; ++s) skel[static_cast<size_t>(s)] = b + id.skeleton[static_cast<size_t>(s)];
      } else {
        // Stacked child skeletons [I_nu1, I_nu2]; J selects rows of the stack.
        const auto& s1 = out_.skeleton[ul + 1][static_cast<size_t>(2 * i)];
        const auto& s2 = out_.skeleton[ul + 1][static_cast<size_t>(2 * i + 1)];
        const index_t r1 = static_cast<index_t>(s1.size());
        for (index_t s = 0; s < k; ++s) {
          const index_t j = id.skeleton[static_cast<size_t>(s)];
          skel[static_cast<size_t>(s)] =
              j < r1 ? s1[static_cast<size_t>(j)] : s2[static_cast<size_t>(j - r1)];
        }
      }
    }
    // One packed device allocation for the level's bases/transfers; the ID
    // interpolants are the only operands produced host-side, so this upload
    // is the once-per-build operand traffic the steady state amortizes.
    out_.basis[ul].allocate(ctx_.device());
    for (index_t i = 0; i < nodes; ++i)
      out_.basis[ul].upload(i, ids[static_cast<size_t>(i)].interp.view());
  }

  // Upsweep samples (batchedShrink, Lines 17 / 35): y_up = Y_loc(J, :), on
  // the sample stream — and, concurrently on the basis stream, the upsweep
  // of the random vectors (batchedGemm, Lines 18 / 36). The two pipelines
  // touch disjoint state (y_up vs omega_up); extend_yloc of the next level
  // is their common consumer and syncs before reading.
  {
    PhaseScope scope(stats_.phases, Phase::Upsweep);
    auto& yup = y_up_[ul];
    yup.resize(static_cast<size_t>(nodes));
    std::vector<ConstMatrixView> src;
    std::vector<MatrixView> dst;
    for (index_t i = 0; i < nodes; ++i) {
      const auto ui = static_cast<size_t>(i);
      yup[ui].resize(ctx_.device(), out_.ranks[ul][ui], d_total_);
      src.push_back(yloc_[ul][ui].view());
      dst.push_back(yup[ui].view());
    }
    batched::batched_gather_rows(ctx_, batched::kSampleStream, std::move(src), jlocal_[ul],
                                 std::move(dst));

    auto& oup = omega_up_[ul];
    oup.resize(static_cast<size_t>(nodes));
    for (index_t i = 0; i < nodes; ++i)
      oup[static_cast<size_t>(i)].resize(ctx_.device(), out_.ranks[ul][static_cast<size_t>(i)],
                                         d_total_);
    if (level == leaf) {
      // omega_up = U^T Omega(I_tau, :).
      std::vector<ConstMatrixView> av, bv;
      std::vector<MatrixView> cv;
      for (index_t i = 0; i < nodes; ++i) {
        const auto ui = static_cast<size_t>(i);
        av.push_back(out_.basis[ul].dev(i));
        bv.push_back(omega_global_.view().row_range(tree_->begin(level, i), tree_->size(level, i)));
        cv.push_back(oup[ui].view());
      }
      batched::batched_gemm(ctx_, batched::kBasisStream, 1.0, std::move(av), la::Op::Trans,
                            std::move(bv), la::Op::None, 0.0, std::move(cv));
    } else {
      // omega_up = E1^T omega_up_nu1 + E2^T omega_up_nu2. Both half-launches
      // go to the basis stream: FIFO order makes the side-1 accumulation
      // (beta = 1) safe without a barrier.
      for (int side = 0; side < 2; ++side) {
        std::vector<ConstMatrixView> av, bv;
        std::vector<MatrixView> cv;
        for (index_t i = 0; i < nodes; ++i) {
          const auto ui = static_cast<size_t>(i);
          const index_t k = out_.ranks[ul][ui];
          const index_t r1 = out_.ranks[ul + 1][static_cast<size_t>(2 * i)];
          const index_t rs = side == 0 ? r1 : out_.ranks[ul + 1][static_cast<size_t>(2 * i + 1)];
          const index_t row0 = side == 0 ? 0 : r1;
          if (k == 0 || rs == 0) {
            // No contribution from this side; omega_up starts zeroed, so
            // skipping is equivalent to the beta=0 overwrite.
            av.push_back(ConstMatrixView());
            bv.push_back(ConstMatrixView());
            cv.push_back(MatrixView());
            continue;
          }
          av.push_back(out_.basis[ul].dev(i).block(row0, 0, rs, k));
          bv.push_back(omega_up_[ul + 1][static_cast<size_t>(2 * i + side)].view());
          cv.push_back(oup[ui].view());
        }
        batched::batched_gemm(ctx_, batched::kBasisStream, 1.0, std::move(av), la::Op::Trans,
                              std::move(bv), la::Op::None, side == 0 ? 0.0 : 1.0, std::move(cv));
      }
    }
  }
}

void H2SketchBuilder::generate_coupling(index_t level) {
  PhaseScope scope(stats_.phases, Phase::EntryGen);
  const auto ul = static_cast<size_t>(level);
  const auto& far = out_.mtree.far[ul];
  if (far.empty()) return;
  // Coupling blocks are generated directly into the level's packed arena,
  // one per mirrored pair: B_{r,c} with r < c; the (c, r) entry keeps a
  // 0 x 0 slot and is read as B_{r,c}^T.
  for (index_t r = 0; r < tree_->nodes_at(level); ++r)
    for (index_t j = 0; j < far.row_count(r); ++j) {
      const index_t e = far.row_ptr[static_cast<size_t>(r)] + j;
      const index_t c = far.col[static_cast<size_t>(e)];
      if (r < c)
        out_.coupling[ul].set_shape(
            e, static_cast<index_t>(out_.skeleton[ul][static_cast<size_t>(r)].size()),
            static_cast<index_t>(out_.skeleton[ul][static_cast<size_t>(c)].size()));
    }
  out_.coupling[ul].allocate(ctx_.device());
  std::vector<kern::BlockRequest> reqs;
  reqs.reserve(static_cast<size_t>(far.count() / 2));
  for (index_t r = 0; r < tree_->nodes_at(level); ++r) {
    for (index_t j = 0; j < far.row_count(r); ++j) {
      const index_t e = far.row_ptr[static_cast<size_t>(r)] + j;
      const index_t c = far.col[static_cast<size_t>(e)];
      if (r > c) continue;
      const auto& rs = out_.skeleton[ul][static_cast<size_t>(r)];
      const auto& cs = out_.skeleton[ul][static_cast<size_t>(c)];
      reqs.push_back({rs, cs, out_.coupling[ul].dev(e)});
    }
  }
  // Asynchronous: coupling generation overlaps the level's upsweep launches
  // (and, for the last level, nothing waits until the final sync_all). The
  // skeleton index sets referenced by the requests are stable members.
  kern::batched_generate(ctx_, batched::kEntryGenStream, gen_, std::move(reqs));
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
  auto sampler =
      kern::make_kernel_sampler(kern::sampler_kind_from_env(kind), tree, kernel, proxy_opts);
  return construct_h2(std::move(tree), adm, *sampler, gen, opts);
}

} // namespace h2sketch::core
