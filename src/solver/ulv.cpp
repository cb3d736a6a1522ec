#include "solver/ulv.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "backend/registry.hpp"
#include "common/errors.hpp"
#include "batched/batched_gemm.hpp"
#include "batched/batched_solve.hpp"
#include "la/blas.hpp"
#include "la/qr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace h2sketch::solver {

namespace {

/// Merge a sibling pair into the parent-local (or root) diagonal:
/// dst = [S_1, R_1 B R_2^T; (.)^T, S_2] from the children's Schur
/// complements, reduced generators and the pair's coupling block. Operates
/// on views so the same routine serves the in-kernel level merge (device
/// panels) and the host-side root merge (downloaded staging copies).
void merge_siblings(ConstMatrixView s1, ConstMatrixView u1, index_t r1, ConstMatrixView s2,
                    ConstMatrixView u2, index_t r2, ConstMatrixView b, MatrixView dst) {
  copy(s1, dst.block(0, 0, r1, r1));
  copy(s2, dst.block(r1, r1, r2, r2));
  if (r1 > 0 && r2 > 0) {
    Matrix rb(r1, r2);
    la::gemm(1.0, u1, la::Op::None, b, la::Op::None, 0.0, rb.view());
    MatrixView off = dst.block(0, r1, r1, r2);
    la::gemm(1.0, rb.view(), la::Op::None, u2, la::Op::Trans, 0.0, off);
    copy_transposed(off, dst.block(r1, 0, r2, r1));
  }
}

/// Assemble the node-local diagonal D and merged generator G for one node,
/// then rotate: qr <- QR(G), utilde <- R, dhat <- Q^T D Q. The panels are
/// slots of the factor's per-level device arenas (layout
/// [qr x nodes][dhat x nodes][utilde x nodes]); the body runs inside a
/// batched launch, so it may touch device views directly.
void assemble_and_rotate(const h2::H2Matrix& a, const std::vector<std::vector<UlvNode>>& nodes,
                         std::vector<backend::BlockArena>& panels, index_t level, index_t i,
                         real_t ridge, UlvNode& nd) {
  const index_t leaf = a.leaf_level();
  const auto ul = static_cast<size_t>(level);
  const index_t n = nd.n_loc;
  const index_t r = nd.rank;
  const index_t nnodes = a.tree->nodes_at(level);
  backend::BlockArena& pa = panels[ul];
  MatrixView qr = pa.dev(i);
  MatrixView dhat = pa.dev(nnodes + i);

  // Local diagonal block. The ridge enters the factorization only here, at
  // the leaf diagonals: bumping every leaf block by ridge*I is exactly
  // A + ridge*I, and the Schur complements propagate it upward.
  if (level == leaf) {
    copy(a.dense.dev(i), dhat);
    if (ridge != real_t{0})
      for (index_t k = 0; k < n; ++k) dhat(k, k) += ridge;
  } else {
    const index_t cn = a.tree->nodes_at(level + 1);
    const backend::BlockArena& cp = panels[ul + 1];
    const UlvNode& c1 = nodes[ul + 1][static_cast<size_t>(2 * i)];
    const UlvNode& c2 = nodes[ul + 1][static_cast<size_t>(2 * i + 1)];
    merge_siblings(cp.dev(cn + 2 * i).block(0, 0, c1.rank, c1.rank), cp.dev(2 * cn + 2 * i),
                   c1.rank, cp.dev(cn + 2 * i + 1).block(0, 0, c2.rank, c2.rank),
                   cp.dev(2 * cn + 2 * i + 1), c2.rank, a.coupling[ul + 1].dev(2 * i), dhat);
  }

  // Merged generator: U at the leaf, [R_1 E_1; R_2 E_2] above. The root
  // (level 0) never reaches this function.
  if (level == leaf) {
    copy(a.basis[ul].dev(i), qr);
  } else {
    const index_t cn = a.tree->nodes_at(level + 1);
    const backend::BlockArena& cp = panels[ul + 1];
    const auto& c1 = nodes[ul + 1][static_cast<size_t>(2 * i)];
    const auto& c2 = nodes[ul + 1][static_cast<size_t>(2 * i + 1)];
    ConstMatrixView e = a.basis[ul].dev(i);
    if (c1.rank > 0 && r > 0)
      la::gemm(1.0, cp.dev(2 * cn + 2 * i), la::Op::None, e.row_range(0, c1.rank), la::Op::None,
               0.0, qr.row_range(0, c1.rank));
    if (c2.rank > 0 && r > 0)
      la::gemm(1.0, cp.dev(2 * cn + 2 * i + 1), la::Op::None, e.row_range(c1.rank, c2.rank),
               la::Op::None, 0.0, qr.row_range(c1.rank, c2.rank));
  }

  // Rotate: G = Q [R; 0]; Dh = Q^T D Q; R becomes the reduced generator.
  // Both steps are level-3 (blocked QR, compact-WY rotation) and split their
  // products over the pool, so the few large nodes of the top levels do not
  // each run on one worker.
  la::householder_qr_blocked(qr, nd.tau);
  la::apply_qt_d_q(qr, nd.tau, dhat);
  MatrixView ut = pa.dev(2 * nnodes + i);
  for (index_t jj = 0; jj < r; ++jj)
    for (index_t ii = 0; ii <= jj && ii < r; ++ii) ut(ii, jj) = qr(ii, jj);
}

/// Largest |diagonal entry| of A, read off the device-resident leaf
/// diagonal arena in place (inside a kernel scope, so no mirror downloads):
/// the scale the ridge-retry ladder is relative to.
real_t max_abs_diag(const h2::H2Matrix& a, backend::DeviceBackend& dev) {
  real_t scale = 0.0;
  backend::KernelScope ks(&dev);
  for (index_t i = 0; i < a.dense.count(); ++i) {
    ConstMatrixView v = a.dense.dev(i);
    const index_t n = std::min(v.rows, v.cols);
    for (index_t k = 0; k < n; ++k) scale = std::max(scale, std::abs(v(k, k)));
  }
  return scale;
}

/// The HSS pattern of a weak-admissibility build: the leaf diagonals are
/// the only near blocks, and every node below the root couples to its
/// sibling alone (so far entry i of a level is row i's pair (i, i ^ 1)).
void check_weak_pattern(const h2::H2Matrix& a) {
  const tree::ClusterTree& t = *a.tree;
  const tree::LevelBlockList& near = a.mtree.near_leaf;
  for (index_t i = 0; i < t.nodes_at(t.leaf_level()); ++i)
    H2S_CHECK(near.row_count(i) == 1 && near.col_at(i, 0) == i,
              "ulv_factor: needs the weak-admissibility (HSS) pattern; near row " << i);
  for (index_t l = 0; l < t.num_levels(); ++l) {
    const auto& far = a.mtree.far[static_cast<size_t>(l)];
    for (index_t i = 0; i < t.nodes_at(l); ++i)
      H2S_CHECK(l == 0 ? far.row_count(i) == 0
                       : far.row_count(i) == 1 && far.col_at(i, 0) == (i ^ 1),
                "ulv_factor: needs the weak-admissibility (HSS) pattern; level "
                    << l << " far row " << i);
  }
}

} // namespace

UlvCholesky ulv_factor(const h2::H2Matrix& a, batched::ExecutionContext& ctx,
                       const UlvOptions& opts) {
  a.validate();
  check_weak_pattern(a);
  if (auto own = a.storage_backend())
    H2S_CHECK(own->memory_owner() == ctx.device().memory_owner(),
              "ulv_factor: context device does not own this matrix's device arenas (built on "
                  << own->name() << ", factored on " << ctx.device().name() << ")");

  // One full factorization attempt of A + ridge*I. A lambda local to this
  // friend function, so it can populate UlvCholesky's private panels.
  auto factor_once = [&a, &ctx](real_t ridge) {
  UlvCholesky f;
  // Pending launches hold views into f's node panels; if an attempt unwinds
  // (an injected launch fault, or a NumericalError surfacing at a sync
  // point) the fence drains every stream before f's panels are freed.
  batched::StreamFence fence(ctx);
  f.tree_ = a.tree;
  const index_t levels = a.num_levels();
  const index_t leaf = a.leaf_level();
  f.nodes_.resize(static_cast<size_t>(levels));
  f.panels_ = std::vector<backend::BlockArena>(static_cast<size_t>(levels));

  if (levels == 1) {
    // Degenerate single-node tree: the HSS matrix is one dense block,
    // factored host-side off the arena's lazy mirror.
    f.root_factor_ = a.dense.host(0);
    if (ridge != real_t{0}) {
      MatrixView rv = f.root_factor_.view();
      for (index_t k = 0; k < rv.rows; ++k) rv(k, k) += ridge;
    }
    la::cholesky(f.root_factor_.view());
    return f;
  }

  const auto stream = batched::kSampleStream;
  for (index_t l = leaf; l >= 1; --l) {
    const index_t nodes = a.tree->nodes_at(l);
    // Covers the marshal + launch-issue phase of this level; the batched
    // work itself shows up on the stream track (FIFO on kSampleStream).
    obs::TraceSpan level_span("solver", "ulv_level", "level", static_cast<std::uint64_t>(l),
                              "nodes", static_cast<std::uint64_t>(nodes));
    const auto ul = static_cast<size_t>(l);
    auto& lvl = f.nodes_[ul];
    lvl.resize(static_cast<size_t>(nodes));

    // Host-side marshaling: sizes depend only on ranks/cluster sizes, so the
    // level's packed panel arena can be laid out and allocated before any
    // launch of this level runs (the kernels only ever touch it through
    // views).
    backend::BlockArena& pa = f.panels_[ul];
    pa.reset(3 * nodes);
    for (index_t i = 0; i < nodes; ++i) {
      UlvNode& nd = lvl[static_cast<size_t>(i)];
      nd.rank = a.rank(l, i);
      nd.n_loc = l == leaf ? a.tree->size(l, i)
                           : a.rank(l + 1, 2 * i) + a.rank(l + 1, 2 * i + 1);
      H2S_CHECK(nd.rank <= nd.n_loc, "ulv_factor: rank exceeds local dimension");
      pa.set_shape(i, nd.n_loc, nd.rank);              // qr
      pa.set_shape(nodes + i, nd.n_loc, nd.n_loc);     // dhat
      pa.set_shape(2 * nodes + i, nd.rank, nd.rank);   // utilde
    }
    pa.allocate(ctx.device());
    // qr and dhat are fully written by the assemble launch; the utilde
    // panels must start zeroed (only their upper triangles are written, and
    // merge reads the full matrix) — one fill over the contiguous span.
    pa.fill_zero(2 * nodes, nodes);

    // Launch 1: assemble + QR + two-sided rotation (compress). Reads the
    // children's S/R panels, written by the previous level's launches on the
    // same stream — FIFO order is the level barrier.
    UlvNode* nodes_ptr = lvl.data();
    {
      obs::ScopedLaunchLabel label("ulv_compress");
      ctx.run_batch(
          stream, nodes,
          [nodes_ptr](index_t i) {
            const index_t n = nodes_ptr[i].n_loc;
            return n * n * n + 1;
          },
          [&a, &f, l, ridge, nodes_ptr](index_t i) {
            assemble_and_rotate(a, f.nodes_, f.panels_, l, i, ridge, nodes_ptr[i]);
          });
    }

    // Launches 2-4: eliminate the interior blocks — batched potrf on Dh_zz,
    // batched right-side trsm for W = Dh_sz Lz^{-T}, batched gemm for the
    // Schur complement S = Dh_ss - W W^T. Same stream, FIFO.
    std::vector<MatrixView> dzz;
    std::vector<ConstMatrixView> lz, wc;
    std::vector<MatrixView> dsz, dss;
    for (index_t i = 0; i < nodes; ++i) {
      UlvNode& nd = lvl[static_cast<size_t>(i)];
      const index_t r = nd.rank, z = nd.nz();
      MatrixView dh = pa.dev(nodes + i);
      dzz.push_back(z > 0 ? dh.block(r, r, z, z) : MatrixView());
      lz.push_back(z > 0 ? ConstMatrixView(dh.block(r, r, z, z)) : ConstMatrixView());
      dsz.push_back(r > 0 && z > 0 ? dh.block(0, r, r, z) : MatrixView());
      wc.push_back(r > 0 && z > 0 ? ConstMatrixView(dh.block(0, r, r, z)) : ConstMatrixView());
      // S only changes when there is an interior block to eliminate; an
      // empty entry skips the (beta = 1) no-op launch body.
      dss.push_back(r > 0 && z > 0 ? dh.block(0, 0, r, r) : MatrixView());
    }
    std::vector<ConstMatrixView> wt = wc; // both gemm operands are W
    batched::batched_potrf(ctx, stream, std::move(dzz));
    batched::batched_trsm_lower(ctx, stream, batched::TrsmSide::Right, la::Op::Trans,
                                std::move(lz), std::move(dsz));
    batched::batched_gemm(ctx, stream, -1.0, std::move(wc), la::Op::None, std::move(wt),
                          la::Op::Trans, 1.0, std::move(dss));
  }

  // Root: marshal the level-1 Schur complements and reduced generators back
  // to the host (four explicit device → host copies), merge and factor the
  // reduced root system densely host-side — the classic small-root-on-host
  // pattern of GPU multilevel factorizations. The span opens after the
  // sync, so it times the root alone, not the levels' queued work.
  ctx.sync(stream);
  obs::TraceSpan root_span("solver", "ulv_root");
  const UlvNode& c1 = f.nodes_[1][0];
  const UlvNode& c2 = f.nodes_[1][1];
  const backend::BlockArena& p1 = f.panels_[1]; // 2 nodes: dhat at 2+i, utilde at 4+i
  backend::DeviceBackend& dev = ctx.device();
  Matrix s1(c1.rank, c1.rank), u1(c1.rank, c1.rank);
  Matrix s2(c2.rank, c2.rank), u2(c2.rank, c2.rank);
  dev.download(p1.dev(2).block(0, 0, c1.rank, c1.rank), s1.view());
  dev.download(p1.dev(4), u1.view());
  dev.download(p1.dev(3).block(0, 0, c2.rank, c2.rank), s2.view());
  dev.download(p1.dev(5), u2.view());
  f.root_factor_.resize(c1.rank + c2.rank, c1.rank + c2.rank);
  merge_siblings(s1.view(), u1.view(), c1.rank, s2.view(), u2.view(), c2.rank,
                 a.coupling[1].host(0).view(), f.root_factor_.view());
  la::cholesky(f.root_factor_.view());
  // Keep the factor device-resident too (uploaded once, here): solve sweeps
  // read it in place instead of marshaling the root block every solve.
  f.root_arena_.reset(1);
  f.root_arena_.set_shape(0, f.root_factor_.rows(), f.root_factor_.cols());
  f.root_arena_.allocate(dev);
  f.root_arena_.upload(0, f.root_factor_.view());
  return f;
  };

  const real_t scale0 = max_abs_diag(a, ctx.device());
  const real_t scale = scale0 > real_t{0} ? scale0 : real_t{1};
  real_t ridge = 0.0;
  for (int attempt = 0;; ++attempt) {
    try {
      obs::TraceSpan attempt_span("solver", "ulv_factor", "attempt",
                                  static_cast<std::uint64_t>(attempt), "ridged",
                                  ridge != real_t{0} ? 1 : 0);
      UlvCholesky f = factor_once(ridge);
      f.ridge_ = ridge;
      // Fault-recovery visibility (ROADMAP item 4): ridge escalations land
      // in the same registry snapshot as the serve failure counters.
      auto& reg = obs::MetricsRegistry::global();
      reg.counter("ulv_factorizations").add();
      if (ridge != real_t{0}) {
        reg.counter("ulv_ridge_applied").add();
        reg.gauge("ulv_last_ridge").set(static_cast<double>(ridge));
      }
      return f;
    } catch (const NumericalError&) {
      // A non-positive pivot is deterministic -- only escalation (a larger
      // ridge) can change the outcome. The ladder caps at
      // ridge_rel * growth^(retries-1) of the diagonal scale (1e-6 by
      // default), far too small to mask genuine indefiniteness: those
      // matrices still fail the last attempt and the error surfaces.
      if (attempt >= opts.max_ridge_retries) throw;
      obs::MetricsRegistry::global().counter("ulv_ridge_retries").add();
      ridge = ridge == real_t{0} ? opts.ridge_rel * scale : ridge * opts.ridge_growth;
    }
  }
}

UlvCholesky ulv_factor(const h2::H2Matrix& a, batched::ExecutionContext& ctx) {
  return ulv_factor(a, ctx, UlvOptions{});
}

UlvCholesky ulv_factor(const h2::H2Matrix& a) {
  batched::ExecutionContext ctx(a.execution_config());
  return ulv_factor(a, ctx);
}

namespace {

/// Device backend owning the factor's panel arenas, or null for a root-only
/// factor (which holds no device memory).
backend::DeviceBackend* panel_backend(const std::vector<backend::BlockArena>& panels) {
  for (const auto& pa : panels)
    if (pa.allocated()) return pa.backend();
  return nullptr;
}

} // namespace

backend::ExecutionConfig UlvCholesky::execution_config() const {
  if (backend::DeviceBackend* b = panel_backend(panels_))
    return {b->shared_from_this(), backend::LaunchMode::Batched};
  return backend::default_backend();
}

void UlvCholesky::solve_many(ConstMatrixView b, MatrixView x,
                             batched::ExecutionContext& ctx) const {
  const index_t n = size();
  const index_t nrhs = b.cols;
  H2S_CHECK(b.rows == n && x.rows == n && x.cols == nrhs, "ulv solve: shape mismatch");
  backend::DeviceBackend* own = panel_backend(panels_);
  // Compare memory owners, not backend identities: a FaultInjectingDevice
  // shares its inner device's heap, so a factor built under "faulty-cpu"
  // stays solvable through a degraded "cpu" context (and vice versa).
  H2S_CHECK(own == nullptr || own->memory_owner() == ctx.device().memory_owner(),
            "ulv solve: context device '" << ctx.device().name()
                                          << "' does not own the factor panels (factored on '"
                                          << own->name()
                                          << "'); solve with a context on the same backend");
  const index_t levels = tree_->num_levels();
  const index_t leaf = tree_->leaf_level();

  if (levels == 1) {
    copy(b, x);
    la::cholesky_solve(root_factor_.view(), x);
    return;
  }

  // One workspace reservation per solve: the marshaled B/X panels, every
  // node's local right-hand-side/solution panel, and the root block
  // (prefix-sum single-allocation pattern, like h2_matvec).
  // Everything the sweeps touch is device-resident; the host boundary is
  // crossed exactly twice — the b upload and the x download.
  backend::DeviceBackend& dev = ctx.device();
  const index_t root_rows = nodes_[1][0].rank + nodes_[1][1].rank;
  Workspace& ws = ctx.workspace();
  ws.reset();
  {
    std::size_t total =
        2 * Workspace::panel_bytes(n, nrhs) + Workspace::panel_bytes(root_rows, nrhs) + 64;
    for (index_t l = 1; l < levels; ++l)
      for (index_t i = 0; i < tree_->nodes_at(l); ++i)
        total +=
            Workspace::panel_bytes(nodes_[static_cast<size_t>(l)][static_cast<size_t>(i)].n_loc,
                                   nrhs);
    ws.reserve_bytes(total);
  }
  MatrixView bd = ws.panel(n, nrhs);
  MatrixView xd = ws.panel(n, nrhs);
  MatrixView rootw = ws.panel(root_rows, nrhs);
  std::vector<std::vector<MatrixView>> work(static_cast<size_t>(levels));
  for (index_t l = 1; l < levels; ++l) {
    const index_t cnt = tree_->nodes_at(l);
    work[static_cast<size_t>(l)].resize(static_cast<size_t>(cnt));
    for (index_t i = 0; i < cnt; ++i)
      work[static_cast<size_t>(l)][static_cast<size_t>(i)] =
          ws.panel(nodes_[static_cast<size_t>(l)][static_cast<size_t>(i)].n_loc, nrhs);
  }
  // Sweep launches reference the workspace panels; drain them before the
  // arena is reused if a launch fault surfaces mid-solve.
  batched::StreamFence fence(ctx);
  dev.upload(b, bd);

  const auto stream = batched::kSampleStream;

  // Forward sweep, leaves up: rotate the local rhs, solve the interior
  // block, push the skeleton part to the parent. FIFO on one stream stands
  // in for level barriers.
  for (index_t l = leaf; l >= 1; --l) {
    const index_t cnt = tree_->nodes_at(l);
    const auto ul = static_cast<size_t>(l);
    auto* lvl_nodes = &nodes_[ul][0];
    auto* lvl_work = &work[ul][0];
    const backend::BlockArena* lvl_panels = &panels_[ul];
    auto* child_work = l == leaf ? nullptr : &work[ul + 1][0];
    const UlvNode* child_nodes = l == leaf ? nullptr : &nodes_[ul + 1][0];
    ctx.run_batch(
        stream, cnt,
        [lvl_nodes, nrhs](index_t i) {
          const index_t m = lvl_nodes[i].n_loc;
          return m * m * nrhs + 1;
        },
        [this, bd, l, leaf, cnt, lvl_nodes, lvl_work, lvl_panels, child_work, child_nodes,
         nrhs](index_t i) {
          const UlvNode& nd = lvl_nodes[i];
          MatrixView w = lvl_work[i];
          if (nd.n_loc == 0) return;
          if (l == leaf) {
            copy(bd.block(tree_->begin(l, i), 0, nd.n_loc, nrhs), w);
          } else {
            const UlvNode& c1 = child_nodes[2 * i];
            const UlvNode& c2 = child_nodes[2 * i + 1];
            if (c1.rank > 0)
              copy(child_work[2 * i].row_range(0, c1.rank), w.row_range(0, c1.rank));
            if (c2.rank > 0)
              copy(child_work[2 * i + 1].row_range(0, c2.rank),
                   w.row_range(c1.rank, c2.rank));
          }
          ConstMatrixView qr = lvl_panels->dev(i);
          ConstMatrixView dh = lvl_panels->dev(cnt + i);
          la::apply_q_transpose(qr, nd.tau, w);
          const index_t r = nd.rank, z = nd.nz();
          if (z > 0) {
            MatrixView wz = w.row_range(r, z);
            la::trsm_lower_left(dh.block(r, r, z, z), la::Op::None, wz);
            if (r > 0)
              la::gemm(-1.0, dh.block(0, r, r, z), la::Op::None, wz, la::Op::None, 1.0,
                       w.row_range(0, r));
          }
        });
  }
  // Root system: gather the reduced right-hand side into the root workspace
  // panel and solve in place against the device-resident root factor — no
  // host round-trip. One single-item launch keeps the FIFO stream order
  // (runs after the forward sweep, before the backward one).
  const index_t r1 = nodes_[1][0].rank, r2 = nodes_[1][1].rank;
  const MatrixView w10 = work[1][0], w11 = work[1][1];
  ctx.run_batch(
      stream, 1,
      [r1, r2, nrhs](index_t) { return (r1 + r2) * (r1 + r2) * nrhs + 1; },
      [this, rootw, w10, w11, r1, r2](index_t) {
        if (r1 > 0) copy(w10.row_range(0, r1), rootw.row_range(0, r1));
        if (r2 > 0) copy(w11.row_range(0, r2), rootw.row_range(r1, r2));
        la::cholesky_solve(root_arena_.dev(0), rootw);
        if (r1 > 0) copy(rootw.row_range(0, r1), w10.row_range(0, r1));
        if (r2 > 0) copy(rootw.row_range(r1, r2), w11.row_range(0, r2));
      });

  // Backward sweep, top down: recover the interior unknowns, rotate back,
  // scatter to the children (or to x at the leaves).
  for (index_t l = 1; l < levels; ++l) {
    const index_t cnt = tree_->nodes_at(l);
    const auto ul = static_cast<size_t>(l);
    auto* lvl_nodes = &nodes_[ul][0];
    auto* lvl_work = &work[ul][0];
    const backend::BlockArena* lvl_panels = &panels_[ul];
    auto* child_work = l == leaf ? nullptr : &work[ul + 1][0];
    const UlvNode* child_nodes = l == leaf ? nullptr : &nodes_[ul + 1][0];
    ctx.run_batch(
        stream, cnt,
        [lvl_nodes, nrhs](index_t i) {
          const index_t m = lvl_nodes[i].n_loc;
          return m * m * nrhs + 1;
        },
        [this, xd, l, leaf, cnt, lvl_nodes, lvl_work, lvl_panels, child_work, child_nodes,
         nrhs](index_t i) {
          const UlvNode& nd = lvl_nodes[i];
          MatrixView w = lvl_work[i];
          if (nd.n_loc == 0) return;
          ConstMatrixView qr = lvl_panels->dev(i);
          ConstMatrixView dh = lvl_panels->dev(cnt + i);
          const index_t r = nd.rank, z = nd.nz();
          if (z > 0) {
            MatrixView wz = w.row_range(r, z);
            if (r > 0)
              la::gemm(-1.0, dh.block(0, r, r, z), la::Op::Trans, w.row_range(0, r),
                       la::Op::None, 1.0, wz);
            la::trsm_lower_left(dh.block(r, r, z, z), la::Op::Trans, wz);
          }
          la::apply_q(qr, nd.tau, w);
          if (l == leaf) {
            copy(w, xd.block(tree_->begin(l, i), 0, nd.n_loc, nrhs));
          } else {
            const UlvNode& c1 = child_nodes[2 * i];
            const UlvNode& c2 = child_nodes[2 * i + 1];
            if (c1.rank > 0)
              copy(w.row_range(0, c1.rank), child_work[2 * i].row_range(0, c1.rank));
            if (c2.rank > 0)
              copy(w.row_range(c1.rank, c2.rank),
                   child_work[2 * i + 1].row_range(0, c2.rank));
          }
        });
  }
  ctx.sync(stream);
  dev.download(xd, x);
}

void UlvCholesky::solve_many(ConstMatrixView b, MatrixView x) const {
  batched::ExecutionContext ctx(execution_config());
  solve_many(b, x, ctx);
}

void UlvCholesky::solve(const_real_span b, real_span x, batched::ExecutionContext& ctx) const {
  const index_t n = size();
  H2S_CHECK(static_cast<index_t>(b.size()) == n && static_cast<index_t>(x.size()) == n,
            "ulv solve: size mismatch");
  ConstMatrixView bv(b.data(), n, 1, n == 0 ? 1 : n);
  MatrixView xv(x.data(), n, 1, n == 0 ? 1 : n);
  solve_many(bv, xv, ctx);
}

void UlvCholesky::solve(const_real_span b, real_span x) const {
  batched::ExecutionContext ctx(execution_config());
  solve(b, x, ctx);
}

std::size_t UlvCholesky::memory_bytes() const {
  std::size_t bytes = static_cast<std::size_t>(root_factor_.size()) * sizeof(real_t);
  for (const auto& pa : panels_) bytes += pa.payload_bytes();
  for (const auto& lvl : nodes_)
    for (const UlvNode& nd : lvl) bytes += nd.tau.size() * sizeof(real_t);
  return bytes;
}

std::size_t UlvCholesky::device_bytes() const {
  std::size_t bytes = root_arena_.device_bytes();
  for (const auto& pa : panels_) bytes += pa.device_bytes();
  return bytes;
}

} // namespace h2sketch::solver
