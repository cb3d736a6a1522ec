#include "h2/h2_matvec.hpp"

#include "batched/batched_gemm.hpp"
#include "batched/bsr_gemm.hpp"

namespace h2sketch::h2 {

namespace {

using batched::StreamId;

/// Streams of the matvec pipeline: the whole upward/coupling/downward
/// low-rank chain runs FIFO on the sample stream while the dense near-field
/// product — typically the largest single launch — runs concurrently on the
/// basis stream; per-level coupling products, independent of each other,
/// fan out over the remaining streams.
constexpr StreamId kLowRank = batched::kSampleStream;
constexpr StreamId kNearField = batched::kBasisStream;
constexpr StreamId kCouplingSpill[] = {batched::kEntryGenStream, batched::kAuxStream};

} // namespace

void h2_matvec(batched::ExecutionContext& ctx, const H2Matrix& a, ConstMatrixView x,
               MatrixView y) {
  const index_t n = a.size();
  const index_t d = x.cols;
  H2S_CHECK(x.rows == n && y.rows == n && y.cols == d, "h2_matvec: shape mismatch");
  const tree::ClusterTree& t = *a.tree;
  const index_t levels = t.num_levels();
  const index_t leaf = t.leaf_level();

  backend::DeviceBackend& dev = ctx.device();
  // The operator's arenas are device-resident: a context on a foreign
  // device heap must be rejected instead of dereferencing poisoned pages.
  if (auto own = a.storage_backend())
    H2S_CHECK(own->memory_owner() == dev.memory_owner(),
              "h2_matvec: context device does not own this matrix's device arenas (built on "
                  << own->name() << ", applied on " << dev.name() << ")");

  // Marshal into device memory: the input/output panels and every per-level
  // coefficient block come from one arena reservation (one backing
  // allocation per matvec, the paper's prefix-sum pattern), sized up front.
  // The root carries no far block (a node is never admissible with itself),
  // so the low-rank chain runs on levels 1..leaf only.
  Workspace& ws = ctx.workspace();
  ws.reset();
  {
    std::size_t total = 2 * Workspace::panel_bytes(n, d) + 64;
    for (index_t l = 1; l < levels; ++l)
      for (index_t i = 0; i < t.nodes_at(l); ++i)
        total += 2 * Workspace::panel_bytes(a.rank(l, i), d);
    ws.reserve_bytes(total);
  }

  // x is uploaded across the boundary once; y accumulates device-side in yd
  // and is downloaded after the final barrier.
  MatrixView xd = ws.panel(n, d);
  MatrixView yd = ws.panel(n, d);

  // Per-level coefficient blocks xhat/yhat (rank x d per node); they (and
  // yd) must start zeroed — the beta = 0 "skip" entries of the rank-0
  // launches rely on it.
  std::vector<std::vector<MatrixView>> xhat(static_cast<size_t>(levels)),
      yhat(static_cast<size_t>(levels));
  for (index_t l = 1; l < levels; ++l) {
    const index_t nodes = t.nodes_at(l);
    xhat[static_cast<size_t>(l)].resize(static_cast<size_t>(nodes));
    yhat[static_cast<size_t>(l)].resize(static_cast<size_t>(nodes));
    for (index_t i = 0; i < nodes; ++i) {
      xhat[static_cast<size_t>(l)][static_cast<size_t>(i)] = ws.panel(a.rank(l, i), d);
      yhat[static_cast<size_t>(l)][static_cast<size_t>(i)] = ws.panel(a.rank(l, i), d);
    }
  }
  // Pending launches write into the workspace arena; if a launch fault
  // unwinds this call, drain them before the caller can reset or reuse it.
  batched::StreamFence fence(ctx);
  // One bulk zero fill from yd through the last coefficient panel (one
  // kernel scope and one memset instead of two per node); xd sits before
  // the span and is filled by the upload instead.
  const auto skip = static_cast<std::size_t>(reinterpret_cast<std::byte*>(yd.data) -
                                             static_cast<std::byte*>(ws.arena_data()));
  dev.fill_zero(yd.data, ws.used_bytes() - skip);
  dev.upload(x, xd);

  // Dense near field: yd(I_tau, :) += D_{tau,b} xd(I_b, :). Issued first, on
  // its own stream: it reads only xd and writes only yd, so it overlaps the
  // entire low-rank pipeline and is joined right before the leaf expansion
  // (the only other writer of yd).
  {
    const auto& near = a.mtree.near_leaf;
    if (!near.empty()) {
      std::vector<ConstMatrixView> blocks, xv;
      std::vector<MatrixView> yv;
      for (index_t e = 0; e < a.dense.count(); ++e) blocks.push_back(a.dense.dev(e));
      for (index_t i = 0; i < t.nodes_at(leaf); ++i) {
        xv.push_back(xd.row_range(t.begin(leaf, i), t.size(leaf, i)));
        yv.push_back(yd.row_range(t.begin(leaf, i), t.size(leaf, i)));
      }
      batched::bsr_gemm(ctx, kNearField, 1.0, {near.row_ptr.begin(), near.row_ptr.end()},
                        {near.col.begin(), near.col.end()}, std::move(blocks),
                        std::vector<la::Op>(near.col.size(), la::Op::None), std::move(xv),
                        std::move(yv));
    }
  }

  if (levels == 1) {
    // A one-node tree is all near field.
    ctx.sync_all();
    dev.download(yd, y);
    return;
  }

  // Upward pass: level-to-level dependencies ride the stream's FIFO order,
  // no barriers.
  for (index_t l = leaf; l >= 1; --l)
    upsweep_level(ctx, kLowRank, a, l, xd,
                  l == leaf ? std::span<const MatrixView>() : xhat[static_cast<size_t>(l + 1)],
                  xhat[static_cast<size_t>(l)]);

  // Coupling phase: yhat[s] += B_{s,t} xhat[t] per level, conflict-free BSR;
  // a mirrored entry reads its stored B_{t,s} transposed. Levels are
  // mutually independent given the finished upward pass (each writes only
  // its own yhat[l]), so they fan out across streams.
  ctx.sync(kLowRank);
  int spill = 0;
  for (index_t l = 1; l < levels; ++l) {
    const auto& far = a.mtree.far[static_cast<size_t>(l)];
    if (far.empty()) continue;
    std::vector<ConstMatrixView> blocks, xv;
    std::vector<la::Op> ops;
    std::vector<MatrixView> yv;
    a.coupling_operands(l, blocks, ops);
    for (index_t i = 0; i < t.nodes_at(l); ++i) {
      xv.push_back(xhat[static_cast<size_t>(l)][static_cast<size_t>(i)]);
      yv.push_back(yhat[static_cast<size_t>(l)][static_cast<size_t>(i)]);
    }
    const StreamId s = (l % 2 == 0) ? kLowRank : kCouplingSpill[(spill++) % 2];
    batched::bsr_gemm(ctx, s, 1.0, {far.row_ptr.begin(), far.row_ptr.end()},
                      {far.col.begin(), far.col.end()}, std::move(blocks), std::move(ops),
                      std::move(xv), std::move(yv));
  }
  // Downward pass consumes every level's yhat: join the coupling fan-out
  // (the near-field stream keeps running).
  ctx.sync(kLowRank);
  for (const StreamId s : kCouplingSpill) ctx.sync(s);

  // Downward pass: children accumulate E * yhat_parent.
  for (index_t l = 1; l < leaf; ++l) {
    for (int side = 0; side < 2; ++side) {
      std::vector<ConstMatrixView> av, bv;
      std::vector<MatrixView> cv;
      for (index_t i = 0; i < t.nodes_at(l); ++i) {
        const index_t r_left = a.rank(l + 1, 2 * i);
        const index_t r_side = side == 0 ? r_left : a.rank(l + 1, 2 * i + 1);
        const index_t row0 = side == 0 ? 0 : r_left;
        const index_t r_tau = a.rank(l, i);
        if (r_tau == 0 || r_side == 0) {
          av.push_back(ConstMatrixView());
          bv.push_back(ConstMatrixView());
          cv.push_back(MatrixView());
          continue;
        }
        av.push_back(a.basis[static_cast<size_t>(l)].dev(i).block(row0, 0, r_side, r_tau));
        bv.push_back(yhat[static_cast<size_t>(l)][static_cast<size_t>(i)]);
        cv.push_back(yhat[static_cast<size_t>(l + 1)][static_cast<size_t>(2 * i + side)]);
      }
      batched::batched_gemm(ctx, kLowRank, 1.0, std::move(av), la::Op::None, std::move(bv),
                            la::Op::None, 1.0, std::move(cv));
    }
  }

  // Leaf expansion: yd(I_tau, :) += U yhat_leaf. Writes yd, so the
  // concurrent near-field accumulation must finish first.
  ctx.sync(kNearField);
  {
    const auto& ub = a.basis[static_cast<size_t>(leaf)];
    std::vector<ConstMatrixView> av, bv;
    std::vector<MatrixView> cv;
    for (index_t i = 0; i < t.nodes_at(leaf); ++i) {
      if (a.rank(leaf, i) == 0) {
        av.push_back(ConstMatrixView());
        bv.push_back(ConstMatrixView());
        cv.push_back(MatrixView());
        continue;
      }
      av.push_back(ub.dev(i));
      bv.push_back(yhat[static_cast<size_t>(leaf)][static_cast<size_t>(i)]);
      cv.push_back(yd.row_range(t.begin(leaf, i), t.size(leaf, i)));
    }
    batched::batched_gemm(ctx, kLowRank, 1.0, std::move(av), la::Op::None, std::move(bv),
                          la::Op::None, 1.0, std::move(cv));
  }

  // The arena panels must outlive every launch; then the result crosses
  // back over the marshaling boundary.
  ctx.sync_all();
  dev.download(yd, y);
}

void upsweep_level(batched::ExecutionContext& ctx, StreamId stream, const H2Matrix& a,
                   index_t level, ConstMatrixView x, std::span<const MatrixView> below,
                   std::span<const MatrixView> coeffs) {
  const tree::ClusterTree& t = *a.tree;
  const auto& basis = a.basis[static_cast<size_t>(level)];
  if (level == t.leaf_level()) {
    std::vector<ConstMatrixView> av, bv;
    std::vector<MatrixView> cv;
    for (index_t i = 0; i < t.nodes_at(level); ++i) {
      av.push_back(basis.dev(i));
      bv.push_back(x.row_range(t.begin(level, i), t.size(level, i)));
      cv.push_back(coeffs[static_cast<size_t>(i)]);
    }
    batched::batched_gemm(ctx, stream, 1.0, std::move(av), la::Op::Trans, std::move(bv),
                          la::Op::None, 0.0, std::move(cv));
    return;
  }
  // Two half-launches (left children then right children) so each parent
  // coefficient block is written by one entry per launch.
  for (int side = 0; side < 2; ++side) {
    std::vector<ConstMatrixView> av, bv;
    std::vector<MatrixView> cv;
    for (index_t i = 0; i < t.nodes_at(level); ++i) {
      const index_t r_left = a.rank(level + 1, 2 * i);
      const index_t r_side = side == 0 ? r_left : a.rank(level + 1, 2 * i + 1);
      const index_t r_tau = a.rank(level, i);
      if (r_tau == 0 || r_side == 0) {
        av.push_back(ConstMatrixView());
        bv.push_back(ConstMatrixView());
        cv.push_back(MatrixView());
        continue;
      }
      av.push_back(basis.dev(i).block(side == 0 ? 0 : r_left, 0, r_side, r_tau));
      bv.push_back(below[static_cast<size_t>(2 * i + side)]);
      cv.push_back(coeffs[static_cast<size_t>(i)]);
    }
    batched::batched_gemm(ctx, stream, 1.0, std::move(av), la::Op::Trans, std::move(bv),
                          la::Op::None, side == 0 ? 0.0 : 1.0, std::move(cv));
  }
}

void H2Matrix::matvec(batched::ExecutionContext& ctx, ConstMatrixView x, MatrixView y) const {
  h2_matvec(ctx, *this, x, y);
}

void h2_matvec(const H2Matrix& a, ConstMatrixView x, MatrixView y) {
  // Bind to the device the matrix's arenas live on, not the process
  // default: an operator built on simdevice stays applicable without the
  // caller wiring a context through.
  batched::ExecutionContext ctx(a.execution_config());
  h2_matvec(ctx, a, x, y);
}

} // namespace h2sketch::h2
