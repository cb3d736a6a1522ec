#include "solver/hss_matrix.hpp"

#include "backend/registry.hpp"
#include "batched/batched_gemm.hpp"
#include "la/blas.hpp"

namespace h2sketch::solver {

std::size_t HssMatrix::memory_bytes() const {
  std::size_t bytes = 0;
  for (const auto& lvl : generators) bytes += lvl.payload_bytes();
  for (const auto& lvl : coupling) bytes += lvl.payload_bytes();
  bytes += leaf_diag.payload_bytes();
  for (const auto& lvl : skeleton)
    for (const auto& s : lvl) bytes += s.size() * sizeof(index_t);
  return bytes;
}

std::size_t HssMatrix::device_bytes() const {
  std::size_t bytes = 0;
  for (const auto& lvl : generators) bytes += lvl.device_bytes();
  for (const auto& lvl : coupling) bytes += lvl.device_bytes();
  bytes += leaf_diag.device_bytes();
  return bytes;
}

std::shared_ptr<backend::DeviceBackend> HssMatrix::storage_backend() const {
  if (leaf_diag.allocated()) return leaf_diag.backend_ptr();
  for (const auto& lvl : generators)
    if (lvl.allocated()) return lvl.backend_ptr();
  for (const auto& lvl : coupling)
    if (lvl.allocated()) return lvl.backend_ptr();
  return nullptr;
}

backend::ExecutionConfig HssMatrix::execution_config() const {
  if (auto dev = storage_backend()) return {std::move(dev), backend::LaunchMode::Batched};
  return backend::default_backend();
}

Matrix HssMatrix::expand_generator(index_t level, index_t node) const {
  const auto ul = static_cast<size_t>(level);
  const auto un = static_cast<size_t>(node);
  if (level == leaf_level()) return generators[ul].host(node);
  const Matrix u1 = expand_generator(level + 1, 2 * node);
  const Matrix u2 = expand_generator(level + 1, 2 * node + 1);
  const Matrix& e = generators[ul].host(node);
  const index_t k = ranks[ul][un];
  Matrix out(u1.rows() + u2.rows(), k);
  if (u1.cols() > 0)
    la::gemm(1.0, u1.view(), la::Op::None, e.view().row_range(0, u1.cols()), la::Op::None, 0.0,
             out.view().row_range(0, u1.rows()));
  if (u2.cols() > 0)
    la::gemm(1.0, u2.view(), la::Op::None, e.view().row_range(u1.cols(), u2.cols()), la::Op::None,
             0.0, out.view().row_range(u1.rows(), u2.rows()));
  return out;
}

Matrix HssMatrix::densify() const {
  const index_t n = size();
  Matrix a(n, n);
  const index_t leaf = leaf_level();
  // Dense leaf diagonals.
  for (index_t i = 0; i < tree->nodes_at(leaf); ++i) {
    const index_t b = tree->begin(leaf, i);
    const Matrix& d = leaf_diag.host(i);
    copy(d.view(), a.view().block(b, b, d.rows(), d.cols()));
  }
  // Off-diagonal sibling pairs: U_s B U_t^T and the mirrored transpose.
  for (index_t l = 1; l < num_levels(); ++l) {
    for (index_t p = 0; p < tree->nodes_at(l) / 2; ++p) {
      const index_t s = 2 * p, t = 2 * p + 1;
      const auto& lvl = coupling[static_cast<size_t>(l)];
      if (lvl.rows(p) == 0 || lvl.cols(p) == 0) continue;
      const Matrix& b = lvl.host(p);
      const Matrix us = expand_generator(l, s);
      const Matrix ut = expand_generator(l, t);
      Matrix ub(us.rows(), b.cols());
      la::gemm(1.0, us.view(), la::Op::None, b.view(), la::Op::None, 0.0, ub.view());
      MatrixView blk =
          a.view().block(tree->begin(l, s), tree->begin(l, t), us.rows(), ut.rows());
      la::gemm(1.0, ub.view(), la::Op::None, ut.view(), la::Op::Trans, 0.0, blk);
      // Symmetric mirror.
      MatrixView blk_t =
          a.view().block(tree->begin(l, t), tree->begin(l, s), ut.rows(), us.rows());
      for (index_t j = 0; j < blk.cols; ++j)
        for (index_t i = 0; i < blk.rows; ++i) blk_t(j, i) = blk(i, j);
    }
  }
  return a;
}

void HssMatrix::matvec(batched::ExecutionContext& ctx, ConstMatrixView x, MatrixView y) const {
  const index_t n = size();
  const index_t d = x.cols;
  H2S_CHECK(x.rows == n && y.rows == n && y.cols == d, "HssMatrix::matvec: shape mismatch");
  const tree::ClusterTree& t = *tree;
  const index_t levels = num_levels();
  const index_t leaf = leaf_level();
  const auto stream = batched::kSampleStream;
  const auto diag_stream = batched::kBasisStream;

  backend::DeviceBackend& dev = ctx.device();
  if (auto own = storage_backend())
    H2S_CHECK(own->memory_owner() == dev.memory_owner(),
              "HssMatrix::matvec: context device does not own this matrix's device arenas "
              "(built on "
                  << own->name() << ", applied on " << dev.name() << ")");

  // One arena reservation per matvec for the marshaled input/output panels
  // and the per-node coefficient blocks (the prefix-sum single-allocation
  // pattern; see h2_matvec).
  Workspace& ws = ctx.workspace();
  ws.reset();
  {
    std::size_t total = 2 * Workspace::panel_bytes(n, d) + 64;
    for (index_t l = 1; l < levels; ++l)
      for (index_t i = 0; i < t.nodes_at(l); ++i)
        total += 2 * Workspace::panel_bytes(rank(l, i), d);
    ws.reserve_bytes(total);
  }

  MatrixView xd = ws.panel(n, d);
  MatrixView yd = ws.panel(n, d);

  std::vector<std::vector<MatrixView>> xhat(static_cast<size_t>(levels)),
      yhat(static_cast<size_t>(levels));
  for (index_t l = 1; l < levels; ++l) {
    const index_t nodes = t.nodes_at(l);
    xhat[static_cast<size_t>(l)].resize(static_cast<size_t>(nodes));
    yhat[static_cast<size_t>(l)].resize(static_cast<size_t>(nodes));
    for (index_t i = 0; i < nodes; ++i) {
      xhat[static_cast<size_t>(l)][static_cast<size_t>(i)] = ws.panel(rank(l, i), d);
      yhat[static_cast<size_t>(l)][static_cast<size_t>(i)] = ws.panel(rank(l, i), d);
    }
  }
  // Pending launches write into the workspace arena; if a launch fault
  // unwinds this call, drain them before the caller can reset/reuse ws.
  batched::StreamFence fence(ctx);
  // One bulk zero fill from yd through the last coefficient panel (yd and
  // the panels must start zeroed); xd sits before the span and is filled
  // by the upload instead.
  const auto skip = static_cast<std::size_t>(reinterpret_cast<std::byte*>(yd.data) -
                                             static_cast<std::byte*>(ws.arena_data()));
  dev.fill_zero(yd.data, ws.used_bytes() - skip);
  dev.upload(x, xd);

  // Leaf diagonal phase yd(I_tau) += D_tau xd(I_tau): one launch on its own
  // stream, overlapping the whole low-rank chain; joined before the leaf
  // expansion (the only other writer of yd).
  {
    std::vector<ConstMatrixView> av, bv;
    std::vector<MatrixView> cv;
    for (index_t i = 0; i < t.nodes_at(leaf); ++i) {
      av.push_back(leaf_diag.dev(i));
      bv.push_back(xd.row_range(t.begin(leaf, i), t.size(leaf, i)));
      cv.push_back(yd.row_range(t.begin(leaf, i), t.size(leaf, i)));
    }
    batched::batched_gemm(ctx, diag_stream, 1.0, std::move(av), la::Op::None, std::move(bv),
                          la::Op::None, 1.0, std::move(cv));
  }

  if (levels > 1) {
    // Upward pass, leaf: xhat = U^T xd(I_tau, :).
    {
      std::vector<ConstMatrixView> av, bv;
      std::vector<MatrixView> cv;
      for (index_t i = 0; i < t.nodes_at(leaf); ++i) {
        if (rank(leaf, i) == 0) {
          av.push_back(ConstMatrixView());
          bv.push_back(ConstMatrixView());
          cv.push_back(MatrixView());
          continue;
        }
        av.push_back(generators[static_cast<size_t>(leaf)].dev(i));
        bv.push_back(xd.row_range(t.begin(leaf, i), t.size(leaf, i)));
        cv.push_back(xhat[static_cast<size_t>(leaf)][static_cast<size_t>(i)]);
      }
      batched::batched_gemm(ctx, stream, 1.0, std::move(av), la::Op::Trans, std::move(bv),
                            la::Op::None, 0.0, std::move(cv));
    }

    // Upward pass, inner: xhat_tau = E_1^T xhat_l + E_2^T xhat_r (two
    // half-launches; FIFO order is the level barrier).
    for (index_t l = leaf - 1; l >= 1; --l) {
      for (int side = 0; side < 2; ++side) {
        std::vector<ConstMatrixView> av, bv;
        std::vector<MatrixView> cv;
        for (index_t i = 0; i < t.nodes_at(l); ++i) {
          const index_t r_left = rank(l + 1, 2 * i);
          const index_t r_side = side == 0 ? r_left : rank(l + 1, 2 * i + 1);
          const index_t row0 = side == 0 ? 0 : r_left;
          const index_t r_tau = rank(l, i);
          if (r_tau == 0 || r_side == 0) {
            av.push_back(ConstMatrixView());
            bv.push_back(ConstMatrixView());
            cv.push_back(MatrixView());
            continue;
          }
          av.push_back(generators[static_cast<size_t>(l)].dev(i).block(row0, 0, r_side, r_tau));
          bv.push_back(xhat[static_cast<size_t>(l + 1)][static_cast<size_t>(2 * i + side)]);
          cv.push_back(xhat[static_cast<size_t>(l)][static_cast<size_t>(i)]);
        }
        batched::batched_gemm(ctx, stream, 1.0, std::move(av), la::Op::Trans, std::move(bv),
                              la::Op::None, side == 0 ? 0.0 : 1.0, std::move(cv));
      }
    }

    // Coupling phase, one sibling-pair batch per level: yhat_{2p} += B_p
    // xhat_{2p+1} and yhat_{2p+1} += B_p^T xhat_{2p}, as two half-launches
    // so each yhat block has a single writer per launch.
    for (index_t l = 1; l < levels; ++l) {
      const auto ul = static_cast<size_t>(l);
      for (int side = 0; side < 2; ++side) {
        std::vector<ConstMatrixView> av, bv;
        std::vector<MatrixView> cv;
        for (index_t p = 0; p < t.nodes_at(l) / 2; ++p) {
          if (coupling[ul].rows(p) == 0 || coupling[ul].cols(p) == 0) {
            av.push_back(ConstMatrixView());
            bv.push_back(ConstMatrixView());
            cv.push_back(MatrixView());
            continue;
          }
          av.push_back(coupling[ul].dev(p));
          bv.push_back(xhat[ul][static_cast<size_t>(2 * p + (side == 0 ? 1 : 0))]);
          cv.push_back(yhat[ul][static_cast<size_t>(2 * p + side)]);
        }
        batched::batched_gemm(ctx, stream, 1.0, std::move(av),
                              side == 0 ? la::Op::None : la::Op::Trans, std::move(bv),
                              la::Op::None, 1.0, std::move(cv));
      }
    }

    // Downward pass: children accumulate E_side * yhat_parent.
    for (index_t l = 1; l < leaf; ++l) {
      for (int side = 0; side < 2; ++side) {
        std::vector<ConstMatrixView> av, bv;
        std::vector<MatrixView> cv;
        for (index_t i = 0; i < t.nodes_at(l); ++i) {
          const index_t r_left = rank(l + 1, 2 * i);
          const index_t r_side = side == 0 ? r_left : rank(l + 1, 2 * i + 1);
          const index_t row0 = side == 0 ? 0 : r_left;
          const index_t r_tau = rank(l, i);
          if (r_tau == 0 || r_side == 0) {
            av.push_back(ConstMatrixView());
            bv.push_back(ConstMatrixView());
            cv.push_back(MatrixView());
            continue;
          }
          av.push_back(generators[static_cast<size_t>(l)].dev(i).block(row0, 0, r_side, r_tau));
          bv.push_back(yhat[static_cast<size_t>(l)][static_cast<size_t>(i)]);
          cv.push_back(yhat[static_cast<size_t>(l + 1)][static_cast<size_t>(2 * i + side)]);
        }
        batched::batched_gemm(ctx, stream, 1.0, std::move(av), la::Op::None, std::move(bv),
                              la::Op::None, 1.0, std::move(cv));
      }
    }

    // Leaf expansion yd(I_tau) += U yhat_leaf: joins the diagonal stream
    // first (the only concurrent writer of yd).
    ctx.sync(diag_stream);
    {
      std::vector<ConstMatrixView> av, bv;
      std::vector<MatrixView> cv;
      for (index_t i = 0; i < t.nodes_at(leaf); ++i) {
        if (rank(leaf, i) == 0) {
          av.push_back(ConstMatrixView());
          bv.push_back(ConstMatrixView());
          cv.push_back(MatrixView());
          continue;
        }
        av.push_back(generators[static_cast<size_t>(leaf)].dev(i));
        bv.push_back(yhat[static_cast<size_t>(leaf)][static_cast<size_t>(i)]);
        cv.push_back(yd.row_range(t.begin(leaf, i), t.size(leaf, i)));
      }
      batched::batched_gemm(ctx, stream, 1.0, std::move(av), la::Op::None, std::move(bv),
                            la::Op::None, 1.0, std::move(cv));
    }
  }

  // Arena panels must outlive every launch; then marshal the result back.
  ctx.sync_all();
  dev.download(yd, y);
}

void HssMatrix::matvec(ConstMatrixView x, MatrixView y) const {
  batched::ExecutionContext ctx(execution_config());
  matvec(ctx, x, y);
}

void HssMatrix::validate() const {
  H2S_CHECK(tree != nullptr, "HssMatrix: missing cluster tree");
  const index_t levels = num_levels();
  const index_t leaf = leaf_level();
  H2S_CHECK(static_cast<index_t>(ranks.size()) == levels &&
                static_cast<index_t>(generators.size()) == levels &&
                static_cast<index_t>(coupling.size()) == levels &&
                static_cast<index_t>(skeleton.size()) == levels,
            "HssMatrix: per-level container count mismatch");
  H2S_CHECK(leaf_diag.count() == tree->nodes_at(leaf),
            "HssMatrix: leaf diagonal count mismatch");
  for (index_t i = 0; i < tree->nodes_at(leaf); ++i)
    H2S_CHECK(leaf_diag.rows(i) == tree->size(leaf, i) && leaf_diag.cols(i) == tree->size(leaf, i),
              "HssMatrix: leaf diagonal dimension mismatch at node " << i);
  for (index_t l = 1; l < levels; ++l) {
    const auto ul = static_cast<size_t>(l);
    H2S_CHECK(static_cast<index_t>(ranks[ul].size()) == tree->nodes_at(l),
              "HssMatrix: rank count mismatch at level " << l);
    H2S_CHECK(coupling[ul].count() == tree->nodes_at(l) / 2,
              "HssMatrix: coupling pair count mismatch at level " << l);
    for (index_t i = 0; i < tree->nodes_at(l); ++i) {
      const auto ui = static_cast<size_t>(i);
      const index_t k = ranks[ul][ui];
      if (l == leaf) {
        H2S_CHECK(generators[ul].rows(i) == tree->size(l, i) && generators[ul].cols(i) == k,
                  "HssMatrix: leaf generator dimension mismatch at node " << i);
      } else {
        const index_t rsum = ranks[ul + 1][static_cast<size_t>(2 * i)] +
                             ranks[ul + 1][static_cast<size_t>(2 * i + 1)];
        H2S_CHECK(generators[ul].rows(i) == rsum && generators[ul].cols(i) == k,
                  "HssMatrix: transfer dimension mismatch at level " << l << " node " << i);
      }
      H2S_CHECK(static_cast<index_t>(skeleton[ul][ui].size()) == k,
                "HssMatrix: skeleton size != rank at level " << l << " node " << i);
      for (index_t pos : skeleton[ul][ui])
        H2S_CHECK(pos >= tree->begin(l, i) && pos < tree->end(l, i),
                  "HssMatrix: skeleton index outside node range at level " << l);
    }
    for (index_t p = 0; p < tree->nodes_at(l) / 2; ++p)
      H2S_CHECK(coupling[ul].rows(p) == ranks[ul][static_cast<size_t>(2 * p)] &&
                    coupling[ul].cols(p) == ranks[ul][static_cast<size_t>(2 * p + 1)],
                "HssMatrix: coupling dimension mismatch at level " << l << " pair " << p);
  }
}

} // namespace h2sketch::solver
