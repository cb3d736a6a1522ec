#include "h2/cheb_construction.hpp"

#include <cmath>
#include <numbers>
#include <numeric>
#include <vector>

#include "backend/registry.hpp"
#include "common/parallel.hpp"
#include "kernels/entry_gen.hpp"

namespace h2sketch::h2 {

namespace {

/// 1D Chebyshev-Gauss nodes mapped to [center-half, center+half].
std::vector<real_t> cheb_nodes_1d(real_t lo, real_t hi, index_t q) {
  // Guard zero-extent boxes (duplicate points, degenerate planes): widen so
  // Lagrange denominators stay nonzero.
  const real_t c = 0.5 * (lo + hi);
  const real_t h = std::max(0.5 * (hi - lo), 1e-8 * (1.0 + std::abs(c)));
  std::vector<real_t> x(static_cast<size_t>(q));
  for (index_t m = 0; m < q; ++m)
    x[static_cast<size_t>(m)] =
        c + h * std::cos(std::numbers::pi * (2.0 * m + 1.0) / (2.0 * q));
  return x;
}

/// Lagrange basis L_m(x) over the 1D nodes.
real_t lagrange(const std::vector<real_t>& nodes, index_t m, real_t x) {
  real_t v = 1.0;
  for (index_t k = 0; k < static_cast<index_t>(nodes.size()); ++k) {
    if (k == m) continue;
    v *= (x - nodes[static_cast<size_t>(k)]) /
         (nodes[static_cast<size_t>(m)] - nodes[static_cast<size_t>(k)]);
  }
  return v;
}

/// Tensor Chebyshev grid of a box: r = q^dim points, row-major over the
/// base-q digits of the flat index.
struct ChebGrid {
  index_t q = 0;
  index_t dim = 0;
  std::vector<std::vector<real_t>> nodes_1d; ///< per dimension
  index_t rank() const {
    index_t r = 1;
    for (index_t d = 0; d < dim; ++d) r *= q;
    return r;
  }
  /// Coordinates of tensor point m.
  void point(index_t m, real_t* out) const {
    index_t rem = m;
    for (index_t d = 0; d < dim; ++d) {
      out[d] = nodes_1d[static_cast<size_t>(d)][static_cast<size_t>(rem % q)];
      rem /= q;
    }
  }
  /// Tensor Lagrange basis value of function m at coordinates x.
  real_t basis(index_t m, const real_t* x) const {
    index_t rem = m;
    real_t v = 1.0;
    for (index_t d = 0; d < dim; ++d) {
      v *= lagrange(nodes_1d[static_cast<size_t>(d)], rem % q, x[d]);
      rem /= q;
    }
    return v;
  }
};

ChebGrid grid_of_box(const geo::BoundingBox& box, index_t q) {
  ChebGrid g;
  g.q = q;
  g.dim = box.dim;
  g.nodes_1d.resize(static_cast<size_t>(box.dim));
  for (index_t d = 0; d < box.dim; ++d)
    g.nodes_1d[static_cast<size_t>(d)] =
        cheb_nodes_1d(box.lo[static_cast<size_t>(d)], box.hi[static_cast<size_t>(d)], q);
  return g;
}

} // namespace

H2Matrix build_cheb_h2(std::shared_ptr<const tree::ClusterTree> tree,
                       const tree::Admissibility& adm, const kern::KernelFunction& kernel,
                       index_t q) {
  H2S_CHECK(q >= 2, "need at least two interpolation nodes per dimension");
  H2Matrix a;
  a.tree = tree;
  a.mtree = tree::MatrixTree::build(*tree, adm);
  a.init_structure();

  const tree::ClusterTree& t = *tree;
  const index_t dim = t.dim();
  const index_t leaf = t.leaf_level();
  index_t rank = 1;
  for (index_t d = 0; d < dim; ++d) rank *= q;

  // Grids for every node, level-major.
  std::vector<std::vector<ChebGrid>> grids(static_cast<size_t>(t.num_levels()));
  for (index_t l = 0; l < t.num_levels(); ++l) {
    grids[static_cast<size_t>(l)].resize(static_cast<size_t>(t.nodes_at(l)));
    for (index_t i = 0; i < t.nodes_at(l); ++i) {
      grids[static_cast<size_t>(l)][static_cast<size_t>(i)] = grid_of_box(t.box(l, i), q);
      a.ranks[static_cast<size_t>(l)][static_cast<size_t>(i)] = rank;
    }
  }

  // Leaf bases: U(p, m) = tensor Lagrange basis m at point p.
  for (index_t i = 0; i < t.nodes_at(leaf); ++i) {
    const ChebGrid& g = grids[static_cast<size_t>(leaf)][static_cast<size_t>(i)];
    Matrix u(t.size(leaf, i), rank);
    for (index_t p = 0; p < t.size(leaf, i); ++p) {
      real_t x[3] = {0, 0, 0};
      for (index_t d = 0; d < dim; ++d) x[d] = t.coord_permuted(t.begin(leaf, i) + p, d);
      for (index_t m = 0; m < rank; ++m) u(p, m) = g.basis(m, x);
    }
    a.basis[static_cast<size_t>(leaf)].stage(i, std::move(u));
  }

  // Transfer matrices: child grid points interpolated in the parent's basis.
  for (index_t l = leaf - 1; l >= 0; --l) {
    for (index_t i = 0; i < t.nodes_at(l); ++i) {
      const ChebGrid& parent = grids[static_cast<size_t>(l)][static_cast<size_t>(i)];
      Matrix tr(2 * rank, rank);
      for (int side = 0; side < 2; ++side) {
        const ChebGrid& child = grids[static_cast<size_t>(l + 1)][static_cast<size_t>(2 * i + side)];
        for (index_t mc = 0; mc < rank; ++mc) {
          real_t x[3] = {0, 0, 0};
          child.point(mc, x);
          for (index_t mp = 0; mp < rank; ++mp)
            tr(side * rank + mc, mp) = parent.basis(mp, x);
        }
      }
      a.basis[static_cast<size_t>(l)].stage(i, std::move(tr));
    }
  }

  // Every node's grid points, appended after the tree's N points: node i at
  // level l holds the extended positions N + (2^l - 1 + i) * rank + [0, rank).
  const index_t num_nodes = 2 * t.nodes_at(leaf) - 1;
  std::vector<real_t> grid_pts(static_cast<size_t>(num_nodes * rank * dim));
  std::vector<index_t> grid_pos(static_cast<size_t>(num_nodes * rank));
  std::iota(grid_pos.begin(), grid_pos.end(), t.num_points());
  const auto first = [&](index_t l, index_t i) { return (t.nodes_at(l) - 1 + i) * rank; };
  for (index_t l = 0; l < t.num_levels(); ++l)
    for (index_t i = 0; i < t.nodes_at(l); ++i)
      for (index_t m = 0; m < rank; ++m)
        grids[static_cast<size_t>(l)][static_cast<size_t>(i)].point(
            m, &grid_pts[static_cast<size_t>((first(l, i) + m) * dim)]);
  const auto grid = [&](index_t l, index_t i) {
    return const_index_span(grid_pos).subspan(static_cast<size_t>(first(l, i)),
                                              static_cast<size_t>(rank));
  };
  const kern::KernelEntryGenerator gen(t, kernel, grid_pts);

  // Coupling blocks, the kernel between two grids, one per mirrored pair
  // (s < c; the (c, s) slot stays 0 x 0), and the near field, exact kernel
  // entries: evaluated on the pool, then staged in order.
  struct Block {
    backend::BlockArena* arena;
    index_t slot;
    const_index_span rows, cols;
  };
  std::vector<Block> blocks;
  for (index_t l = 0; l < t.num_levels(); ++l) {
    const auto& far = a.mtree.far[static_cast<size_t>(l)];
    for (index_t s = 0; s < t.nodes_at(l); ++s)
      for (index_t j = 0; j < far.row_count(s); ++j)
        if (s < far.col_at(s, j))
          blocks.push_back({&a.coupling[static_cast<size_t>(l)],
                            far.row_ptr[static_cast<size_t>(s)] + j, grid(l, s),
                            grid(l, far.col_at(s, j))});
  }
  const auto& near = a.mtree.near_leaf;
  for (index_t s = 0; s < t.nodes_at(leaf); ++s)
    for (index_t j = 0; j < near.row_count(s); ++j)
      blocks.push_back({&a.dense, near.row_ptr[static_cast<size_t>(s)] + j,
                        t.positions(leaf, s), t.positions(leaf, near.col_at(s, j))});
  std::vector<Matrix> values(blocks.size());
  parallel_for(static_cast<index_t>(blocks.size()), [&](index_t b) {
    const Block& blk = blocks[static_cast<size_t>(b)];
    Matrix& m = values[static_cast<size_t>(b)];
    m = Matrix(static_cast<index_t>(blk.rows.size()), static_cast<index_t>(blk.cols.size()));
    gen.generate_block(blk.rows, blk.cols, m.view());
  });
  for (size_t b = 0; b < blocks.size(); ++b)
    blocks[b].arena->stage(blocks[b].slot, std::move(values[b]));

  // Host-side writer: commit each staged arena to the process default
  // device (one allocation + upload per level; mirrors stay warm).
  backend::DeviceBackend& dev = *backend::default_backend().device;
  for (auto& lvl : a.basis) lvl.commit(dev);
  for (auto& lvl : a.coupling) lvl.commit(dev);
  a.dense.commit(dev);

  a.validate();
  return a;
}

} // namespace h2sketch::h2
