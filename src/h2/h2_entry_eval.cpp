#include "h2/h2_entry_eval.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

#include "la/blas.hpp"

namespace h2sketch::h2 {

namespace {

/// A cluster tree node.
struct Node {
  index_t level;
  index_t index;
};

/// Deepest common ancestor of the leaves holding the (non-empty) `pos`.
Node common_ancestor(const std::vector<index_t>& leaf_of, index_t leaf, const_index_span pos) {
  index_t lo = leaf_of[static_cast<size_t>(pos[0])], hi = lo;
  for (index_t p : pos) {
    lo = std::min(lo, leaf_of[static_cast<size_t>(p)]);
    hi = std::max(hi, leaf_of[static_cast<size_t>(p)]);
  }
  const auto up = static_cast<index_t>(std::bit_width(static_cast<std::uint64_t>(lo ^ hi)));
  return {leaf - up, lo >> up};
}

/// A run of sorted positions [first, first + count) under one node.
struct Run {
  index_t node;
  index_t first;
  index_t count;
};

} // namespace

H2EntryGenerator::H2EntryGenerator(const H2Matrix& a) : a_(&a) {
  const tree::ClusterTree& t = *a.tree;
  const index_t leaf = t.leaf_level();
  leaf_of_.resize(static_cast<size_t>(t.num_points()));
  for (index_t i = 0; i < t.nodes_at(leaf); ++i)
    for (index_t p = t.begin(leaf, i); p < t.end(leaf, i); ++p)
      leaf_of_[static_cast<size_t>(p)] = i;
}

real_t H2EntryGenerator::entry(index_t i, index_t j) const {
  std::vector<index_t> one_i = {i}, one_j = {j};
  Matrix out(1, 1);
  generate_block(one_i, one_j, out.view());
  return out(0, 0);
}

void H2EntryGenerator::generate_block(const_index_span rows, const_index_span cols,
                                      MatrixView out) const {
  H2S_CHECK(out.rows == static_cast<index_t>(rows.size()) &&
                out.cols == static_cast<index_t>(cols.size()),
            "generate_block: shape mismatch");
  if (!out.empty()) eval(rows, cols, out);
  record_entries(out.rows * out.cols);
}

void H2EntryGenerator::eval(const_index_span rows, const_index_span cols, MatrixView out) const {
  const tree::ClusterTree& t = *a_->tree;
  const index_t leaf = t.leaf_level();
  const Node rn = common_ancestor(leaf_of_, leaf, rows);
  const Node cn = common_ancestor(leaf_of_, leaf, cols);
  const index_t l0 = std::min(rn.level, cn.level);
  const index_t s = rn.index >> (rn.level - l0), c = cn.index >> (cn.level - l0);

  // Inadmissible leaf pair: copy from D.
  if (l0 == leaf) {
    const index_t e = a_->mtree.near_leaf.find(s, c);
    if (e >= 0) {
      const Matrix& d = a_->dense.host(e);
      const index_t r0 = t.begin(leaf, s), c0 = t.begin(leaf, c);
      for (index_t jj = 0; jj < out.cols; ++jj) {
        const real_t* dcol = d.data() + (cols[static_cast<size_t>(jj)] - c0) * d.rows();
        for (index_t ii = 0; ii < out.rows; ++ii)
          out(ii, jj) = dcol[rows[static_cast<size_t>(ii)] - r0];
      }
      return;
    }
  }
  // Admissible: the first far block on the way up covers the whole request.
  // A mirrored pair is evaluated from its stored block in the stored
  // orientation, U_c(cols) B_{c,s} U_s(rows)^T, and transposed out, so the
  // two triangles of the result agree bit for bit.
  for (index_t l = l0; l >= 0; --l) {
    const index_t up = l0 - l;
    const H2Matrix::CouplingRef ref = a_->coupling_ref(l, s >> up, c >> up);
    if (ref.slot < 0) continue;
    const bool mirrored = ref.op == la::Op::Trans;
    const Matrix& b = a_->coupling[static_cast<size_t>(l)].host(ref.slot);
    const Matrix u = basis_rows(l, mirrored ? cols : rows);
    const Matrix v = basis_rows(l, mirrored ? rows : cols);
    Matrix ub(u.rows(), b.cols());
    la::gemm(1.0, u.view(), la::Op::None, b.view(), la::Op::None, 0.0, ub.view());
    if (!mirrored) {
      la::gemm(1.0, ub.view(), la::Op::None, v.view(), la::Op::Trans, 0.0, out);
      return;
    }
    Matrix outt(out.cols, out.rows);
    la::gemm(1.0, ub.view(), la::Op::None, v.view(), la::Op::Trans, 0.0, outt.view());
    copy_transposed(outt.view(), out);
    return;
  }
  H2S_CHECK(l0 < leaf, "H2 entry (" << rows[0] << "," << cols[0] << ") not covered by any block");

  // A subdivided pair: split both sides by child at level l0 + 1 (a side
  // already inside one child keeps one half), evaluate the parts and
  // scatter them back.
  const index_t shift = leaf - l0 - 1;
  const auto halves = [&](const_index_span pos) {
    std::array<std::vector<index_t>, 2> h;
    for (size_t q = 0; q < pos.size(); ++q)
      h[static_cast<size_t>((leaf_of_[static_cast<size_t>(pos[q])] >> shift) & 1)].push_back(
          static_cast<index_t>(q));
    return h;
  };
  const auto rh = halves(rows);
  const auto ch = halves(cols);
  for (const auto& ri : rh) {
    if (ri.empty()) continue;
    std::vector<index_t> rp(ri.size());
    for (size_t q = 0; q < ri.size(); ++q) rp[q] = rows[static_cast<size_t>(ri[q])];
    for (const auto& ci : ch) {
      if (ci.empty()) continue;
      std::vector<index_t> cp(ci.size());
      for (size_t q = 0; q < ci.size(); ++q) cp[q] = cols[static_cast<size_t>(ci[q])];
      Matrix part(static_cast<index_t>(rp.size()), static_cast<index_t>(cp.size()));
      eval(rp, cp, part.view());
      for (index_t jj = 0; jj < part.cols(); ++jj)
        for (index_t ii = 0; ii < part.rows(); ++ii)
          out(ri[static_cast<size_t>(ii)], ci[static_cast<size_t>(jj)]) = part(ii, jj);
    }
  }
}

Matrix H2EntryGenerator::basis_rows(index_t level, const_index_span pos) const {
  const tree::ClusterTree& t = *a_->tree;
  const index_t leaf = t.leaf_level();
  const auto n = static_cast<index_t>(pos.size());
  // Sorted by position, the rows under any node form one contiguous run.
  std::vector<index_t> order(pos.size());
  std::iota(order.begin(), order.end(), index_t{0});
  std::sort(order.begin(), order.end(), [&](index_t x, index_t y) {
    return pos[static_cast<size_t>(x)] < pos[static_cast<size_t>(y)];
  });
  const auto pos_at = [&](index_t q) {
    return pos[static_cast<size_t>(order[static_cast<size_t>(q)])];
  };

  std::vector<Run> runs;
  for (index_t q = 0; q < n; ++q) {
    const index_t node = leaf_of_[static_cast<size_t>(pos_at(q))];
    if (runs.empty() || runs.back().node != node) runs.push_back({node, q, 0});
    ++runs.back().count;
  }
  const auto widest = [&](index_t l, const std::vector<Run>& rs) {
    index_t w = 0;
    for (const Run& r : rs) w = std::max(w, a_->rank(l, r.node));
    return w;
  };

  // Leaf level: gather the rows of U_leaf.
  Matrix cur(n, widest(leaf, runs));
  for (const Run& r : runs) {
    const Matrix& u = a_->basis[static_cast<size_t>(leaf)].host(r.node);
    const index_t b = t.begin(leaf, r.node);
    for (index_t k = 0; k < u.cols(); ++k)
      for (index_t q = r.first; q < r.first + r.count; ++q) cur(q, k) = u(pos_at(q) - b, k);
  }
  // Climb: rows under child run c of parent p become R_c * E_c, where E_c is
  // c's block of p's stacked transfer.
  for (index_t l = leaf - 1; l >= level; --l) {
    std::vector<Run> up;
    for (const Run& r : runs) {
      if (up.empty() || up.back().node != r.node / 2) up.push_back({r.node / 2, r.first, 0});
      up.back().count += r.count;
    }
    Matrix next(n, widest(l, up));
    auto child = runs.begin();
    for (const Run& p : up) {
      const Matrix& e = a_->basis[static_cast<size_t>(l)].host(p.node);
      const index_t r_left = a_->rank(l + 1, 2 * p.node);
      for (; child != runs.end() && child->node / 2 == p.node; ++child) {
        const index_t rc = a_->rank(l + 1, child->node);
        la::gemm(1.0, cur.block(child->first, 0, child->count, rc), la::Op::None,
                 e.block(child->node % 2 == 0 ? 0 : r_left, 0, rc, e.cols()), la::Op::None, 0.0,
                 next.block(child->first, 0, child->count, e.cols()));
      }
    }
    cur = std::move(next);
    runs = std::move(up);
  }

  // Back to request order.
  Matrix rows_of_u(n, cur.cols());
  for (index_t k = 0; k < cur.cols(); ++k)
    for (index_t q = 0; q < n; ++q) rows_of_u(order[static_cast<size_t>(q)], k) = cur(q, k);
  return rows_of_u;
}

} // namespace h2sketch::h2
