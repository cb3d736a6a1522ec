#include "tree/matrix_tree.hpp"

#include <algorithm>

namespace h2sketch::tree {

namespace {

/// Collect (row, col) pairs per level, then freeze them into CSR lists.
struct PairCollector {
  std::vector<std::vector<std::pair<index_t, index_t>>> far_pairs;
  std::vector<std::vector<std::pair<index_t, index_t>>> near_pairs_at;
};

LevelBlockList freeze(std::vector<std::pair<index_t, index_t>>& pairs, index_t nodes) {
  std::sort(pairs.begin(), pairs.end());
  LevelBlockList list;
  list.row_ptr.assign(static_cast<size_t>(nodes + 1), 0);
  list.col.reserve(pairs.size());
  for (const auto& [r, c] : pairs) {
    ++list.row_ptr[static_cast<size_t>(r + 1)];
    list.col.push_back(c);
  }
  for (index_t r = 0; r < nodes; ++r)
    list.row_ptr[static_cast<size_t>(r + 1)] += list.row_ptr[static_cast<size_t>(r)];
  return list;
}

void dual_traverse(const ClusterTree& tree, const Admissibility& adm, index_t level, index_t s,
                   index_t t, PairCollector& out) {
  const bool leaf = level == tree.leaf_level();
  if (adm.admissible(tree.box(level, s), tree.box(level, t), s == t)) {
    out.far_pairs[static_cast<size_t>(level)].emplace_back(s, t);
    return;
  }
  out.near_pairs_at[static_cast<size_t>(level)].emplace_back(s, t);
  if (leaf) return;
  for (index_t cs = 0; cs < 2; ++cs)
    for (index_t ct = 0; ct < 2; ++ct)
      dual_traverse(tree, adm, level + 1, 2 * s + cs, 2 * t + ct, out);
}

} // namespace

index_t LevelBlockList::max_row_count() const {
  index_t mx = 0;
  for (size_t r = 0; r + 1 < row_ptr.size(); ++r)
    mx = std::max(mx, row_ptr[r + 1] - row_ptr[r]);
  return mx;
}

index_t LevelBlockList::find(index_t r, index_t c) const {
  const auto begin = col.begin() + row_ptr[static_cast<size_t>(r)];
  const auto end = col.begin() + row_ptr[static_cast<size_t>(r + 1)];
  const auto it = std::lower_bound(begin, end, c);
  return it != end && *it == c ? static_cast<index_t>(it - col.begin()) : -1;
}

MatrixTree MatrixTree::build(const ClusterTree& tree, const Admissibility& adm) {
  MatrixTree mt;
  mt.num_levels = tree.num_levels();
  PairCollector pc;
  pc.far_pairs.resize(static_cast<size_t>(mt.num_levels));
  pc.near_pairs_at.resize(static_cast<size_t>(mt.num_levels));
  dual_traverse(tree, adm, 0, 0, 0, pc);

  mt.far.resize(static_cast<size_t>(mt.num_levels));
  mt.near.resize(static_cast<size_t>(mt.num_levels));
  for (index_t l = 0; l < mt.num_levels; ++l) {
    mt.far[static_cast<size_t>(l)] = freeze(pc.far_pairs[static_cast<size_t>(l)], tree.nodes_at(l));
    mt.near[static_cast<size_t>(l)] =
        freeze(pc.near_pairs_at[static_cast<size_t>(l)], tree.nodes_at(l));
  }
  mt.near_leaf = mt.near[static_cast<size_t>(tree.leaf_level())];
  return mt;
}

index_t MatrixTree::csp() const {
  index_t mx = near_leaf.max_row_count();
  for (const auto& f : far) mx = std::max(mx, f.max_row_count());
  return mx;
}

index_t MatrixTree::total_far_blocks() const {
  index_t n = 0;
  for (const auto& f : far) n += f.count();
  return n;
}

bool MatrixTree::has_any_far() const { return total_far_blocks() > 0; }

} // namespace h2sketch::tree
