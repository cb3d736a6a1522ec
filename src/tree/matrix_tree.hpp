#pragma once

#include <vector>

#include "tree/admissibility.hpp"
#include "tree/cluster_tree.hpp"

/// \file matrix_tree.hpp
/// The matrix tree (paper §II-A, Fig. 2): the block partitioning produced by
/// a dual traversal of the cluster tree under an admissibility condition.
/// Per level we keep the admissible (far-field, B-coupled) pairs; at the
/// leaf level also the inadmissible (near-field, dense D) pairs. Each level's
/// pair list is a block-sparse-row (BSR) structure over the level's nodes —
/// the object batchedBSRGemm operates on.

namespace h2sketch::tree {

/// CSR-like list of (row node, col node) pairs at one level, sorted by row
/// then column. Rows index nodes within the level (0 .. 2^level-1).
struct LevelBlockList {
  std::vector<index_t> row_ptr; ///< size nodes_at_level + 1
  std::vector<index_t> col;     ///< column node ids, grouped by row

  index_t count() const { return static_cast<index_t>(col.size()); }
  index_t row_count(index_t r) const {
    return row_ptr[static_cast<size_t>(r + 1)] - row_ptr[static_cast<size_t>(r)];
  }
  /// Largest number of blocks in any row: this level's sparsity constant.
  index_t max_row_count() const;
  /// The j-th column in row r (j < row_count(r)).
  index_t col_at(index_t r, index_t j) const {
    return col[static_cast<size_t>(row_ptr[static_cast<size_t>(r)] + j)];
  }
  /// Entry index of the pair (r, c), or -1 if the list does not hold it.
  index_t find(index_t r, index_t c) const;
  bool empty() const { return col.empty(); }
};

/// The full block partitioning: far lists per level plus the leaf-level
/// near list.
struct MatrixTree {
  index_t num_levels = 0;
  std::vector<LevelBlockList> far; ///< far[l]: admissible pairs formed at level l
  /// near[l]: *inadmissible* pairs visited at level l by the dual traversal
  /// (recursed further, or stored dense at the leaf). Top-down peeling
  /// constructions need these to know which columns pollute a block row.
  std::vector<LevelBlockList> near;
  LevelBlockList near_leaf; ///< == near[leaf level]: the dense blocks

  /// Build by dual tree traversal of `tree` under `adm`.
  static MatrixTree build(const ClusterTree& tree, const Admissibility& adm);

  /// Measured sparsity constant Csp: max blocks per row over all levels
  /// (far lists) and the leaf near list.
  index_t csp() const;

  /// Total number of admissible blocks across levels.
  index_t total_far_blocks() const;

  /// True if any admissible block exists (false for single-node trees or
  /// tiny problems that stay fully dense).
  bool has_any_far() const;
};

} // namespace h2sketch::tree
