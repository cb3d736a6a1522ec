#include "h2/h2_matrix.hpp"

#include "backend/registry.hpp"

namespace h2sketch::h2 {

void H2Matrix::init_structure() {
  H2S_CHECK(tree != nullptr, "H2Matrix: tree not set");
  const index_t levels = tree->num_levels();
  ranks.assign(static_cast<size_t>(levels), {});
  basis = std::vector<backend::BlockArena>(static_cast<size_t>(levels));
  coupling = std::vector<backend::BlockArena>(static_cast<size_t>(levels));
  skeleton.assign(static_cast<size_t>(levels), {});
  for (index_t l = 0; l < levels; ++l) {
    const auto nodes = static_cast<size_t>(tree->nodes_at(l));
    ranks[static_cast<size_t>(l)].assign(nodes, 0);
    basis[static_cast<size_t>(l)].reset(tree->nodes_at(l));
    skeleton[static_cast<size_t>(l)].assign(nodes, {});
    coupling[static_cast<size_t>(l)].reset(mtree.far[static_cast<size_t>(l)].count());
  }
  dense.reset(mtree.near_leaf.count());
}

H2Matrix::CouplingRef H2Matrix::coupling_ref(index_t level, index_t r, index_t c) const {
  const auto& far = mtree.far[static_cast<size_t>(level)];
  if (r < c) return {far.find(r, c), la::Op::None};
  return {far.find(c, r), la::Op::Trans};
}

void H2Matrix::coupling_operands(index_t level, std::vector<ConstMatrixView>& blocks,
                                 std::vector<la::Op>& ops) const {
  const auto& far = mtree.far[static_cast<size_t>(level)];
  blocks.clear();
  ops.clear();
  for (index_t r = 0; r < tree->nodes_at(level); ++r)
    for (index_t j = 0; j < far.row_count(r); ++j) {
      const CouplingRef ref = coupling_ref(level, r, far.col_at(r, j));
      blocks.push_back(coupling[static_cast<size_t>(level)].dev(ref.slot));
      ops.push_back(ref.op);
    }
}

index_t H2Matrix::min_rank() const {
  index_t mn = -1;
  for (index_t l = 0; l < num_levels(); ++l) {
    if (mtree.far[static_cast<size_t>(l)].count() == 0) continue;
    for (index_t i = 0; i < tree->nodes_at(l); ++i) {
      if (mtree.far[static_cast<size_t>(l)].row_count(i) == 0) continue;
      const index_t r = rank(l, i);
      mn = mn < 0 ? r : std::min(mn, r);
    }
  }
  return mn < 0 ? 0 : mn;
}

index_t H2Matrix::max_rank() const {
  index_t mx = 0;
  for (index_t l = 0; l < num_levels(); ++l)
    for (index_t i = 0; i < tree->nodes_at(l); ++i) mx = std::max(mx, rank(l, i));
  return mx;
}

std::size_t H2Matrix::memory_bytes() const {
  std::size_t bytes = 0;
  for (const auto& lvl : basis) bytes += lvl.payload_bytes();
  for (const auto& lvl : coupling) bytes += lvl.payload_bytes();
  bytes += dense.payload_bytes();
  for (const auto& lvl : skeleton)
    for (const auto& s : lvl) bytes += s.size() * sizeof(index_t);
  return bytes;
}

std::size_t H2Matrix::device_bytes() const {
  std::size_t bytes = 0;
  for (const auto& lvl : basis) bytes += lvl.device_bytes();
  for (const auto& lvl : coupling) bytes += lvl.device_bytes();
  bytes += dense.device_bytes();
  return bytes;
}

std::shared_ptr<backend::DeviceBackend> H2Matrix::storage_backend() const {
  for (const auto& lvl : basis)
    if (lvl.allocated()) return lvl.backend_ptr();
  if (dense.allocated()) return dense.backend_ptr();
  for (const auto& lvl : coupling)
    if (lvl.allocated()) return lvl.backend_ptr();
  return nullptr;
}

backend::ExecutionConfig H2Matrix::execution_config() const {
  if (auto dev = storage_backend()) return {std::move(dev), backend::LaunchMode::Batched};
  return backend::default_backend();
}

void H2Matrix::validate() const {
  H2S_CHECK(tree != nullptr, "H2Matrix: tree not set");
  const index_t levels = num_levels();
  const index_t leaf = leaf_level();
  for (index_t l = 0; l < levels; ++l) {
    const auto ul = static_cast<size_t>(l);
    H2S_CHECK(static_cast<index_t>(ranks[ul].size()) == tree->nodes_at(l),
              "rank array size mismatch at level " << l);
    for (index_t i = 0; i < tree->nodes_at(l); ++i) {
      const auto ui = static_cast<size_t>(i);
      const index_t r = ranks[ul][ui];
      if (l == leaf) {
        if (r > 0)
          H2S_CHECK(basis[ul].rows(i) == tree->size(l, i) && basis[ul].cols(i) == r,
                    "leaf basis dims mismatch at node " << i);
      } else if (r > 0) {
        const index_t child_rows = rank(l + 1, 2 * i) + rank(l + 1, 2 * i + 1);
        H2S_CHECK(basis[ul].rows(i) == child_rows && basis[ul].cols(i) == r,
                  "transfer dims mismatch at level " << l << " node " << i);
      }
      if (!skeleton[ul][ui].empty())
        H2S_CHECK(static_cast<index_t>(skeleton[ul][ui].size()) == r,
                  "skeleton size != rank at level " << l << " node " << i);
    }
    // Coupling blocks match the CSR far list and the node ranks; each
    // mirrored pair keeps its block in the r < c entry only.
    const auto& far = mtree.far[ul];
    H2S_CHECK(coupling[ul].count() == far.count(), "coupling count mismatch at level " << l);
    for (index_t rnode = 0; rnode < tree->nodes_at(l); ++rnode)
      for (index_t j = 0; j < far.row_count(rnode); ++j) {
        const index_t e = far.row_ptr[static_cast<size_t>(rnode)] + j;
        const index_t cnode = far.col[static_cast<size_t>(e)];
        H2S_CHECK(rnode != cnode && far.find(cnode, rnode) >= 0,
                  "far pair (" << rnode << ", " << cnode << ") at level " << l
                               << " has no mirror");
        const bool stored = rnode < cnode;
        H2S_CHECK(coupling[ul].rows(e) == (stored ? rank(l, rnode) : 0) &&
                      coupling[ul].cols(e) == (stored ? rank(l, cnode) : 0),
                  "coupling dims mismatch at level " << l << " entry " << e);
      }
  }
  const auto& near = mtree.near_leaf;
  H2S_CHECK(dense.count() == near.count(), "dense count mismatch");
  for (index_t rnode = 0; rnode < tree->nodes_at(leaf); ++rnode)
    for (index_t j = 0; j < near.row_count(rnode); ++j) {
      const index_t e = near.row_ptr[static_cast<size_t>(rnode)] + j;
      const index_t cnode = near.col[static_cast<size_t>(e)];
      H2S_CHECK(dense.rows(e) == tree->size(leaf, rnode) &&
                    dense.cols(e) == tree->size(leaf, cnode),
                "dense dims mismatch at entry " << e);
    }
}

} // namespace h2sketch::h2
