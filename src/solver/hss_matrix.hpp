#pragma once

#include <memory>
#include <vector>

#include "backend/block_arena.hpp"
#include "batched/device.hpp"
#include "common/matrix.hpp"
#include "tree/cluster_tree.hpp"

/// \file hss_matrix.hpp
/// Dedicated HSS storage: the weak-admissibility special case of H2 kept in
/// its own generator layout instead of borrowing the H2 structures. An HSS
/// matrix on a perfect binary cluster tree is fully described by
///
///  * leaf generators U_i (cluster_size x r_i) and leaf diagonal blocks D_i,
///  * inner-node transfer generators [E_left; E_right]
///    ((r_left + r_right) x r_i) defining the nested bases, and
///  * one coupling block B_p per sibling pair (2p, 2p+1) at every level:
///    the whole off-diagonal block row of a node is carried by its sibling
///    pair (coupling sparsity constant 1).
///
/// The matrix is symmetric (V = U and the (2p+1, 2p) block is B_p^T),
/// matching the symmetric-kernel convention of the rest of the library. All
/// blocks are indexed in the cluster tree's permuted position space. This is
/// the structure the ULV factorization (ulv.hpp) consumes: per-node
/// generators are exactly the panels its QL/compress-eliminate-merge sweep
/// transforms level by level.
///
/// Storage is **device-resident** (see block_arena.hpp): generators,
/// coupling blocks and leaf diagonals live packed in per-level
/// `backend::BlockArena`s, so matvec reads operands in place — steady-state
/// per-apply traffic is the x upload and y download only. Host consumers
/// (densify, expand_generator) read the lazy `host(i)` mirrors. The matrix
/// is move-only and pinned to the backend it was built on
/// (`execution_config()`).

namespace h2sketch::solver {

class HssMatrix {
 public:
  std::shared_ptr<const tree::ClusterTree> tree; ///< cluster geometry

  /// ranks[l][i]: basis rank of node i at level l (level 0 = root carries no
  /// basis; its entry stays 0).
  std::vector<std::vector<index_t>> ranks;

  /// generators[l], slot i: at the leaf level, U_i (cluster_size x rank).
  /// At inner levels >= 1, the stacked transfer [E_left; E_right]
  /// ((rank(l+1,2i) + rank(l+1,2i+1)) x rank(l,i)). Level 0 is empty.
  std::vector<backend::BlockArena> generators;

  /// coupling[l], slot p: B for the sibling pair (2p, 2p+1) at level l >= 1,
  /// i.e. K(skeleton(l,2p), skeleton(l,2p+1)). The mirrored block is B^T.
  std::vector<backend::BlockArena> coupling;

  /// Slot i: dense diagonal block D_i of leaf node i.
  backend::BlockArena leaf_diag;

  /// skeleton[l][i]: permuted positions selected as skeleton indices for
  /// node i at level l (size == ranks[l][i]).
  std::vector<std::vector<std::vector<index_t>>> skeleton;

  index_t size() const { return tree ? tree->num_points() : 0; }
  index_t num_levels() const { return tree ? tree->num_levels() : 0; }
  index_t leaf_level() const { return tree->leaf_level(); }

  index_t rank(index_t level, index_t node) const {
    return ranks[static_cast<size_t>(level)][static_cast<size_t>(node)];
  }

  /// Logical payload bytes of U/E/B/D blocks plus skeleton index lists.
  std::size_t memory_bytes() const;

  /// Real device-resident bytes across all arenas (alignment padding
  /// included) — what the serving cache budgets and eviction frees.
  std::size_t device_bytes() const;

  /// Backend the arenas live on; null when nothing is allocated yet.
  std::shared_ptr<backend::DeviceBackend> storage_backend() const;

  /// Execution configuration bound to the arenas' backend (the process
  /// default if nothing is allocated yet). Contexts applying this matrix
  /// must share its device heap.
  backend::ExecutionConfig execution_config() const;

  /// Fast O(N) matvec through the U/E/B generators: upward pass along the
  /// transfer tree, one sibling-pair coupling launch per level (B and B^T
  /// half-launches), downward pass, leaf diagonal. y = A * x with x, y
  /// (N x d) in permuted position order; all batched products dispatch
  /// through the context's device backend with device-resident
  /// coefficient panels, exactly like h2_matvec.
  void matvec(batched::ExecutionContext& ctx, ConstMatrixView x, MatrixView y) const;

  /// Convenience overload with an internal context bound to the device the
  /// arenas live on (execution_config()).
  void matvec(ConstMatrixView x, MatrixView y) const;

  /// Expanded (non-nested) basis U_tau for one node: cluster_size x rank.
  Matrix expand_generator(index_t level, index_t node) const;

  /// Full dense representation in permuted position space. O(N^2) memory;
  /// tests and error oracles only.
  Matrix densify() const;

  /// Structural consistency: every dimension implied by ranks, cluster
  /// sizes, pair lists and skeletons must match. Throws on violation.
  void validate() const;
};

} // namespace h2sketch::solver
