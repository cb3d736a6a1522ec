#pragma once

#include <memory>
#include <vector>

#include "backend/block_arena.hpp"
#include "common/matrix.hpp"
#include "la/blas.hpp"
#include "tree/matrix_tree.hpp"

/// \file h2_matrix.hpp
/// The H2 matrix data structure (paper §II-A, Figs. 1-3): nested cluster
/// bases stored level by level.
///
///  * Leaf nodes store explicit bases U_tau (n_tau x r_tau).
///  * Inner nodes store stacked transfer matrices [E_left; E_right]
///    ((r_left + r_right) x r_tau), implicitly defining
///    U_tau = diag(U_left, U_right) [E_left; E_right]  (Eq. (2)).
///  * Each admissible pair (s, t) at its level couples through
///    B_{s,t} (r_s x r_t); each inadmissible leaf pair stores a dense block.
///
/// The matrix is symmetric (V = U, B_{t,s} = B_{s,t}^T). Each mirrored far
/// pair is stored once: the (s, t) entry of `mtree.far[l]` with s < t holds
/// B_{s,t}, and the (t, s) entry keeps its CSR position with a 0 x 0 slot;
/// readers find the stored block with one `LevelBlockList::find` and read it
/// transposed (`coupling_ref`). The near field keeps both triangles. All
/// blocks are indexed in the cluster tree's permuted position space,
/// following the matrix tree's CSR lists.
///
/// An HSS matrix is the H2Matrix of a weak-admissibility build: one far
/// entry per sibling pair at every level below the root (coupling entry 2p
/// holds B_{2p,2p+1}) and the leaf diagonals as the only near blocks. The
/// ULV factorization (solver/ulv.hpp) reads exactly that pattern.
///
/// Storage is **device-resident**: each per-level family of blocks lives
/// packed in one `backend::BlockArena` (one DeviceBuffer per level per
/// kind), so the matvec reads operands in place and steady-state per-apply
/// host<->device traffic is just the x upload and y download. Host-side
/// consumers (densify, io, entry evaluation) go through the arenas' lazy
/// `host(i)` mirrors. The matrix is move-only and pinned to the backend it
/// was built on (`execution_config()`).

namespace h2sketch::batched {
class ExecutionContext;
} // namespace h2sketch::batched

namespace h2sketch::h2 {

class H2Matrix {
 public:
  std::shared_ptr<const tree::ClusterTree> tree; ///< cluster geometry
  tree::MatrixTree mtree;                        ///< block partitioning

  /// ranks[l][i]: basis rank of node i at level l.
  std::vector<std::vector<index_t>> ranks;

  /// basis[l], slot i: at the leaf level, U_i (cluster_size x rank). At
  /// inner levels, the stacked transfer [E_left; E_right]
  /// ((rank(l+1,2i) + rank(l+1,2i+1)) x rank(l,i)).
  std::vector<backend::BlockArena> basis;

  /// coupling[l], slot e: B for the e-th CSR entry (r, c) of mtree.far[l]
  /// when r < c; a 0 x 0 slot when r > c (the block is the stored
  /// B_{c,r}^T, see coupling_ref).
  std::vector<backend::BlockArena> coupling;

  /// Slot e: D for the e-th CSR entry of mtree.near_leaf.
  backend::BlockArena dense;

  /// skeleton[l][i]: permuted positions selected as skeleton indices for
  /// node i at level l (size == ranks[l][i]). Produced by sketching
  /// construction; interpolation-based constructions leave it empty.
  std::vector<std::vector<std::vector<index_t>>> skeleton;

  index_t size() const { return tree ? tree->num_points() : 0; }
  index_t num_levels() const { return tree ? tree->num_levels() : 0; }
  index_t leaf_level() const { return tree->leaf_level(); }

  index_t rank(index_t level, index_t node) const {
    return ranks[static_cast<size_t>(level)][static_cast<size_t>(node)];
  }

  /// Allocate empty per-level containers sized to the trees.
  void init_structure();

  /// Where the block of far pair (r, c) at `level` is stored: the coupling
  /// slot and the op that reads B_{r,c} from it (la::Op::None for r < c,
  /// la::Op::Trans on the (c, r) slot for r > c). slot is -1 when (r, c) is
  /// not a far pair of the level.
  struct CouplingRef {
    index_t slot;
    la::Op op;
  };
  CouplingRef coupling_ref(index_t level, index_t r, index_t c) const;

  /// Device views and read ops of every far entry at `level`, in CSR order:
  /// the operands of the level's coupling bsr_gemm.
  void coupling_operands(index_t level, std::vector<ConstMatrixView>& blocks,
                         std::vector<la::Op>& ops) const;

  /// y = A * x through h2_matvec (h2_matvec.hpp) on the caller's context.
  void matvec(batched::ExecutionContext& ctx, ConstMatrixView x, MatrixView y) const;

  /// Smallest/largest rank over all nodes at levels that carry far blocks
  /// (the paper's "rank range" in Table II).
  index_t min_rank() const;
  index_t max_rank() const;

  /// Logical payload bytes of U/E/B/D blocks plus skeleton index lists.
  std::size_t memory_bytes() const;

  /// Real device-resident bytes across all arenas (alignment padding
  /// included) — what the serving cache budgets and eviction frees.
  std::size_t device_bytes() const;

  /// Backend the arenas live on; null when nothing is allocated yet.
  std::shared_ptr<backend::DeviceBackend> storage_backend() const;

  /// Backend the arenas live on (from the first allocated arena; the
  /// process default if nothing is allocated yet). Contexts applying this
  /// matrix must share its device heap.
  backend::ExecutionConfig execution_config() const;

  /// Structural consistency: every dimension implied by ranks, cluster
  /// sizes and CSR lists must match, every far pair must have its mirror,
  /// and only the s < t entry of a mirrored pair may hold a block. Throws on
  /// violation.
  void validate() const;
};

} // namespace h2sketch::h2
