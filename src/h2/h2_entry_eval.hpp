#pragma once

#include "h2/h2_matrix.hpp"
#include "kernels/entry_gen.hpp"

/// \file h2_entry_eval.hpp
/// Block evaluation of an already-constructed H2 matrix: the batchedGen of
/// the paper's third application (recompression of an H2 matrix plus a
/// low-rank update), where entries must come from the existing H2
/// representation rather than a kernel.
///
/// Each request K(rows, cols) is resolved once against the matrix tree: the
/// deepest common ancestors of its row and column leaves, then the far lists
/// from that level up to the root, give the one block covering the request.
///  * Inadmissible leaf pair: a gathered copy of the dense block D.
///  * Coupling block B_{s,t} at level l:
///      out = U_s(rows, :) * B_{s,t} * U_t(cols, :)^T,
///    two gemms, with U_s(rows, :) built by gathering the leaf-basis rows
///    and climbing the transfer chain of Eq. (2) up to level l (one gemm per
///    child run per level). For s > t only B_{t,s} is stored; the request
///    is evaluated as U_t(cols, :) * B_{t,s} * U_s(rows, :)^T and written
///    out transposed, so both triangles carry the same bits.
///  * A request that crosses a subdivided pair is split by child and its
///    parts resolved the same way.
///
/// Operands are read through the arenas' host mirrors: one read of D or B
/// per request, plus one basis read per tree node holding requested
/// positions below B. The matrix must not change while a generator reads
/// it: the mirrors are cached on first access.

namespace h2sketch::h2 {

class H2EntryGenerator final : public kern::EntryGenerator {
 public:
  /// The H2 matrix must outlive the generator.
  explicit H2EntryGenerator(const H2Matrix& a);

  /// Evaluate a single (permuted) entry.
  real_t entry(index_t i, index_t j) const;

  void generate_block(const_index_span rows, const_index_span cols, MatrixView out) const override;

 private:
  /// out = A(rows, cols) for a non-empty request.
  void eval(const_index_span rows, const_index_span cols, MatrixView out) const;

  /// U_s(pos, :) in request order, where s is the node at `level` holding
  /// every position in `pos`.
  Matrix basis_rows(index_t level, const_index_span pos) const;

  const H2Matrix* a_;
  std::vector<index_t> leaf_of_; ///< permuted position -> leaf node index
};

} // namespace h2sketch::h2
