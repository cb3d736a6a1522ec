#pragma once

#include <vector>

#include "batched/device.hpp"
#include "la/blas.hpp"

/// \file batched_solve.hpp
/// Non-uniform batched triangular solves and Cholesky factorizations — the
/// MAGMA/KBLAS vbatched trsm/potrf stand-ins the ULV factorization launches
/// level by level. Every entry may have different dimensions; empty entries
/// are skipped. One kernel launch per call in Batched mode, cost-chunked by
/// per-entry flop estimates so a level mixing a few large nodes with many
/// small ones load-balances.
///
/// Stream forms only: view vectors are moved into the launch and the
/// underlying buffers must stay alive until the stream is synced. Launches
/// on one stream run FIFO, so a potrf -> trsm -> gemm pipeline on the same
/// stream needs no intermediate barriers.

namespace h2sketch::batched {

/// Which side of the unknown the triangular matrix sits on in a trsm.
enum class TrsmSide { Left, Right };

/// In-place lower Cholesky a[i] = L_i L_i^T for each batch entry (the strict
/// upper triangle is left untouched). Throws (at sync) on a non-positive
/// pivot in any entry.
void batched_potrf(ExecutionContext& ctx, StreamId stream, std::vector<MatrixView> a);

/// Solve op(L_i) X_i = B_i (Left) or X_i op(L_i) = B_i (Right) in place for
/// each batch entry, lower-triangular L_i.
void batched_trsm_lower(ExecutionContext& ctx, StreamId stream, TrsmSide side, la::Op op,
                        std::vector<ConstMatrixView> l, std::vector<MatrixView> b);

} // namespace h2sketch::batched
