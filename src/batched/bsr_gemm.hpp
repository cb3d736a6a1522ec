#pragma once

#include <span>
#include <vector>

#include "batched/device.hpp"
#include "la/blas.hpp"

/// \file bsr_gemm.hpp
/// Non-uniform batched block-sparse-row matrix multiplication — the paper's
/// batchedBSRGemm (§IV-A). Given a CSR block pattern over the nodes of a
/// level and a read op per block, computes
///     y[r] += alpha * sum_j  op_e(blocks[e]) * x[col(e)],   e = ptr(r)+j,
/// as one launch: batch entry r owns y[r] and adds row r's blocks in CSR
/// order inside one task, so no two entries write the same output and no
/// atomics are needed. Those are the additions, in the order, of the Csp
/// sub-launches the paper issues (sub-launch k takes the k-th block of every
/// row), so every bit matches them; the product waits on one stream barrier
/// instead of Csp. On a GPU the same launch runs one thread block per row.
/// An entry's cost is its row's summed m*n*k, so the launch's cost-balanced
/// chunks split heavy rows from light ones.
///
/// The per-block op is how a symmetric operator reads the lower triangle of
/// its coupling from the stored upper one: H2Matrix keeps B_{s,t} for s < t
/// only and passes it with la::Op::Trans for the mirrored (t, s) entry.
///
/// The launch lands on the caller's stream, so it is FIFO-ordered with the
/// other launches of its pipeline and overlaps work on other streams.

namespace h2sketch::batched {

/// Stream form: the CSR pattern and view vectors are moved into the launch;
/// underlying buffers must stay alive until the stream is synced. A pattern
/// with no blocks issues no launch.
void bsr_gemm(ExecutionContext& ctx, StreamId stream, real_t alpha,
              std::vector<index_t> row_ptr, std::vector<index_t> col,
              std::vector<ConstMatrixView> blocks, std::vector<la::Op> ops,
              std::vector<ConstMatrixView> x, std::vector<MatrixView> y);

/// Synchronous form: completed on return.
void bsr_gemm(ExecutionContext& ctx, real_t alpha, const_index_span row_ptr,
              const_index_span col, std::span<const ConstMatrixView> blocks,
              std::span<const la::Op> ops, std::span<const ConstMatrixView> x,
              std::span<const MatrixView> y);

} // namespace h2sketch::batched
