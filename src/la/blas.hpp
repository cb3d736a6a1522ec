#pragma once

#include "common/matrix.hpp"
#include "common/types.hpp"

/// \file blas.hpp
/// Self-contained dense BLAS-like kernels on column-major views. These are
/// the single-threaded building blocks the batched backend loops over (the
/// paper's CPU path wraps single-threaded BLAS in OpenMP loops; its GPU path
/// calls MAGMA/KBLAS batched equivalents).
///
/// `gemm` runs every product on the unpacked register tiles described in
/// gemm_engine.hpp. `trsm_upper_left` and `cholesky_solve` switch to
/// blocked substitution with gemm updates once the system/right-hand-side
/// count is large enough.
///
/// NaN/Inf contract: every gemm follows IEEE propagation — a NaN or Inf
/// in op(A) reaches C even where op(B) is zero, and vice versa. As in BLAS,
/// `alpha == 0` reads neither A nor B (C = beta * C), and `beta == 0` does
/// not read C (a NaN already in C is overwritten).

namespace h2sketch::la {

/// Transposition selector for gemm/gemv operands.
enum class Op { None, Trans };

/// Dimensions of op(A).
inline index_t op_rows(ConstMatrixView a, Op op) { return op == Op::None ? a.rows : a.cols; }
inline index_t op_cols(ConstMatrixView a, Op op) { return op == Op::None ? a.cols : a.rows; }

/// C = alpha * op(A) * op(B) + beta * C on register tiles (see
/// gemm_engine.hpp).
void gemm(real_t alpha, ConstMatrixView a, Op op_a, ConstMatrixView b, Op op_b, real_t beta,
          MatrixView c);

/// Same contract as `gemm`, with an opt-in intra-op parallel path: C is
/// tiled into row panels of kGemmMC rows and column panels of kGemmNC
/// columns, and each tile runs `gemm` concurrently on the persistent pool.
/// `gemm`'s entries do not depend on their tile, so the result is bitwise
/// identical to `gemm` for every thread count. Falls back to `gemm` when the
/// product is below 32^3 (or thinner than 4 x 8 x 8), fits one panel, or
/// the pool width is 1.
/// Intended for the few monolithic products (dense sampler applications,
/// densification, the ULV's panel updates) that a batched launch cannot
/// subdivide.
void gemm_parallel(real_t alpha, ConstMatrixView a, Op op_a, ConstMatrixView b, Op op_b,
                   real_t beta, MatrixView c);

/// y = alpha * op(A) * x + beta * y: a one-column `gemm`.
void gemv(real_t alpha, ConstMatrixView a, Op op_a, const_real_span x, real_t beta, real_span y);

/// Solve op(R) * X = B in place for upper-triangular R (unit_diag selects an
/// implicit unit diagonal). B has R.cols rows.
void trsm_upper_left(ConstMatrixView r, Op op_r, MatrixView b, bool unit_diag = false);

/// Solve op(L) * X = B in place for lower-triangular L. B has L.rows rows.
/// Blocked like trsm_upper_left: scalar substitution on kTrsmBlock diagonal
/// blocks, gemm updates in between.
void trsm_lower_left(ConstMatrixView l, Op op_l, MatrixView b, bool unit_diag = false);

/// Solve X * op(L) = B in place for lower-triangular L (the right-side
/// variant the ULV factorization needs for W = D_sz L^{-T}). B has L.rows
/// columns.
void trsm_lower_right(ConstMatrixView l, Op op_l, MatrixView b, bool unit_diag = false);

/// In-place lower Cholesky factorization A = L L^T of an SPD matrix (the
/// strict upper triangle is left untouched). Throws on a non-positive pivot.
/// Large systems run a blocked right-looking sweep (scalar diagonal factor,
/// right-side trsm panel, gemm trailing update); small ones — the batched
/// per-node blocks — stay on the scalar kernel.
void cholesky(MatrixView a);

/// Solve A X = B in place given the Cholesky factor L (lower) of A.
void cholesky_solve(ConstMatrixView l, MatrixView b);

/// Frobenius norm.
real_t norm_f(ConstMatrixView a);

/// Euclidean norm of a vector.
real_t norm2(const_real_span x);

/// Dot product.
real_t dot(const_real_span x, const_real_span y);

/// y += alpha * x.
void axpy(real_t alpha, const_real_span x, real_span y);

/// x *= alpha.
void scale(real_t alpha, real_span x);

} // namespace h2sketch::la
