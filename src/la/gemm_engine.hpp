#pragma once

#include "common/matrix.hpp"
#include "common/types.hpp"
#include "la/blas.hpp"

/// \file gemm_engine.hpp
/// The two GEMM implementations:
///
///  * `la::gemm` (blas.hpp), the one library path: unpacked register tiles.
///    C is cut into MR x 4 tiles held in explicit vector types — 32 rows of
///    8-wide vectors on AVX-512, 8 rows of 4-wide on AVX2, 4 rows of 2-wide
///    on the baseline ISA — and A and B are read in place; nt only swaps
///    B's strides, while tn, tt, row tails and long inner dimensions stage
///    op(A)'s tile rows in a small aligned buffer. Every entry of C runs the
///    same instruction sequence wherever it sits in the tiling, and the ISA
///    clone is selected once per process, so results depend on shape and
///    ISA only: bitwise identical across thread counts and backends.
///  * `gemm_naive`: straight triple loops, kept as the fuzz suite's oracle
///    and bench_gemm's baseline. No library path calls it.
///
/// Both propagate NaN and Inf (no zero skips); `alpha == 0` reads neither A
/// nor B and `beta == 0` does not read C. The batched backend and BSR
/// products inherit all of this through `la::gemm`, matching the paper's
/// CPU design of OpenMP loops around fast single-threaded BLAS.

namespace h2sketch::la {

/// Tile grid of `gemm_parallel`: row panels of kGemmMC rows by column
/// panels of kGemmNC columns of C.
inline constexpr index_t kGemmMC = 128;
inline constexpr index_t kGemmNC = 2048;

/// The scalar reference: C = alpha * op(A) * op(B) + beta * C as straight
/// triple loops. The correctness oracle of the fuzz suite and the baseline of
/// bench_gemm; no library path dispatches to it.
void gemm_naive(real_t alpha, ConstMatrixView a, Op op_a, ConstMatrixView b, Op op_b, real_t beta,
                MatrixView c);

} // namespace h2sketch::la
