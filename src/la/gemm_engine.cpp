#include "la/gemm_engine.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "common/thread_pool.hpp"

namespace h2sketch::la {

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define H2S_RESTRICT __restrict__
#else
#define H2S_RESTRICT
#endif

/// C *= beta (beta == 0 clears, beta == 1 is a no-op).
void apply_beta(real_t beta, MatrixView c) {
  if (beta == 1.0) return;
  if (beta == 0.0) {
    set_all(c, 0.0);
    return;
  }
  for (index_t j = 0; j < c.cols; ++j) {
    real_t* ccol = c.data + j * c.ld;
    for (index_t i = 0; i < c.rows; ++i) ccol[i] *= beta;
  }
}

void check_gemm_shapes(ConstMatrixView a, Op op_a, ConstMatrixView b, Op op_b, MatrixView c) {
  H2S_CHECK(op_rows(a, op_a) == c.rows && op_cols(b, op_b) == c.cols &&
                op_cols(a, op_a) == op_rows(b, op_b),
            "gemm: shape mismatch (" << op_rows(a, op_a) << "x" << op_cols(a, op_a) << ") * ("
                                     << op_rows(b, op_b) << "x" << op_cols(b, op_b) << ") -> "
                                     << c.rows << "x" << c.cols);
}

// ---------------------------------------------------------------------------
// Naive reference kernels: straight triple loops, kept as the correctness
// oracle of the fuzz suite and the baseline of bench_gemm. No library path
// dispatches to them.
// ---------------------------------------------------------------------------

// C += alpha * A * B, all column-major, stride-1 inner loop over rows of C.
// No zero skips: a NaN or Inf in A reaches C even where B is zero.
void gemm_nn(real_t alpha, ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  for (index_t j = 0; j < c.cols; ++j) {
    for (index_t k = 0; k < a.cols; ++k) {
      const real_t bkj = alpha * b(k, j);
      const real_t* acol = a.data + k * a.ld;
      real_t* ccol = c.data + j * c.ld;
      for (index_t i = 0; i < c.rows; ++i) ccol[i] += acol[i] * bkj;
    }
  }
}

void gemm_tn(real_t alpha, ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  // C(i,j) += alpha * sum_k A(k,i) * B(k,j): dot of two columns, stride-1.
  for (index_t j = 0; j < c.cols; ++j) {
    const real_t* bcol = b.data + j * b.ld;
    for (index_t i = 0; i < c.rows; ++i) {
      const real_t* acol = a.data + i * a.ld;
      real_t s = 0.0;
      for (index_t k = 0; k < a.rows; ++k) s += acol[k] * bcol[k];
      c(i, j) += alpha * s;
    }
  }
}

void gemm_nt(real_t alpha, ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  // C(:,j) += alpha * sum_k A(:,k) * B(j,k)
  for (index_t j = 0; j < c.cols; ++j) {
    real_t* ccol = c.data + j * c.ld;
    for (index_t k = 0; k < a.cols; ++k) {
      const real_t bjk = alpha * b(j, k);
      const real_t* acol = a.data + k * a.ld;
      for (index_t i = 0; i < c.rows; ++i) ccol[i] += acol[i] * bjk;
    }
  }
}

void gemm_tt(real_t alpha, ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  for (index_t j = 0; j < c.cols; ++j) {
    for (index_t i = 0; i < c.rows; ++i) {
      const real_t* acol = a.data + i * a.ld;
      real_t s = 0.0;
      for (index_t k = 0; k < a.rows; ++k) s += acol[k] * b(j, k);
      c(i, j) += alpha * s;
    }
  }
}

// ---------------------------------------------------------------------------
// Register-tiled path
// ---------------------------------------------------------------------------
//
// C is cut into tiles of NV vectors of W doubles (MR = NV*W stride-1 rows)
// by NR columns. A tile keeps its MR x NR accumulators in explicit vector
// types, reads A in place one column per step and broadcasts the matching
// NR entries of op(B): for each k, NV loads, NR broadcasts, NV*NR FMAs.
// B is never packed: nt only swaps its strides. tn and tt, the row tail of
// nn and nt, and inner dimensions past kStageK first stage op(A)'s tile
// rows, zero-padded to whole vectors, in a small aligned buffer. Edge tiles
// instantiate the same body with fewer vectors or columns, so every entry
// of C sees the same instruction sequence: its value depends on its row of
// op(A), its column of op(B), alpha, beta and the process's ISA, never on
// its position, the pointers or the leading dimensions.
//
// The body is compiled once per ISA (the build's baseline and, on x86-64
// GCC/Clang, AVX2+FMA and AVX-512 clones via target attributes); one clone
// is selected per process at first use with __builtin_cpu_supports, so a
// generic -O2/-O3 build still runs wide FMA tiles on the machines that have
// them, and the choice is fixed for the process lifetime.

#if defined(__GNUC__) || defined(__clang__)
#define H2S_ALWAYS_INLINE [[gnu::always_inline]] inline
#define H2S_UNROLL _Pragma("GCC unroll 16")
typedef real_t VecBase __attribute__((vector_size(16)));
#else
#define H2S_ALWAYS_INLINE inline
#define H2S_UNROLL
using VecBase = real_t; // no vector extensions: one-lane "vectors"
#endif

/// Inner dimension up to which an in-place A tile (MR x k) stays in L1.
/// Past it, nn and nt stage A's tile rows too: read in place, a long tile
/// is re-streamed from L2 by every column tile, and a power-of-two leading
/// dimension maps all its columns to one cache set (one core,
/// 512 x 128 x 512 nn: 12 GFLOP/s in place, 34 staged).
inline constexpr index_t kStageK = 128;

/// Inner dimension up to which the stage buffer lives on the stack (MR x
/// 512 doubles, 128 KiB for the AVX-512 tile). It covers the one-column
/// solves of the ULV (k up to the rank, ~450) without a heap allocation,
/// which cost as much as their arithmetic (one core, 450 x 1 x 450 tn:
/// 165 us with the heap buffer, 105 us on the stack, 170 us naive).
inline constexpr index_t kStageStackK = 512;

/// `*out` holds src[i * stride] in lanes i < lanes and zero above. Vectors
/// are built in registers with constant lane indices and moved whole: a
/// variable-length memcpy compiles to `rep movsq` or a libc call, and
/// element stores read back as a vector stall store forwarding; either costs
/// more than a whole 32 x 1 x 32 tile.
template <typename V>
H2S_ALWAYS_INLINE void load_lanes(V* out, const real_t* src, index_t stride, index_t lanes) {
  constexpr int W = static_cast<int>(sizeof(V) / sizeof(real_t));
  if (lanes == W && stride == 1) {
    std::memcpy(out, src, sizeof(V));
  } else if constexpr (W == 1) {
    *out = src[0];
  } else {
    V x = V{};
    if (lanes == W) {
      H2S_UNROLL for (int i = 0; i < W; ++i) x[i] = src[i * stride];
    } else {
      H2S_UNROLL for (int i = 0; i < W; ++i) if (i < lanes) x[i] = src[i * stride];
    }
    *out = x;
  }
}

/// dst[i] = (*in)[i] for i < lanes.
template <typename V>
H2S_ALWAYS_INLINE void store_lanes(real_t* dst, const V* in, index_t lanes) {
  constexpr int W = static_cast<int>(sizeof(V) / sizeof(real_t));
  if (lanes == W) {
    std::memcpy(dst, in, sizeof(V));
  } else if constexpr (W > 1) {
    H2S_UNROLL for (int i = 0; i < W; ++i) if (i < lanes) dst[i] = (*in)[i];
  }
}

/// Lane e of the interleave of x and y in blocks of S lanes: the low (HI =
/// false) or high half of each 2S-lane chunk of x, then the same of y.
template <int W, int S, bool HI>
constexpr int interleave_index(int e) {
  const int c = e / (2 * S), off = e % (2 * S);
  return (off < S ? c * 2 * S + off : W + c * 2 * S + off - S) + (HI ? S : 0);
}

template <typename V, int S, bool HI, int... E>
H2S_ALWAYS_INLINE void interleave(V* out, const V& x, const V& y,
                                  std::integer_sequence<int, E...>) {
  constexpr int W = static_cast<int>(sizeof(V) / sizeof(real_t));
  *out = __builtin_shufflevector(x, y, interleave_index<W, S, HI>(E)...);
}

/// In-register W x W transpose: afterwards lane q of u[e] is what lane e of
/// u[q] was. log2(W) rounds of W two-source shuffles.
template <typename V, int S = 1>
H2S_ALWAYS_INLINE void transpose_lanes(V* u) {
  constexpr int W = static_cast<int>(sizeof(V) / sizeof(real_t));
  if constexpr (S < W) {
    using Lanes = std::make_integer_sequence<int, W>;
    H2S_UNROLL for (int q = 0; q < W; ++q) {
      if ((q / S) % 2 != 0) continue;
      V lo, hi;
      interleave<V, S, false>(&lo, u[q], u[q + S], Lanes{});
      interleave<V, S, true>(&hi, u[q], u[q + S], Lanes{});
      u[q] = lo;
      u[q + S] = hi;
    }
    transpose_lanes<V, 2 * S>(u);
  }
}

/// One MR x NC tile (MR = NV*W rows, NC <= NR columns) of
///   C = alpha * op(A) * op(B) + beta * C
/// over the full inner dimension k. `a` points at op(A)(i0, 0), stride-1 in
/// rows with column stride lda; op(B)(p, j) is b[p * bk + j * bj]. Only the
/// first `rows` rows are written back (edge tiles); `beta == 0` never reads C.
template <typename V, int NV, int NC>
H2S_ALWAYS_INLINE void gemm_tile(index_t k, const real_t* H2S_RESTRICT a, index_t lda,
                                 const real_t* H2S_RESTRICT b, index_t bk, index_t bj,
                                 real_t alpha, real_t beta, real_t* H2S_RESTRICT c, index_t ldc,
                                 index_t rows) {
  constexpr index_t W = static_cast<index_t>(sizeof(V) / sizeof(real_t));
  V acc[NC][NV];
  H2S_UNROLL for (int j = 0; j < NC; ++j)
    H2S_UNROLL for (int v = 0; v < NV; ++v) acc[j][v] = V{};
  for (index_t p = 0; p < k; ++p) {
    const real_t* H2S_RESTRICT ap = a + p * lda;
    const real_t* H2S_RESTRICT bp = b + p * bk;
    V av[NV];
    H2S_UNROLL for (int v = 0; v < NV; ++v) std::memcpy(&av[v], ap + v * W, sizeof(V));
    H2S_UNROLL for (int j = 0; j < NC; ++j) {
      const real_t bv = bp[j * bj];
      H2S_UNROLL for (int v = 0; v < NV; ++v) acc[j][v] += av[v] * bv;
    }
  }
  // Write-back. The last vector of an edge tile moves only its valid lanes
  // but runs the same vector arithmetic as a full one.
  H2S_UNROLL for (int j = 0; j < NC; ++j) {
    real_t* cj = c + j * ldc;
    H2S_UNROLL for (int v = 0; v < NV; ++v) {
      const index_t lanes = std::min(W, rows - v * W);
      V cv;
      if (beta == 0.0) {
        cv = alpha * acc[j][v];
      } else {
        load_lanes(&cv, cj + v * W, 1, lanes);
        cv = beta == 1.0 ? cv + alpha * acc[j][v] : beta * cv + alpha * acc[j][v];
      }
      store_lanes(cj + v * W, &cv, lanes);
    }
  }
}

/// Runs the (nv, nc) instantiation of gemm_tile, NV in [1, NVMAX] and NC in
/// [1, NCMAX], searching down from the largest.
template <typename V, int NV, int NC, int NCMAX, typename... Args>
H2S_ALWAYS_INLINE void tile_dispatch(int nv, int nc, Args... args) {
  if (nv == NV && nc == NC) {
    gemm_tile<V, NV, NC>(args...);
  } else if constexpr (NC > 1) {
    tile_dispatch<V, NV, NC - 1, NCMAX>(nv, nc, args...);
  } else if constexpr (NV > 1) {
    tile_dispatch<V, NV - 1, NCMAX, NCMAX>(nv, nc, args...);
  }
}

/// The register-tiled path for one ISA: vector type V, tiles of NVMAX
/// vectors by NR columns.
template <typename V, int NVMAX, int NR>
H2S_ALWAYS_INLINE void gemm_body(real_t alpha, ConstMatrixView a, Op op_a, ConstMatrixView b,
                                 Op op_b, real_t beta, MatrixView c) {
  constexpr index_t W = static_cast<index_t>(sizeof(V) / sizeof(real_t));
  constexpr index_t MR = NVMAX * W;
  const index_t m = c.rows, n = c.cols, k = op_cols(a, op_a);
  // op(B)(p, j) = b.data[p * bk + j * bj].
  const index_t bk = op_b == Op::None ? 1 : b.ld;
  const index_t bj = op_b == Op::None ? b.ld : 1;

  // Staging moves values, not arithmetic: it never changes a result bit.
  const bool stage_all = op_a == Op::Trans || (k > kStageK && n > NR);
  alignas(64) real_t stage_local[MR * kStageStackK];
  // Uninitialized: staging writes every entry the tiles read.
  std::unique_ptr<real_t[]> stage_heap;
  real_t* stage = stage_local;
  if (k > kStageStackK && (stage_all || m % W != 0)) {
    stage_heap = std::make_unique_for_overwrite<real_t[]>(static_cast<size_t>(MR * k));
    stage = stage_heap.get();
  }

  for (index_t i0 = 0; i0 < m; i0 += MR) {
    const index_t mr = std::min(MR, m - i0);
    const index_t nv = (mr + W - 1) / W;
    const real_t* ap = a.data + i0;
    index_t lda = a.ld;
    if (stage_all || mr != nv * W) {
      // Stage op(A)(i0 : i0+mr, :) with column stride nv*W, rows past mr
      // zeroed so the tile runs whole vectors.
      lda = nv * W;
      // op(A)(i, p) = src[i * s_row + p * s_col].
      const index_t s_row = op_a == Op::None ? 1 : a.ld;
      const index_t s_col = op_a == Op::None ? a.ld : 1;
      index_t p = 0;
      if constexpr (W > 1) {
        // Transposed A: W x W blocks go through registers, W contiguous
        // loads and W vector stores each, instead of W strided loads per
        // staged vector.
        for (; op_a == Op::Trans && p + W <= k; p += W) {
          for (index_t v = 0; v < nv; ++v) {
            const index_t lanes = std::min(W, mr - v * W);
            V u[W];
            H2S_UNROLL for (index_t q = 0; q < W; ++q) {
              if (q < lanes)
                std::memcpy(&u[q], a.data + p + (i0 + v * W + q) * a.ld, sizeof(V));
              else
                u[q] = V{};
            }
            transpose_lanes(u);
            H2S_UNROLL for (index_t e = 0; e < W; ++e)
              std::memcpy(stage + (p + e) * lda + v * W, &u[e], sizeof(V));
          }
        }
      }
      for (; p < k; ++p) {
        for (index_t v = 0; v < nv; ++v) {
          V x;
          load_lanes(&x, a.data + (i0 + v * W) * s_row + p * s_col, s_row,
                     std::min(W, mr - v * W));
          std::memcpy(stage + p * lda + v * W, &x, sizeof(V));
        }
      }
      ap = stage;
    }
    for (index_t j0 = 0; j0 < n; j0 += NR) {
      const index_t nc = std::min<index_t>(NR, n - j0);
      tile_dispatch<V, NVMAX, NR, NR>(static_cast<int>(nv), static_cast<int>(nc), k, ap, lda,
                                      b.data + j0 * bj, bk, bj, alpha, beta,
                                      c.data + i0 + j0 * c.ld, c.ld, mr);
    }
  }
}

/// Tiles per ISA clone (doubles): the baseline ISA runs 2-wide vectors in a
/// 4 x 4 tile, AVX2 4-wide vectors in an 8 x 4 tile (8 of its 16 registers
/// accumulate), AVX-512 8-wide vectors in a 32 x 4 tile (16 of 32). Each
/// clone gets the vector type of its own width: a 512-bit type compiled for
/// AVX2 spills.
void gemm_base(real_t alpha, ConstMatrixView a, Op op_a, ConstMatrixView b, Op op_b,
               real_t beta, MatrixView c) {
  gemm_body<VecBase, 2, 4>(alpha, a, op_a, b, op_b, beta, c);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define H2S_HAVE_KERNEL_DISPATCH 1
typedef real_t Vec4 __attribute__((vector_size(32)));
typedef real_t Vec8 __attribute__((vector_size(64)));

__attribute__((target("avx2,fma"))) void gemm_avx2(real_t alpha, ConstMatrixView a, Op op_a,
                                                    ConstMatrixView b, Op op_b, real_t beta,
                                                    MatrixView c) {
  gemm_body<Vec4, 2, 4>(alpha, a, op_a, b, op_b, beta, c);
}

__attribute__((target("avx512f,avx512vl"))) void gemm_avx512(real_t alpha, ConstMatrixView a,
                                                              Op op_a, ConstMatrixView b, Op op_b,
                                                              real_t beta, MatrixView c) {
  gemm_body<Vec8, 4, 4>(alpha, a, op_a, b, op_b, beta, c);
}
#endif

using GemmCloneFn = void (*)(real_t, ConstMatrixView, Op, ConstMatrixView, Op, real_t,
                             MatrixView);

GemmCloneFn select_gemm_clone() {
#if defined(H2S_HAVE_KERNEL_DISPATCH)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl"))
    return gemm_avx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return gemm_avx2;
#endif
  return gemm_base;
}

GemmCloneFn gemm_clone = select_gemm_clone();

/// The products gemm_parallel splits across the pool (when they span more
/// than one tile of its grid): at least 32^3 multiply-adds, with m >= 4,
/// n >= 8 and k >= 8. Smaller or thinner ones run serially.
bool worth_splitting(index_t m, index_t n, index_t k) {
  if (m < 4 || n < 8 || k < 8) return false;
  return m * n * k >= index_t{32} * 32 * 32;
}

} // namespace

void gemm_naive(real_t alpha, ConstMatrixView a, Op op_a, ConstMatrixView b, Op op_b, real_t beta,
                MatrixView c) {
  check_gemm_shapes(a, op_a, b, op_b, c);
  apply_beta(beta, c);
  if (c.rows == 0 || c.cols == 0 || op_cols(a, op_a) == 0 || alpha == 0.0) return;
  if (op_a == Op::None && op_b == Op::None) gemm_nn(alpha, a, b, c);
  else if (op_a == Op::Trans && op_b == Op::None) gemm_tn(alpha, a, b, c);
  else if (op_a == Op::None && op_b == Op::Trans) gemm_nt(alpha, a, b, c);
  else gemm_tt(alpha, a, b, c);
}

void gemm(real_t alpha, ConstMatrixView a, Op op_a, ConstMatrixView b, Op op_b, real_t beta,
          MatrixView c) {
  check_gemm_shapes(a, op_a, b, op_b, c);
  if (c.rows == 0 || c.cols == 0) return;
  if (op_cols(a, op_a) == 0 || alpha == 0.0) {
    apply_beta(beta, c);
    return;
  }
  gemm_clone(alpha, a, op_a, b, op_b, beta, c);
}

void gemm_parallel(real_t alpha, ConstMatrixView a, Op op_a, ConstMatrixView b, Op op_b,
                   real_t beta, MatrixView c) {
  check_gemm_shapes(a, op_a, b, op_b, c);
  const index_t m = c.rows, n = c.cols, kk = op_cols(a, op_a);
  ThreadPool& pool = ThreadPool::global();
  const index_t row_panels = (m + kGemmMC - 1) / kGemmMC;
  const index_t col_panels = (n + kGemmNC - 1) / kGemmNC;
  if (pool.width() <= 1 || !worth_splitting(m, n, kk) || row_panels * col_panels <= 1) {
    gemm(alpha, a, op_a, b, op_b, beta, c);
    return;
  }
  // Tile (rp, cp) covers C(rp*MC .., cp*NC ..) and runs `gemm` on the
  // matching rows of op(A) and columns of op(B). Every entry's arithmetic is
  // independent of the tile it sits in, so every bit of C matches `gemm`
  // for every pool width.
  pool.parallel_for(row_panels * col_panels, [&](index_t t) {
    const index_t rp = t % row_panels, cp = t / row_panels;
    const index_t r0 = rp * kGemmMC, mb = std::min(kGemmMC, m - r0);
    const index_t c0 = cp * kGemmNC, nb = std::min(kGemmNC, n - c0);
    const ConstMatrixView ap =
        op_a == Op::None ? a.block(r0, 0, mb, a.cols) : a.block(0, r0, a.rows, mb);
    const ConstMatrixView bp =
        op_b == Op::None ? b.block(0, c0, b.rows, nb) : b.block(c0, 0, nb, b.cols);
    gemm(alpha, ap, op_a, bp, op_b, beta, c.block(r0, c0, mb, nb));
  });
}

} // namespace h2sketch::la
