#pragma once

#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"

/// \file qr.hpp
/// Householder QR, column-pivoted QR (rank-revealing, with early stop), and
/// the min-|diag(R)| probe used by the adaptive construction's convergence
/// test (paper §III-B).

namespace h2sketch::la {

/// In-place unpivoted Householder QR (LAPACK geqrf layout): on exit the upper
/// triangle of A holds R and the strict lower triangle holds the Householder
/// vectors (v(0) = 1 implicit); tau holds the reflector scalars.
void householder_qr(MatrixView a, std::vector<real_t>& tau);

/// Continue an unpivoted Householder QR after columns were appended: the
/// first `from` columns of A (and tau, with tau.size() == min(from, rows))
/// already hold householder_qr output; the remaining columns hold fresh
/// data. Replays the existing reflectors on the appended columns, then
/// extends the factorization in place, growing tau. The result — R diagonal
/// included — is bitwise identical to householder_qr of the full matrix,
/// because each appended column sees the same reflectors in the same order.
void householder_qr_continue(MatrixView a, std::vector<real_t>& tau, index_t from);

/// Panel width of the blocked (level-3) QR kernels below.
inline constexpr index_t kQrPanel = 32;

/// Blocked Householder QR with householder_qr's layout and contract
/// (LAPACK geqrf): each kQrPanel-column panel is factored by householder_qr,
/// then its reflectors are applied to the trailing columns at once in
/// compact-WY form, I - V T V^T, as two gemm_parallel products. R and the
/// stored reflectors agree with householder_qr to rounding, not bitwise.
void householder_qr_blocked(MatrixView a, std::vector<real_t>& tau);

/// Two-sided rotation d := Q^T d Q of the square d (d.rows == qr.rows) by
/// the Q of householder_qr or householder_qr_blocked output: per kQrPanel
/// panel of reflectors, one compact-WY update from the left and one from the
/// right, each two gemm_parallel products.
void apply_qt_d_q(ConstMatrixView qr, const std::vector<real_t>& tau, MatrixView d);

/// Apply Q^T (from householder_qr of `qr`) to B in place: B := Q^T B.
void apply_q_transpose(ConstMatrixView qr, const std::vector<real_t>& tau, MatrixView b);

/// Apply Q to B in place: B := Q B.
void apply_q(ConstMatrixView qr, const std::vector<real_t>& tau, MatrixView b);

/// Form the thin Q factor (m x k, k = min(m, n) columns) from householder_qr output.
Matrix form_q(ConstMatrixView qr, const std::vector<real_t>& tau, index_t k);

/// Smallest |R(i,i)| of the unpivoted QR of A (A is copied; empty -> 0).
/// This is the adaptive construction's convergence probe: once the sample
/// matrix has more columns than the numerical rank of the sketched block row,
/// the trailing R diagonal collapses below epsilon_abs.
real_t min_abs_r_diag(ConstMatrixView a);

/// Result of a column-pivoted QR stopped at a tolerance.
struct Cpqr {
  /// Column permutation: factored column j of the output is input column piv[j].
  std::vector<index_t> piv;
  /// Numerical rank detected: number of Householder steps performed.
  index_t rank = 0;
};

/// In-place rank-revealing CPQR with norm downdating (LAPACK geqp3 style).
/// Stops when the largest remaining column norm drops to <= abs_tol or
/// rank == max_rank (max_rank < 0 means unbounded). On exit A holds the
/// factorization of A(:, piv) in geqrf layout; tau as in householder_qr.
Cpqr cpqr(MatrixView a, std::vector<real_t>& tau, real_t abs_tol, index_t max_rank = -1);

} // namespace h2sketch::la
