#pragma once

#include <span>
#include <vector>

#include "batched/device.hpp"
#include "la/qr.hpp"

/// \file batched_qr.hpp
/// Batched QR probe (the KBLAS batched-QR stand-in). The adaptive
/// construction only needs the smallest |diag(R)| per node to decide
/// convergence (paper §III-B), so that is what the batch computes.

namespace h2sketch::batched {

/// Incremental probe: work[i] holds la::householder_qr output in its first
/// factored[i] columns (scalars in tau[i]) and fresh sample columns after;
/// extends each factorization in place over the appended columns and writes
/// min |diag(R)| to out[i]. Bitwise identical to la::min_abs_r_diag of the
/// full panels, but each adaptive round only pays for the new columns.
/// Synchronous: one launch, completed on return.
void batched_min_r_diag_update(ExecutionContext& ctx, std::span<const MatrixView> work,
                               std::span<const index_t> factored,
                               std::span<std::vector<real_t>> tau, std::span<real_t> out);

} // namespace h2sketch::batched
