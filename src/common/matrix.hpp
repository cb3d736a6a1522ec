#pragma once

#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

/// \file matrix.hpp
/// Column-major dense matrix (owning) and strided views (non-owning).
/// All of h2sketch's dense linear algebra operates on these views, so the
/// same kernels serve owning matrices, sub-blocks, and arena-allocated
/// batch entries.

namespace h2sketch {

class Matrix;

/// Non-owning mutable view of a column-major matrix block.
struct MatrixView {
  real_t* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0; ///< leading dimension (stride between columns), ld >= rows

  MatrixView() = default;
  MatrixView(real_t* p, index_t m, index_t n, index_t lda) : data(p), rows(m), cols(n), ld(lda) {
    H2S_ASSERT(lda >= m, "leading dimension must cover rows");
  }

  real_t& operator()(index_t i, index_t j) const { return data[i + j * ld]; }

  /// Sub-block view [r0, r0+m) x [c0, c0+n).
  MatrixView block(index_t r0, index_t c0, index_t m, index_t n) const {
    H2S_ASSERT(r0 >= 0 && c0 >= 0 && r0 + m <= rows && c0 + n <= cols, "block out of range");
    return MatrixView(data + r0 + c0 * ld, m, n, ld);
  }
  MatrixView col_range(index_t c0, index_t n) const { return block(0, c0, rows, n); }
  MatrixView row_range(index_t r0, index_t m) const { return block(r0, 0, m, cols); }

  bool empty() const { return rows == 0 || cols == 0; }
};

/// Non-owning const view of a column-major matrix block.
struct ConstMatrixView {
  const real_t* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;

  ConstMatrixView() = default;
  ConstMatrixView(const real_t* p, index_t m, index_t n, index_t lda)
      : data(p), rows(m), cols(n), ld(lda) {
    H2S_ASSERT(lda >= m, "leading dimension must cover rows");
  }
  /*implicit*/ ConstMatrixView(const MatrixView& v) : data(v.data), rows(v.rows), cols(v.cols), ld(v.ld) {}

  const real_t& operator()(index_t i, index_t j) const { return data[i + j * ld]; }

  ConstMatrixView block(index_t r0, index_t c0, index_t m, index_t n) const {
    H2S_ASSERT(r0 >= 0 && c0 >= 0 && r0 + m <= rows && c0 + n <= cols, "block out of range");
    return ConstMatrixView(data + r0 + c0 * ld, m, n, ld);
  }
  ConstMatrixView col_range(index_t c0, index_t n) const { return block(0, c0, rows, n); }
  ConstMatrixView row_range(index_t r0, index_t m) const { return block(r0, 0, m, cols); }

  bool empty() const { return rows == 0 || cols == 0; }
};

/// Owning column-major dense matrix with contiguous storage (ld == rows).
class Matrix {
 public:
  Matrix() = default;
  /// Allocate an m x n matrix, zero-initialized.
  Matrix(index_t m, index_t n) : rows_(m), cols_(n), data_(static_cast<size_t>(m * n), 0.0) {
    H2S_CHECK(m >= 0 && n >= 0, "negative dimension");
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t size() const { return rows_ * cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  real_t& operator()(index_t i, index_t j) { return data_[static_cast<size_t>(i + j * rows_)]; }
  const real_t& operator()(index_t i, index_t j) const {
    return data_[static_cast<size_t>(i + j * rows_)];
  }

  real_t* data() { return data_.data(); }
  const real_t* data() const { return data_.data(); }

  /// Whole-matrix views.
  MatrixView view() { return MatrixView(data_.data(), rows_, cols_, rows_); }
  ConstMatrixView view() const { return ConstMatrixView(data_.data(), rows_, cols_, rows_); }
  operator MatrixView() { return view(); }
  operator ConstMatrixView() const { return view(); }

  /// Sub-block views.
  MatrixView block(index_t r0, index_t c0, index_t m, index_t n) {
    return view().block(r0, c0, m, n);
  }
  ConstMatrixView block(index_t r0, index_t c0, index_t m, index_t n) const {
    return view().block(r0, c0, m, n);
  }

  /// Fill every entry with a constant.
  void fill(real_t v) { std::fill(data_.begin(), data_.end(), v); }

  /// Resize to m x n, discarding contents (entries zeroed).
  void resize(index_t m, index_t n) {
    rows_ = m;
    cols_ = n;
    data_.assign(static_cast<size_t>(m * n), 0.0);
  }

  /// n x n identity.
  static Matrix identity(index_t n) {
    Matrix I(n, n);
    for (index_t i = 0; i < n; ++i) I(i, i) = 1.0;
    return I;
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<real_t> data_;
};

/// Deep-copy a view into an owning matrix.
Matrix to_matrix(ConstMatrixView a);

/// Copy src into dst (dimensions must match).
void copy(ConstMatrixView src, MatrixView dst);

/// dst = src^T (dst is src.cols x src.rows).
void copy_transposed(ConstMatrixView src, MatrixView dst);

/// Set every entry of the view to a constant.
void set_all(MatrixView a, real_t v);

/// Gather rows: dst(i, :) = src(rows[i], :).
void gather_rows(ConstMatrixView src, const_index_span rows, MatrixView dst);

/// Gather a general sub-block: dst(i, j) = src(rows[i], cols[j]).
void gather_block(ConstMatrixView src, const_index_span rows, const_index_span cols,
                  MatrixView dst);

/// Max absolute entry difference between two equal-sized matrices.
real_t max_abs_diff(ConstMatrixView a, ConstMatrixView b);

} // namespace h2sketch
