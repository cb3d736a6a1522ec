#include "common/matrix.hpp"

#include <cmath>

namespace h2sketch {

Matrix to_matrix(ConstMatrixView a) {
  Matrix m(a.rows, a.cols);
  copy(a, m.view());
  return m;
}

void copy(ConstMatrixView src, MatrixView dst) {
  H2S_CHECK(src.rows == dst.rows && src.cols == dst.cols, "copy: shape mismatch");
  for (index_t j = 0; j < src.cols; ++j)
    for (index_t i = 0; i < src.rows; ++i) dst(i, j) = src(i, j);
}

void copy_transposed(ConstMatrixView src, MatrixView dst) {
  H2S_CHECK(src.rows == dst.cols && src.cols == dst.rows, "copy_transposed: shape mismatch");
  for (index_t j = 0; j < src.cols; ++j)
    for (index_t i = 0; i < src.rows; ++i) dst(j, i) = src(i, j);
}

void set_all(MatrixView a, real_t v) {
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) a(i, j) = v;
}

void gather_rows(ConstMatrixView src, const_index_span rows, MatrixView dst) {
  H2S_CHECK(dst.rows == static_cast<index_t>(rows.size()) && dst.cols == src.cols,
            "gather_rows: shape mismatch");
  for (index_t j = 0; j < src.cols; ++j)
    for (index_t i = 0; i < dst.rows; ++i) dst(i, j) = src(rows[static_cast<size_t>(i)], j);
}

void gather_block(ConstMatrixView src, const_index_span rows, const_index_span cols,
                  MatrixView dst) {
  H2S_CHECK(dst.rows == static_cast<index_t>(rows.size()) &&
                dst.cols == static_cast<index_t>(cols.size()),
            "gather_block: shape mismatch");
  for (index_t j = 0; j < dst.cols; ++j)
    for (index_t i = 0; i < dst.rows; ++i)
      dst(i, j) = src(rows[static_cast<size_t>(i)], cols[static_cast<size_t>(j)]);
}

real_t max_abs_diff(ConstMatrixView a, ConstMatrixView b) {
  H2S_CHECK(a.rows == b.rows && a.cols == b.cols, "max_abs_diff: shape mismatch");
  real_t d = 0.0;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) d = std::max(d, std::abs(a(i, j) - b(i, j)));
  return d;
}

} // namespace h2sketch
