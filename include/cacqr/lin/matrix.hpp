#pragma once
/// \file matrix.hpp
/// \brief Dense column-major matrix container and non-owning strided views.
///
/// All linear-algebra kernels in the library operate on these types.
/// Storage is column-major (BLAS/LAPACK convention) with an explicit
/// leading dimension on views so that sub-blocks of a larger matrix can be
/// addressed without copying.

#include <cstddef>

#include "cacqr/support/error.hpp"
#include "cacqr/support/math.hpp"
#include "cacqr/support/uninit.hpp"

namespace cacqr::lin {

/// Non-owning read-only view of a column-major matrix block.
struct ConstMatrixView {
  const double* data = nullptr;
  i64 rows = 0;
  i64 cols = 0;
  i64 ld = 0;  ///< leading dimension (>= rows)

  [[nodiscard]] const double& operator()(i64 i, i64 j) const noexcept {
    return data[i + j * ld];
  }

  /// Read-only sub-block of size h x w starting at (i0, j0).
  [[nodiscard]] ConstMatrixView sub(i64 i0, i64 j0, i64 h, i64 w) const {
    ensure_dim(i0 >= 0 && j0 >= 0 && i0 + h <= rows && j0 + w <= cols,
               "ConstMatrixView::sub out of range");
    return {data + i0 + j0 * ld, h, w, ld};
  }
};

/// Non-owning mutable view of a column-major matrix block.
struct MatrixView {
  double* data = nullptr;
  i64 rows = 0;
  i64 cols = 0;
  i64 ld = 0;

  [[nodiscard]] double& operator()(i64 i, i64 j) const noexcept {
    return data[i + j * ld];
  }

  [[nodiscard]] MatrixView sub(i64 i0, i64 j0, i64 h, i64 w) const {
    ensure_dim(i0 >= 0 && j0 >= 0 && i0 + h <= rows && j0 + w <= cols,
               "MatrixView::sub out of range");
    return {data + i0 + j0 * ld, h, w, ld};
  }

  /// Implicit decay to a read-only view.
  operator ConstMatrixView() const noexcept {  // NOLINT(google-explicit-*)
    return {data, rows, cols, ld};
  }
};

/// Owning dense column-major matrix (leading dimension == rows).
class Matrix {
 public:
  Matrix() = default;

  /// Allocates an m x n matrix of zeros.
  Matrix(i64 m, i64 n)
      : rows_(m), cols_(n),
        store_(static_cast<std::size_t>(checked_mul(m, n)), 0.0) {
    ensure_dim(m >= 0 && n >= 0, "Matrix: negative dimension");
  }

  /// Allocates an m x n matrix with UNINITIALIZED storage: no zero pass.
  /// Only for staging buffers whose every element is overwritten before
  /// being read (bcast destinations, materialize/copy targets, beta == 0
  /// kernel outputs); anything relying on zeros -- identity off-diagonals,
  /// DistMatrix construction, padding -- must use the zeroing constructor.
  [[nodiscard]] static Matrix uninit(i64 m, i64 n) {
    ensure_dim(m >= 0 && n >= 0, "Matrix::uninit: negative dimension");
    Matrix out;
    out.rows_ = m;
    out.cols_ = n;
    out.store_.resize(static_cast<std::size_t>(checked_mul(m, n)));
    return out;
  }

  [[nodiscard]] i64 rows() const noexcept { return rows_; }
  [[nodiscard]] i64 cols() const noexcept { return cols_; }
  [[nodiscard]] i64 size() const { return checked_mul(rows_, cols_); }
  [[nodiscard]] double* data() noexcept { return store_.data(); }
  [[nodiscard]] const double* data() const noexcept { return store_.data(); }

  [[nodiscard]] double& operator()(i64 i, i64 j) noexcept {
    return store_[static_cast<std::size_t>(i + j * rows_)];
  }
  [[nodiscard]] const double& operator()(i64 i, i64 j) const noexcept {
    return store_[static_cast<std::size_t>(i + j * rows_)];
  }

  [[nodiscard]] MatrixView view() noexcept {
    return {store_.data(), rows_, cols_, rows_};
  }
  [[nodiscard]] ConstMatrixView view() const noexcept {
    return {store_.data(), rows_, cols_, rows_};
  }

  /// Implicit conversion to views so kernels can take Matrix directly.
  operator MatrixView() noexcept { return view(); }          // NOLINT
  operator ConstMatrixView() const noexcept { return view(); }  // NOLINT

  [[nodiscard]] MatrixView sub(i64 i0, i64 j0, i64 h, i64 w) {
    return view().sub(i0, j0, h, w);
  }
  [[nodiscard]] ConstMatrixView sub(i64 i0, i64 j0, i64 h, i64 w) const {
    return view().sub(i0, j0, h, w);
  }

  /// n x n identity.
  [[nodiscard]] static Matrix identity(i64 n) {
    Matrix I(n, n);
    for (i64 i = 0; i < n; ++i) I(i, i) = 1.0;
    return I;
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.store_ == b.store_;
  }

 private:
  i64 rows_ = 0;
  i64 cols_ = 0;
  UninitVector<double> store_;
};

/// Copies a view into a freshly-allocated owning matrix (uninitialized
/// storage: the copy overwrites every element).  The column copies are
/// split over the calling thread's worker team (via lin::copy; defined in
/// util.cpp), so the collective staging buffers on the ca_gram / mm3d /
/// transpose3d hot paths inherit the dist-stage threading; at a budget of
/// 1 the copy runs inline, one std::copy per column.
[[nodiscard]] Matrix materialize(ConstMatrixView a);

}  // namespace cacqr::lin
