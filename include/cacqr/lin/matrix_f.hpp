#pragma once
/// \file matrix_f.hpp
/// \brief Single-precision companions of Matrix/MatrixView for the fp32
///        kernel lane.
///
/// Deliberately a separate, smaller family than matrix.hpp: fp32
/// operands exist only on the mixed-precision Gram path (pack -> gram ->
/// allreduce -> widen), so the views carry just what the kernel driver
/// and the collectives need.
///
/// MatrixF stores its floats inside double-backed storage (capacity
/// rounded up to a whole number of doubles).  That buys two things for
/// free: the payload is always 8-byte aligned, and `wire()` can hand the
/// modeled runtime a `std::span<double>` covering the same bytes -- the
/// collectives keep moving 8-byte words, every word now carrying two
/// floats, so the halved beta charge of the fp32 Allreduce falls out of
/// the existing word counters without touching them.

#include <cstring>
#include <span>
#include <vector>

#include "cacqr/lin/matrix.hpp"

namespace cacqr::lin {

/// Non-owning read-only view of a column-major fp32 matrix block.
struct ConstMatrixFView {
  const float* data = nullptr;
  i64 rows = 0;
  i64 cols = 0;
  i64 ld = 0;  ///< leading dimension (>= rows)

  [[nodiscard]] const float& operator()(i64 i, i64 j) const noexcept {
    return data[i + j * ld];
  }

  [[nodiscard]] ConstMatrixFView sub(i64 i0, i64 j0, i64 h, i64 w) const {
    ensure_dim(i0 >= 0 && j0 >= 0 && i0 + h <= rows && j0 + w <= cols,
               "ConstMatrixFView::sub out of range");
    return {data + i0 + j0 * ld, h, w, ld};
  }
};

/// Non-owning mutable view of a column-major fp32 matrix block.
struct MatrixFView {
  float* data = nullptr;
  i64 rows = 0;
  i64 cols = 0;
  i64 ld = 0;

  [[nodiscard]] float& operator()(i64 i, i64 j) const noexcept {
    return data[i + j * ld];
  }

  [[nodiscard]] MatrixFView sub(i64 i0, i64 j0, i64 h, i64 w) const {
    ensure_dim(i0 >= 0 && j0 >= 0 && i0 + h <= rows && j0 + w <= cols,
               "MatrixFView::sub out of range");
    return {data + i0 + j0 * ld, h, w, ld};
  }

  operator ConstMatrixFView() const noexcept {  // NOLINT(google-explicit-*)
    return {data, rows, cols, ld};
  }
};

/// Owning dense column-major fp32 matrix (leading dimension == rows).
class MatrixF {
 public:
  MatrixF() = default;

  /// Allocates an m x n matrix of zeros (all-zero bits == 0.0f).
  MatrixF(i64 m, i64 n) : rows_(m), cols_(n) {
    ensure_dim(m >= 0 && n >= 0, "MatrixF: negative dimension");
    store_.assign(words_for(checked_mul(m, n)), 0.0);
  }

  /// Allocates an m x n matrix with UNINITIALIZED storage (same contract
  /// as Matrix::uninit: every element overwritten before it is read).
  [[nodiscard]] static MatrixF uninit(i64 m, i64 n) {
    ensure_dim(m >= 0 && n >= 0, "MatrixF::uninit: negative dimension");
    MatrixF out;
    out.rows_ = m;
    out.cols_ = n;
    out.store_.resize(words_for(checked_mul(m, n)));
    return out;
  }

  [[nodiscard]] i64 rows() const noexcept { return rows_; }
  [[nodiscard]] i64 cols() const noexcept { return cols_; }
  [[nodiscard]] i64 size() const { return checked_mul(rows_, cols_); }
  [[nodiscard]] float* data() noexcept {
    return reinterpret_cast<float*>(store_.data());
  }
  [[nodiscard]] const float* data() const noexcept {
    return reinterpret_cast<const float*>(store_.data());
  }

  [[nodiscard]] float& operator()(i64 i, i64 j) noexcept {
    return data()[i + j * rows_];
  }
  [[nodiscard]] const float& operator()(i64 i, i64 j) const noexcept {
    return data()[i + j * rows_];
  }

  [[nodiscard]] MatrixFView view() noexcept {
    return {data(), rows_, cols_, rows_};
  }
  [[nodiscard]] ConstMatrixFView view() const noexcept {
    return {data(), rows_, cols_, rows_};
  }

  operator MatrixFView() noexcept { return view(); }            // NOLINT
  operator ConstMatrixFView() const noexcept { return view(); }  // NOLINT

  /// The matrix's bytes as whole 8-byte words for the modeled runtime's
  /// collectives (two floats per word).  Zeroes the tail pad float first
  /// when the element count is odd, so reductions over the pad lane stay
  /// deterministic (0 + 0 == 0) and never read uninitialized bits.
  [[nodiscard]] std::span<double> wire() {
    const i64 n = size();
    if (n % 2 != 0) data()[n] = 0.0f;
    return {store_.data(), static_cast<std::size_t>(words_for(n))};
  }

 private:
  [[nodiscard]] static i64 words_for(i64 floats) { return (floats + 1) / 2; }

  i64 rows_ = 0;
  i64 cols_ = 0;
  UninitVector<double> store_;
};

}  // namespace cacqr::lin
