#pragma once
/// \file matrix.hpp
/// \brief Dense column-major matrix container and non-owning strided views,
///        one family over the element type.
///
/// All linear-algebra kernels in the library operate on these types.
/// Storage is column-major (BLAS/LAPACK convention) with an explicit
/// leading dimension on views so that sub-blocks of a larger matrix can be
/// addressed without copying.  The family is instantiated at double
/// (`Matrix`, `MatrixView`, `ConstMatrixView`) and at float for the fp32
/// Gram lane (`MatrixF` and its views, named in matrix_f.hpp).
///
/// An owning matrix keeps its elements in whole 8-byte words (a float
/// matrix rounds its capacity up to an even element count).  That buys two
/// things at either width: the payload is always 8-byte aligned, and
/// `wire()` hands the runtime's collectives a `std::span<double>` over the
/// same bytes.  The collectives move 8-byte words, each carrying one
/// double or two floats, so the halved beta charge of an fp32 payload
/// falls out of the word counters without touching them.

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>

#include "cacqr/support/error.hpp"
#include "cacqr/support/math.hpp"
#include "cacqr/support/uninit.hpp"

namespace cacqr::lin {

/// Non-owning read-only view of a column-major matrix block.
template <class T>
struct BasicConstView {
  const T* data = nullptr;
  i64 rows = 0;
  i64 cols = 0;
  i64 ld = 0;  ///< leading dimension (>= rows)

  [[nodiscard]] const T& operator()(i64 i, i64 j) const noexcept {
    return data[i + j * ld];
  }

  /// Read-only sub-block of size h x w starting at (i0, j0).
  [[nodiscard]] BasicConstView sub(i64 i0, i64 j0, i64 h, i64 w) const {
    ensure_dim(i0 >= 0 && j0 >= 0 && i0 + h <= rows && j0 + w <= cols,
               "ConstMatrixView::sub out of range");
    return {data + i0 + j0 * ld, h, w, ld};
  }
};

/// Non-owning mutable view of a column-major matrix block.
template <class T>
struct BasicView {
  T* data = nullptr;
  i64 rows = 0;
  i64 cols = 0;
  i64 ld = 0;

  [[nodiscard]] T& operator()(i64 i, i64 j) const noexcept {
    return data[i + j * ld];
  }

  [[nodiscard]] BasicView sub(i64 i0, i64 j0, i64 h, i64 w) const {
    ensure_dim(i0 >= 0 && j0 >= 0 && i0 + h <= rows && j0 + w <= cols,
               "MatrixView::sub out of range");
    return {data + i0 + j0 * ld, h, w, ld};
  }

  /// Implicit decay to a read-only view.
  operator BasicConstView<T>() const noexcept {  // NOLINT(google-explicit-*)
    return {data, rows, cols, ld};
  }
};

/// Owning dense column-major matrix (leading dimension == rows).
template <class T>
class BasicMatrix {
  static_assert(std::is_same_v<T, double> || std::is_same_v<T, float>,
                "BasicMatrix holds double or float elements");

 public:
  BasicMatrix() = default;

  /// Allocates an m x n matrix of zeros (all-zero bits at either width).
  BasicMatrix(i64 m, i64 n) : rows_(m), cols_(n) {
    ensure_dim(m >= 0 && n >= 0, "Matrix: negative dimension");
    store_.assign(static_cast<std::size_t>(words_for(checked_mul(m, n))),
                  0.0);
  }

  /// Allocates an m x n matrix with UNINITIALIZED storage: no zero pass.
  /// Only for staging buffers whose every element is overwritten before
  /// being read (bcast destinations, materialize/copy targets, beta == 0
  /// kernel outputs); anything relying on zeros -- identity off-diagonals,
  /// DistMatrix construction, padding -- must use the zeroing constructor.
  [[nodiscard]] static BasicMatrix uninit(i64 m, i64 n) {
    ensure_dim(m >= 0 && n >= 0, "Matrix::uninit: negative dimension");
    BasicMatrix out;
    out.rows_ = m;
    out.cols_ = n;
    out.store_.resize(static_cast<std::size_t>(words_for(checked_mul(m, n))));
    return out;
  }

  [[nodiscard]] i64 rows() const noexcept { return rows_; }
  [[nodiscard]] i64 cols() const noexcept { return cols_; }
  [[nodiscard]] i64 size() const { return checked_mul(rows_, cols_); }
  [[nodiscard]] T* data() noexcept {
    return reinterpret_cast<T*>(store_.data());
  }
  [[nodiscard]] const T* data() const noexcept {
    return reinterpret_cast<const T*>(store_.data());
  }

  [[nodiscard]] T& operator()(i64 i, i64 j) noexcept {
    return data()[i + j * rows_];
  }
  [[nodiscard]] const T& operator()(i64 i, i64 j) const noexcept {
    return data()[i + j * rows_];
  }

  [[nodiscard]] BasicView<T> view() noexcept {
    return {data(), rows_, cols_, rows_};
  }
  [[nodiscard]] BasicConstView<T> view() const noexcept {
    return {data(), rows_, cols_, rows_};
  }

  /// Implicit conversion to views so kernels can take a matrix directly.
  operator BasicView<T>() noexcept { return view(); }             // NOLINT
  operator BasicConstView<T>() const noexcept { return view(); }  // NOLINT

  [[nodiscard]] BasicView<T> sub(i64 i0, i64 j0, i64 h, i64 w) {
    return view().sub(i0, j0, h, w);
  }
  [[nodiscard]] BasicConstView<T> sub(i64 i0, i64 j0, i64 h, i64 w) const {
    return view().sub(i0, j0, h, w);
  }

  /// The matrix's bytes as whole 8-byte words for the runtime's
  /// collectives (one double or two floats per word).  A float matrix of
  /// odd size zeroes its tail pad element first, so reductions over the
  /// pad lane stay deterministic (0 + 0 == 0) and never read
  /// uninitialized bits.
  [[nodiscard]] std::span<double> wire() {
    const i64 n = size();
    const i64 words = words_for(n);
    std::fill(data() + n, data() + words * kPerWord, T(0));
    return {store_.data(), static_cast<std::size_t>(words)};
  }

  /// n x n identity.
  [[nodiscard]] static BasicMatrix identity(i64 n) {
    BasicMatrix I(n, n);
    for (i64 i = 0; i < n; ++i) I(i, i) = T(1);
    return I;
  }

  friend bool operator==(const BasicMatrix& a, const BasicMatrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
           std::equal(a.data(), a.data() + a.size(), b.data());
  }

 private:
  static constexpr i64 kPerWord = sizeof(double) / sizeof(T);

  [[nodiscard]] static i64 words_for(i64 elems) {
    return ceil_div(elems, kPerWord);
  }

  i64 rows_ = 0;
  i64 cols_ = 0;
  UninitVector<double> store_;
};

using ConstMatrixView = BasicConstView<double>;
using MatrixView = BasicView<double>;
using Matrix = BasicMatrix<double>;

/// Copies a view into a freshly-allocated owning matrix (uninitialized
/// storage: the copy overwrites every element).  The column copies are
/// split over the calling thread's worker team (via lin::copy; defined in
/// util.cpp), so the collective staging buffers on the ca_gram / mm3d /
/// transpose3d hot paths inherit the dist-stage threading; at a budget of
/// 1 the copy runs inline, one std::copy per column.
[[nodiscard]] Matrix materialize(ConstMatrixView a);

}  // namespace cacqr::lin
