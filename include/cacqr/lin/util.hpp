#pragma once
/// \file util.hpp
/// \brief Matrix utilities: copies, transposes, norms, comparisons.

#include "cacqr/lin/matrix.hpp"

namespace cacqr::lin {

/// Copies a into b (shapes must match).
void copy(ConstMatrixView a, MatrixView b);

/// Sets every off-diagonal element to `offdiag` and every diagonal element
/// to `diag` (LAPACK laset).
void set_all(MatrixView a, double offdiag, double diag);

/// Returns a^T as a new matrix.
[[nodiscard]] Matrix transposed(ConstMatrixView a);

/// Transposes square view a in place.
void transpose_inplace(MatrixView a);

/// Frobenius norm.
[[nodiscard]] double frob_norm(ConstMatrixView a);

/// Largest absolute entry; NaN if any entry is NaN.
[[nodiscard]] double max_abs(ConstMatrixView a);

/// max_ij |a_ij - b_ij| (shapes must match); NaN if any difference is NaN
/// (a NaN in either operand, or Inf minus Inf of one sign).
[[nodiscard]] double max_abs_diff(ConstMatrixView a, ConstMatrixView b);

/// || Q^T Q - I ||_F: deviation of Q's columns from orthonormality.  This
/// is the quantity the CholeskyQR2 stability analysis bounds.
[[nodiscard]] double orthogonality_error(ConstMatrixView q);

/// || A - Q R ||_F / || A ||_F: relative residual of a QR factorization.
[[nodiscard]] double residual_error(ConstMatrixView a, ConstMatrixView q,
                                    ConstMatrixView r);

/// True iff the strict lower triangle of a is exactly zero.
[[nodiscard]] bool is_upper_triangular(ConstMatrixView a);

/// Estimates the 2-norm condition number of a full-column-rank matrix via
/// power iteration on A^T A (for sigma_max) and inverse power iteration
/// through a QR factorization (for sigma_min).  Accurate to a few percent,
/// which is all the stability tests need.
[[nodiscard]] double cond2_estimate(ConstMatrixView a, int iterations = 40);

}  // namespace cacqr::lin
