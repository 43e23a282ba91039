#pragma once
/// \file factor.hpp
/// \brief Sequential Cholesky factorization and triangular inversion.
///
/// These are the base-case kernels of the distributed CFR3D algorithm
/// (Algorithm 3 of the paper) and of the 1D CholeskyQR variants.

#include "cacqr/lin/matrix.hpp"

namespace cacqr::lin {

/// In-place lower Cholesky factorization A = L L^T (blocked).
/// On return the lower triangle of `a` holds L; the strict upper triangle
/// is zeroed.  Throws NotSpdError when a pivot is not positive, and its
/// subclass NonFiniteError when that pivot is NaN or +-Inf.
void potrf(MatrixView a);

/// In-place inversion of a lower-triangular matrix (blocked recursive).
/// The strict upper triangle is ignored and left untouched.
void trtri_lower(MatrixView l);

/// Result of cholinv(): the Cholesky factor and its inverse.
struct CholInvResult {
  Matrix l;      ///< lower-triangular factor, A = L L^T
  Matrix l_inv;  ///< Y = L^{-1}
};

/// [L, Y] <- CholInv(A): Cholesky factor plus its explicit inverse, the
/// sequential routine invoked redundantly by every processor at the CFR3D
/// base case (paper Algorithm 2 base case / Algorithm 3 line 3).
/// `a` is not modified.  Throws like potrf.
[[nodiscard]] CholInvResult cholinv(ConstMatrixView a);

}  // namespace cacqr::lin
