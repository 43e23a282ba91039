#pragma once
/// \file shifted.hpp
/// \brief Shifted CholeskyQR3: the unconditionally stable extension the
///        paper's conclusion points to (Fukaya, Kannan, Nakatsukasa,
///        Yamamoto, Yanagisawa, 2018; paper reference [3]).
///
/// Plain CholeskyQR2 requires kappa(A) <~ eps^{-1/2}: beyond that the Gram
/// matrix is numerically indefinite and the Cholesky factorization fails.
/// Shifted CholeskyQR adds s ~ 11 (mn + n(n+1)) eps ||A||_2^2 to the Gram
/// diagonal, making the first factorization succeed for kappa up to
/// ~eps^{-1}; the resulting Q1 has kappa(Q1) <~ eps^{-1/2}, so a regular
/// CholeskyQR2 finishes the job with Householder-level orthogonality.
/// Total: three passes (CQR3).

#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/core/cqr.hpp"

namespace cacqr::core {

/// The Fukaya-et-al. shift for an m x n matrix given (an upper bound on)
/// ||A||_2^2.  The callers below bound ||A||_2^2 by ||A||_F^2, which only
/// enlarges the shift -- harmless, since subsequent passes repair R.
[[nodiscard]] double recommended_shift(i64 m, i64 n, double norm2_sq);

/// Sequential shifted CholeskyQR3.
[[nodiscard]] QrFactors shifted_cqr3(lin::ConstMatrixView a);

/// Distributed shifted CholeskyQR3 over the tunable grid: one shifted
/// CA-CQR pass followed by CA-CQR2, R = (R3 R2) R1 composed on the
/// subcube, all in fp64 (opts.shift and opts.precision are ignored).  At
/// c = 1 this is the 1D sweep's passes = 3.  Same preconditions as
/// ca_cqr; charge: three ca_cqr passes + two compose_r (one extra 1-word
/// slice Allreduce for the Frobenius norm bound).
[[nodiscard]] CaCqrResult ca_cqr3(const dist::DistMatrix& a,
                                  const grid::TunableGrid& g,
                                  CaCqrOptions opts = {});

}  // namespace cacqr::core
