#pragma once
/// \file cqr_1d.hpp
/// \brief The existing parallel 1D-CholeskyQR2 (paper Algorithms 6-7).
///
/// The matrix is partitioned by rows over a 1D grid of P ranks (cyclic,
/// matching the DistMatrix convention with row_procs == P, col_procs == 1).
/// Each rank forms its local Gram contribution, one Allreduce sums it, all
/// ranks factor redundantly, and Q is computed locally -- total cost
/// O(log P) alpha + n^2 beta + (mn^2/P + n^3) gamma (paper Table I).  The
/// per-rank O(n^2) memory and O(n^3) redundant compute are what restrict
/// this variant to very overdetermined matrices and what CA-CQR2 removes.
///
/// Both entry points run the library's one 1D sweep on a batch of one:
/// the stacked pass that factorize_batched (batched.hpp) runs over a
/// whole micro-batch.  A direct call on a panel whose rows divide evenly
/// over the ranks (factorize_batched pads the others) therefore gives
/// the same bytes as that panel's batched item.

#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/support/precision.hpp"

namespace cacqr::core {

/// 1D result: Q distributed like A; R replicated on every rank.
struct Cqr1dResult {
  dist::DistMatrix q;
  lin::Matrix r;
};

/// Algorithm 6: one 1D-CholeskyQR pass.  `a` must have col_procs == 1 and
/// row_procs == comm.size() with my_row == comm.rank(), and m >= n.
/// Collective.  Per-rank charge: one Allreduce(n^2, P) -- 2 ceil(lg P)
/// alpha + 2 n^2 beta -- plus (m/P) n (n+1) + n^3/3 + (m/P) n (n+1) gamma
/// (local Gram, redundant CholInv, local triangular multiply).  Throws
/// NotSpdError consistently on every rank (the factorization input is
/// replicated by the Allreduce).
///
/// `gram_precision` != fp64 runs the Gram stage in fp32: the local panel
/// is narrowed, the Gram product runs through the fp32 kernel lane, and
/// the Allreduce ships a half-width payload (n^2 beta instead of 2 n^2),
/// after which the sum is widened and everything downstream (CholInv,
/// the triangular multiply) stays fp64.  The rounding is elementwise and
/// the collective schedule unchanged, so the result is still bitwise
/// deterministic across thread budgets and overlap settings.
[[nodiscard]] Cqr1dResult cqr_1d(const dist::DistMatrix& a,
                                 const rt::Comm& comm,
                                 Precision gram_precision = Precision::fp64);

/// Algorithm 7: 1D-CholeskyQR2: twice the cqr_1d charge plus the
/// redundant sequential compose R = R2 * R1 on every rank.  `precision`
/// maps onto the two passes: fp64 keeps both Grams in fp64 (bit-identical
/// to the historical driver), `mixed` runs the FIRST pass's Gram in fp32
/// and lets the full-precision second pass restore fp64-level
/// orthogonality (the CholeskyQR2 correction argument), `fp32` runs both
/// Grams in fp32.
[[nodiscard]] Cqr1dResult cqr2_1d(const dist::DistMatrix& a,
                                  const rt::Comm& comm,
                                  Precision precision = Precision::fp64);

}  // namespace cacqr::core
