#pragma once
/// \file ca_cqr.hpp
/// \brief CA-CQR and CA-CQR2: communication-avoiding CholeskyQR over a
///        tunable c x d x c processor grid (paper Algorithms 8-9).
///
/// The input m x n matrix is distributed cyclically over each slice of the
/// grid (rows over d, columns over c) and replicated across the depth
/// dimension.  One pass:
///
///   1-5. Z = A^T A assembled so that every one of the d/c cubic subgrids
///        owns a full copy distributed over its slice (a row-broadcast,
///        a local Gram product, a reduction within contiguous y-groups,
///        an allreduce across strided y-groups, and a depth broadcast);
///   6-7. CFR3D on each subcube redundantly computes R^T and R^{-T};
///   8.   each subcube multiplies its (m c/d) x n row-panel of A by
///        R^{-1} with MM3D -- no communication crosses subcube boundaries.
///
/// With c = 1 this is exactly 1D-CQR (local Syrk + one Allreduce +
/// redundant factorization + local triangular multiply), so on a c = 1
/// grid ca_cqr, ca_cqr2 and ca_cqr3 run the library's one 1D sweep
/// (cqr_1d.hpp) on g.col(); with c = d = P^(1/3) it is the full 3D
/// algorithm.  The c knob trades the paper's Table I costs: alpha ~ c^2
/// log P, beta ~ mn/(dc) + n^2/c^2, gamma ~ mn^2/(dc^2) + n^3/c^3,
/// memory ~ mn/(dc) + n^2/c^2.

#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/support/precision.hpp"

namespace cacqr::core {

struct CaCqrOptions {
  /// CFR3D base-case dimension (0 = paper default n/c^2; see cfr3d.hpp).
  /// No effect at c = 1, where the 1D sweep runs one local CholInv.
  i64 base_case = 0;
  /// Value added to the Gram matrix diagonal before factorization
  /// (shifted CholeskyQR; see shifted.hpp for the recommended magnitude).
  double shift = 0.0;
  /// The paper's InverseDepth knob (Section III-A; the strong-scaling
  /// legends' third tuple entry).  0 computes the full triangular
  /// inverse and one MM3D for Q = A R^{-1}; depth k > 0 inverts only the
  /// 2^k diagonal blocks of R and computes Q by block back-substitution,
  /// cutting the multiply flops toward half at the cost of ~2x more
  /// synchronization per extra level.  No effect at c = 1 (the local
  /// triangular multiply already exploits structure).  Clamped to the
  /// available recursion depth.
  int inverse_depth = 0;
  /// Gram-stage precision.  fp64 (default) is bit-identical to the
  /// historical path.  Anything else runs the whole Gram assembly
  /// (lines 1-5) in fp32 -- narrowed panel broadcast, fp32 kernel-lane
  /// product, half-width reduce/allreduce/bcast payloads -- then widens
  /// the agreed sum; Cholesky and the Q update stay fp64.  In ca_cqr2,
  /// `mixed` applies the fp32 Gram to the FIRST pass only (the fp64
  /// second pass restores fp64-level orthogonality) while `fp32` keeps
  /// it for both passes.
  Precision precision = Precision::fp64;
};

/// CA-CQR output.
struct CaCqrResult {
  /// Q, distributed exactly like the input A (rows over d, columns over
  /// c, replicated over depth).
  dist::DistMatrix q;
  /// R (n x n upper triangular), distributed over each subcube's slice
  /// (rows and columns over c), replicated over depth and across the d/c
  /// subcubes.
  dist::DistMatrix r;
};

/// Lines 1-5 of Algorithm 8: the Gram matrix Z = A^T A, landed on every
/// subcube slice.  Exposed separately so the per-line cost benches can
/// measure this phase against the paper's Table V rows.  Collective over
/// the whole grid.  Charge: Bcast(mn/(dc), c) + Reduce(n^2/c^2, c) +
/// Allreduce(n^2/c^2, d/c) + Bcast(n^2/c^2, c) (the corrected line-5
/// operand; DESIGN.md section 8) plus the local Gram/gemm gamma.
/// `gram_precision` != fp64 runs the whole stage in fp32: every payload
/// above ships half the words (fp32 pairs riding whole 8-byte words) and
/// the local product uses the fp32 kernel lane; the returned Z is the
/// widened fp64 image of the fp32 sum.
[[nodiscard]] dist::DistMatrix ca_gram(
    const dist::DistMatrix& a, const grid::TunableGrid& g,
    Precision gram_precision = Precision::fp64);

/// Algorithm 8: one CA-CholeskyQR pass.  Throws NotSpdError when the
/// (shifted) Gram matrix is not numerically SPD; every rank throws
/// consistently because the factorization inputs are replicated.
/// Preconditions: `a` distributed over `g` (rows over d, columns over c),
/// m >= n, d | m, c | n, and n >= c^2 for the CFR3D base case.  Charge:
/// ca_gram + CFR3D on the subcube + 2 Transpose(n^2/c^2) + the Q = A
/// R^{-1} multiply (one MM3D of the (m c/d) x n panel when inverse_depth
/// == 0, the block_backsolve sweep otherwise); Table I totals
/// alpha ~ c^2 log P, beta ~ mn/(dc) + n^2/c^2, gamma ~ mn^2/(dc^2) +
/// n^3/c^3.
[[nodiscard]] CaCqrResult ca_cqr(const dist::DistMatrix& a,
                                 const grid::TunableGrid& g,
                                 CaCqrOptions opts = {});

/// Algorithm 9: CA-CholeskyQR2 (two passes, R = R2 * R1 via MM3D): twice
/// the ca_cqr charge plus one compose_r.  Same preconditions.
[[nodiscard]] CaCqrResult ca_cqr2(const dist::DistMatrix& a,
                                  const grid::TunableGrid& g,
                                  CaCqrOptions opts = {});

/// Composes two upper-triangular factors R = R2 * R1 on the subcube with
/// MM3D (Algorithm 9 line 4).  ca_cqr2 and ca_cqr3 call it at c > 1; at
/// c = 1 the 1D sweep composes R itself.
[[nodiscard]] dist::DistMatrix compose_r(const dist::DistMatrix& r2,
                                         const dist::DistMatrix& r1,
                                         const grid::TunableGrid& g);

}  // namespace cacqr::core
