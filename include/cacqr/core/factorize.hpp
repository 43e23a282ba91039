#pragma once
/// \file factorize.hpp
/// \brief High-level QR driver: variant/grid selection (heuristic,
///        model-planned, or measured), padding, stability fallback.
///
/// The low-level entry points require grid-divisible dimensions and an
/// explicit configuration.  This driver accepts any m >= n matrix and
/// rank count: it selects a variant and grid, pads the matrix to
/// divisible dimensions with the SPD-preserving augmentation
///
///     A_pad = [ A  0       ]     =>  Q_pad = [ Q  0 ],  R_pad = [ R  0    ]
///             [ 0  delta*I ]                 [ 0  I ]           [ 0  dI   ]
///
/// (zero rows keep the Gram matrix intact; delta-scaled identity columns
/// keep it definite), runs the factorization, and strips the padding.
/// Padding copies A only when it pads; on a shape that already fits, A is
/// scattered as is and the gathered Q and R move into the result.
/// It always runs CholeskyQR2 (or the planner's pick); on a Cholesky
/// breakdown (kappa(A)^2 >~ 1/eps) that a shift can repair, it falls back
/// to shifted CholeskyQR3.  A NaN or Inf pivot (NonFiniteError) is thrown
/// without a retry.
///
/// Configuration selection (`plan_mode`):
///   * `heuristic` (default): the closed-form grid rule `choose_grid`
///     (c = (Pn/m)^(1/3)) on the CA-CQR family -- exactly the historical
///     behavior, bit for bit, with no extra communication.
///   * `model`: the tune:: planner scores every valid configuration of
///     all three variants (1D-CQR2, CA-CQR2 grids with c > 1, the
///     PGEQRF baseline) against a calibrated MachineProfile and the best
///     is executed.
///   * `measured`: like `model`, then the top 3 candidates are trial-run
///     on the actual input through this communicator (timings agreed
///     across ranks by one Allreduce per candidate, so every rank picks
///     the same winner); the winner's trial result is returned directly,
///     so measured mode costs at most 3 trial factorizations total.
/// Both planned modes consult a process-wide memo and the persistent
/// plan cache (`CACQR_TUNE_DIR`, keyed by profile fingerprint + problem
/// key) first, so repeated workloads skip planning -- and in measured
/// mode the trials -- entirely.  Trial runs and cache-hit broadcasts
/// charge the run's cost counters (they are real communication); the
/// heuristic path charges exactly what it always has.

#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/tune/planner.hpp"

namespace cacqr::core {

/// How factorize picks the variant and grid (see file comment).
enum class PlanMode { heuristic, model, measured };

struct FactorizeOptions {
  /// Explicit CA-CQR grid shape; BOTH nonzero forces the CA-CQR family
  /// on this grid regardless of plan_mode.  A partially specified grid
  /// (one of c/d zero) falls back to automatic selection, as the
  /// heuristic driver always did.
  int c = 0;
  int d = 0;
  /// Gram-stage precision of the CholeskyQR families (pgeqrf_2d ignores
  /// it).  fp64 (default) is bit-identical to the always-double driver.
  /// `mixed` runs the FIRST pass's Gram assembly in fp32 -- narrowed
  /// panel, fp32 kernel lane, half-width collective payloads -- and
  /// relies on the fp64 second pass (CholeskyQR2's correction sweep) to
  /// restore fp64-level orthogonality on matrices with kappa(A) within
  /// fp32's CholeskyQR range; beyond that the Gram Cholesky fails and
  /// factorize falls back to full-fp64 shifted CholeskyQR3 exactly as in
  /// fp64 mode.  `fp32` keeps the fp32 Gram for both passes (fastest,
  /// fp32-level accuracy).  All modes stay bitwise deterministic across
  /// thread budgets.
  Precision precision = Precision::fp64;
  /// Variant/grid selection policy (see file comment).
  PlanMode plan_mode = PlanMode::heuristic;
  /// Calibrated profile for model/measured planning; nullptr uses
  /// tune::generic_profile().  Must be identical on every rank (the
  /// usual replicated-options contract).
  const tune::MachineProfile* profile = nullptr;
};

struct FactorizeResult {
  lin::Matrix q;  ///< m x n, gathered on every rank
  lin::Matrix r;  ///< n x n upper triangular, gathered on every rank
  bool used_shift = false;  ///< whether the shifted fallback ran
  /// The configuration that ran (plan.algo; the grid in plan.c/d, or
  /// plan.pr/pc/block for pgeqrf_2d) and how it was chosen (plan.source);
  /// predicted/measured seconds are filled when the planner produced
  /// them.  plan.kernel_variant is always the micro-kernel variant the
  /// local level-3 kernels dispatched to.
  tune::Plan plan;
};

/// Picks the valid (c, d) grid for P ranks closest to the paper's optimum
/// c = (P n / m)^(1/3) (i.e. m/d == n/c), preferring powers of two.
[[nodiscard]] std::pair<int, int> choose_grid(int nranks, i64 m, i64 n);

/// Collective over `world`: every rank passes the same global matrix
/// (e.g. regenerated from a seed) and receives the gathered factors.
/// Convenience driver for moderate sizes -- production users hold the
/// distributed CaCqrResult from ca_cqr2 directly.  Preconditions: m >= n
/// and identical (a, opts) on every rank.  Charge: the selected variant's
/// cost at padded dimensions (padding adds at most one row/column cycle)
/// plus the final gathers; planned modes add their trial runs and plan
/// broadcasts; on a breakdown the shifted CholeskyQR3 retry runs on top.
[[nodiscard]] FactorizeResult factorize(lin::ConstMatrixView a,
                                        const rt::Comm& world,
                                        FactorizeOptions opts = {});

}  // namespace cacqr::core
