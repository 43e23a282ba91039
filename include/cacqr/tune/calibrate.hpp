#pragma once
/// \file calibrate.hpp
/// \brief The machine calibrator: short microbenchmarks through the
///        existing instrumented kernels and runtime, fitted into a
///        tune::MachineProfile.
///
/// Three measurements (DESIGN.md section 6):
///
///   * **gamma** -- per-thread kernel sweeps: lin::gemm (square and the
///     tall-skinny panel shape CA-CQR2's local multiplies see) and
///     lin::gram at worker budget 1, best-of-reps wall time.  gamma_s is
///     1 / (best sustained flop rate): the planner's flop charges use the
///     same closed-form flop conventions as the kernels, so the pairing
///     is consistent by construction.
///   * **alpha/beta** -- timed rt::Comm collectives: Allreduce over
///     `ranks` rank-threads, max-over-ranks wall time, of one word (t0,
///     latency-bound) and of several payload sizes (least-squares slope
///     B of t(w) - t0 = B*w).  The butterfly Allreduce charges
///     2 ceil(lg P) alpha + 2 w beta, so alpha = t0 / (2 ceil(lg P))
///     and beta = B / 2.  On this SPMD-over-
///     threads runtime the result is the *shared-memory* message cost --
///     exactly what planning for runs on this runtime needs.
///   * **thread scaling** -- the square-gemm sweep repeated at worker
///     budgets {2, 4, ...} up to the host's hardware threads; stored as
///     speedup-over-budget-1 and folded into gamma by
///     MachineProfile::machine_at.
///
/// Calibration is wall-clock measurement: results vary run to run within
/// noise.  The fitted parameters are clamped to positive floors so a
/// noisy fit can never produce a non-positive (or absurdly small) cost
/// coefficient.

#include "cacqr/tune/profile.hpp"

namespace cacqr::tune {

struct CalibrateOptions {
  /// Smaller shapes, fewer reps, fewer payload sizes (CI smoke mode).
  bool quick = false;
  /// Timing repetitions per point (best-of).
  int reps = 3;
  /// Rank count for the collective timing runs.  They always run on the
  /// `modeled` transport (ranks as threads of this process) rather than
  /// deferring to CACQR_TRANSPORT: the fitted alpha/beta must describe
  /// the backend the planner's plans will actually run on, and must not
  /// silently change because the test environment selected a different
  /// transport.
  int ranks = 4;
};

/// Runs the microbenchmarks and returns the fitted profile
/// (`calibrated == "measured"`).  Wall-clock cost: well under a second in
/// quick mode, a few seconds otherwise.  Must be called OUTSIDE
/// rt::Runtime::run (it launches its own runtime for the collective
/// fits).
[[nodiscard]] MachineProfile calibrate(const CalibrateOptions& opts = {});

}  // namespace cacqr::tune
