#pragma once
/// \file profile.hpp
/// \brief tune::MachineProfile: what the calibrator measured about THIS
///        host, in the form the planner scores candidates with.
///
/// Where model/machine.hpp holds hand-set presets for the paper's
/// machines (Stampede2, Blue Waters), a MachineProfile is *measured*: the
/// calibrator fits alpha/beta from timed runtime collectives and gamma
/// from kernel sweeps on the machine actually running the job
/// (DESIGN.md section 6).  The profile carries
///
///   * a fitted model::Machine (the planner evaluates model/costs.hpp
///     formulas against it),
///   * the raw kernel-efficiency table the gamma fit came from (useful
///     for inspection and for bench_tune's JSON artifact),
///   * measured intra-rank thread-scaling efficiencies (budget ->
///     speedup), which the planner folds into gamma when the problem key
///     says ranks run with a worker budget > 1,
///   * a host fingerprint + a parameter digest, which together key the
///     persistent plan cache: plans never leak across hosts or across
///     differently-calibrated profiles.

#include <string>
#include <vector>

#include "cacqr/model/machine.hpp"
#include "cacqr/support/json.hpp"
#include "cacqr/support/precision.hpp"

namespace cacqr::tune {

/// One measured kernel rate (per-thread, i.e. worker budget 1).
struct KernelSample {
  std::string kernel;  ///< "gemm_nn" | "gemm_tn" | "gram" | ...
  i64 m = 0;
  i64 n = 0;
  i64 k = 0;
  double gflops = 0.0;
  /// Micro-kernel variant the sample was measured with (lin::kernel
  /// variant name); "" on pre-variant profiles.
  std::string variant;
};

/// Measured intra-rank thread scaling: at worker budget `threads` the
/// calibration kernel ran `speedup` times faster than at budget 1.
struct ThreadScaling {
  int threads = 1;
  double speedup = 1.0;
};

/// Everything the calibrator measured about ONE micro-kernel variant:
/// its fitted compute rate at worker budget 1 and its thread scaling,
/// both measured with that variant forced active.  The planner scores a
/// candidate with the gamma of the variant the driver will actually
/// dispatch to, not a variant-blind average.
struct VariantCalibration {
  std::string variant;   ///< lin::kernel variant name ("generic", ...)
  double gamma_s = 0.0;  ///< fitted seconds per flop at worker budget 1
  double peak_gflops = 0.0;  ///< best measured rate across the sweeps
  /// fp32-lane rate of the same variant: seconds per (closed-form) flop
  /// through the fp32 micro-kernel at worker budget 1.  The fp32 kernels
  /// charge the same flop counts as their fp64 twins, so this is directly
  /// comparable to gamma_s (roughly gamma_s / 2 on SIMD variants whose
  /// registers hold twice the lanes).  0 = never measured; machine_for
  /// then falls back to gamma_s, i.e. the planner models fp32 compute as
  /// no faster than fp64 and any mixed-precision win comes from the
  /// halved collective payloads alone.
  double gamma32_s = 0.0;
  double peak_gflops32 = 0.0;  ///< best measured fp32-lane rate
  std::vector<ThreadScaling> scaling;  ///< sorted, includes {1, 1}
};

struct MachineProfile {
  /// Schema version of the serialized form; bump on breaking changes.
  /// Loaders ignore files whose version differs (never fatal).
  /// v2: per-variant kernel table (variants / kernel_variant fields,
  /// variant-tagged kernel samples).
  /// v3: per-precision gamma (gamma32_s / peak_gflops32 per variant).
  static constexpr int kSchemaVersion = 3;

  model::Machine machine;  ///< fitted alpha_s / beta_s / gamma_s
  std::vector<KernelSample> kernels;
  std::vector<ThreadScaling> scaling;  ///< sorted by threads, includes {1, 1}
  /// Per-variant calibration table, one entry per host-executable variant
  /// swept by the calibrator (fixed variant order).  May be empty on a
  /// hand-built profile; machine_for falls back to the fitted machine.
  std::vector<VariantCalibration> variants;
  /// The calibrator's pick: the variant whose measured rates back the
  /// top-level gamma_s/scaling (its fastest).  "" on hand-built profiles.
  std::string kernel_variant;
  std::string host;        ///< host fingerprint (hostname, cpu, hw threads)
  std::string calibrated;  ///< "measured" or "generic" (the fallback)

  /// Measured speedup at the given per-rank worker budget: exact table hit,
  /// else the largest measured budget <= threads (conservative -- never
  /// extrapolates beyond what was measured).
  [[nodiscard]] double thread_speedup(int threads) const noexcept;

  /// Effective machine for ranks running `threads` workers each: gamma is
  /// divided by thread_speedup(threads); alpha/beta are per-rank already.
  [[nodiscard]] model::Machine machine_at(int threads) const;

  /// Effective machine for ranks dispatching to the named micro-kernel
  /// variant at the given worker budget: gamma and the thread speedup
  /// come from that variant's calibration entry.  A variant that was
  /// never calibrated (empty name, or one this profile predates) takes
  /// the entry of the profile's own `kernel_variant`, and a profile
  /// listing neither (hand-built) falls back to machine_at(threads).
  /// `precision` != fp64 substitutes the entry's fp32-lane gamma
  /// (gamma32_s) when it was measured; an unmeasured fp32 lane falls back
  /// to the fp64 gamma of the same entry, never to another variant.
  [[nodiscard]] model::Machine machine_for(
      std::string_view variant, int threads,
      Precision precision = Precision::fp64) const;

  /// Cache key component: host fingerprint plus an FNV-1a digest of the
  /// fitted parameters, so differently-calibrated profiles on one host
  /// never share cached plans.
  [[nodiscard]] std::string fingerprint() const;

  /// Deterministic serialization (includes kSchemaVersion).
  [[nodiscard]] support::Json to_json() const;
  /// Rejects missing/mismatched schema or non-finite/non-positive fitted
  /// parameters; never throws.
  [[nodiscard]] static std::optional<MachineProfile> from_json(
      const support::Json& j);
};

/// Stable description of this host: hostname, cpu model (when readable
/// from /proc/cpuinfo), and hardware thread count.  Identical across
/// processes on one machine; the plan cache is keyed by it.
[[nodiscard]] std::string host_fingerprint();

/// The no-calibration fallback profile: nominal laptop-class constants
/// (documented in DESIGN.md section 6) with `calibrated == "generic"`.
/// Deterministic, so plan_mode=model works out of the box -- but its
/// absolute predictions are only as good as the guess; calibrate for the
/// real machine.
[[nodiscard]] MachineProfile generic_profile();

/// FNV-1a 64-bit hash rendered as 16 hex chars (cache file names, profile
/// digests).  Deterministic across platforms.
[[nodiscard]] std::string fnv1a_hex(std::string_view text);

}  // namespace cacqr::tune
