#pragma once
/// \file planner.hpp
/// \brief The autotuning planner: enumerate every way this library can
///        factor an (m, n) matrix on P ranks, score each against a
///        calibrated MachineProfile, and return the winner as a
///        tune::Plan.
///
/// The paper's headline figures plot "the best performing choice of
/// processor grid at each node count" -- tuning IS the algorithm's win
/// condition.  The planner makes that tuning a first-class, cacheable
/// artifact:
///
///   candidates(key) -> every valid configuration across all three
///     variant families, sorted by modeled time ascending:
///       * cqr_1d      -- 1D-CholeskyQR2 on all P ranks (Algorithm 7);
///       * ca_cqr2     -- every valid (c, d) tunable grid (c^2 d = P,
///                       c | d), Algorithm 9;
///       * pgeqrf_2d   -- the ScaLAPACK-style baseline over power-of-two
///                       pr splits and block sizes {16, 32, 64}.
///   plan(key) -> candidates(key).front().
///
/// Scoring is pure arithmetic over model/costs.hpp with the profile's
/// fitted machine (gamma scaled by the measured thread efficiency at
/// key.threads), so every rank of an SPMD run computes the identical
/// plan with no communication.  Timed trial-run refinement of the top-k
/// -- plan_mode=measured -- lives in core::factorize, which owns the
/// data and the communicator the trials must run on.

#include <optional>
#include <type_traits>
#include <vector>

#include "cacqr/lin/kernel.hpp"
#include "cacqr/tune/profile.hpp"

namespace cacqr::tune {

/// What a plan is for: the problem shape, the parallel footprint, and
/// the one FactorizeOptions field that changes the executed algorithm.
struct ProblemKey {
  i64 m = 0;
  i64 n = 0;
  int p = 1;        ///< total ranks
  int threads = 1;  ///< per-rank worker budget
  /// FactorizeOptions::precision: which passes run the fp32 Gram lane.
  /// Part of the key because it changes both the executed arithmetic and
  /// the candidate scores (halved Gram beta, fp32 gamma) -- a plan scored
  /// for one precision must never be served for another.
  Precision precision = Precision::fp64;

  /// Canonical cache-key text, e.g. "m8192_n128_p8_t1_fp64".
  [[nodiscard]] std::string text() const;
};

/// The variant family a plan runs (Algorithms 7 and 9 of the paper, and
/// the ScaLAPACK-style baseline).
enum class Algo { cqr_1d, ca_cqr2, pgeqrf_2d };

/// How a plan was chosen.
enum class PlanSource { model, measured, cache, heuristic };

/// The one spelling of each enumerator, its identifier: the plan-file
/// format, bench output and logs all use these names.
[[nodiscard]] const char* algo_name(Algo a) noexcept;
[[nodiscard]] const char* source_name(PlanSource s) noexcept;

/// One executable configuration with its scores.  `algo` selects the
/// variant; the grid fields that don't apply to it stay 0.  A Plan is
/// trivially copyable, so core::factorize broadcasts it as its own bytes.
struct Plan {
  /// v2: kernel_variant field (which micro-kernel the plan was scored
  /// for); v1 cache files are ignored by the loader.
  /// v3: precision field (which Gram-precision mode the plan was scored
  /// under); v2 cache files are ignored by the loader.
  static constexpr int kSchemaVersion = 3;

  Algo algo = Algo::cqr_1d;
  int c = 0, d = 0;     ///< ca_cqr2 tunable grid (cqr_1d: d = P)
  int pr = 0, pc = 0;   ///< pgeqrf_2d process grid
  i64 block = 0;        ///< pgeqrf_2d panel width
  double predicted_seconds = 0.0;  ///< modeled time under the profile
  double measured_seconds = 0.0;   ///< trial-run time (0 = never trialed)
  PlanSource source = PlanSource::model;
  /// Micro-kernel variant active when this plan was scored/measured (the
  /// planner stamps it; factorize stamps the variant that ran).  A cached
  /// plan whose variant differs from the dispatcher's current pick is
  /// treated as a miss and re-planned: its gamma -- and in measured mode
  /// its trial timings -- belong to a different compute engine.
  lin::kernel::Variant kernel_variant = lin::kernel::Variant::generic;
  /// Gram-precision mode the plan was scored/measured under
  /// (FactorizeOptions::precision).  Like kernel_variant, a cached plan
  /// whose precision differs from the request is a miss: its scores
  /// describe different payload widths and a different compute rate.
  Precision precision = Precision::fp64;

  /// Whether core::factorize can execute this plan for `key`: the grid
  /// covers exactly key.p ranks and fits the shape.  A remembered plan
  /// (memo or cache file) that does not fit is a miss, never an error.
  [[nodiscard]] bool fits(const ProblemKey& key) const noexcept;

  /// Human-readable grid tag matching bench_cacqr's convention
  /// ("p8", "c2d2", "4x2b16").
  [[nodiscard]] std::string grid() const;

  /// The plan-file entry.  from_json reads any spelling to_json wrote and
  /// returns nullopt for anything else (an unknown or empty name, a wrong
  /// schema, a nonsensical grid): a corrupt entry is a miss.
  [[nodiscard]] support::Json to_json() const;
  [[nodiscard]] static std::optional<Plan> from_json(const support::Json& j);

  bool operator==(const Plan&) const = default;
};
static_assert(std::is_trivially_copyable_v<Plan>);

class Planner {
 public:
  explicit Planner(MachineProfile profile);

  /// All valid candidates for the key, sorted by predicted time
  /// ascending (deterministic tie-break: variant order then grid).
  /// Every returned plan fits the key.  Throws EnsureError only for
  /// nonsensical keys (m < n, p < 1).
  [[nodiscard]] std::vector<Plan> candidates(const ProblemKey& key) const;

  /// The model's pick: candidates(key).front(), source == model.
  [[nodiscard]] Plan plan(const ProblemKey& key) const;

 private:
  MachineProfile profile_;
};

}  // namespace cacqr::tune
