#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>

#include "cacqr/baseline/pgeqrf_2d.hpp"
#include "cacqr/core/batched.hpp"
#include "cacqr/core/factorize.hpp"
#include "cacqr/core/shifted.hpp"
#include "internal.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/parallel.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/obs/trace.hpp"
#include "cacqr/support/timer.hpp"
#include "cacqr/tune/cache.hpp"

namespace cacqr::core {

using dist::DistMatrix;

std::pair<int, int> choose_grid(int nranks, i64 m, i64 n) {
  ensure_dim(nranks >= 1 && m >= n && n >= 1, "choose_grid: bad arguments");
  const double c_ideal = std::cbrt(static_cast<double>(nranks) *
                                   static_cast<double>(n) /
                                   static_cast<double>(m));
  int best_c = 1;
  int best_d = nranks;
  double best_score = std::abs(std::log(1.0 / std::max(c_ideal, 1e-300)));
  for (int c = 2; static_cast<long long>(c) * c * c <= nranks; ++c) {
    if (nranks % (c * c) != 0) continue;
    const int d = nranks / (c * c);
    if (d % c != 0) continue;
    const double score = std::abs(std::log(static_cast<double>(c) / c_ideal));
    if (score < best_score) {
      best_score = score;
      best_c = c;
      best_d = d;
    }
  }
  return {best_c, best_d};
}

// ------------------------------------------------------ variant execution

namespace {

/// How many of the model's top candidates plan_mode=measured trial-runs.
constexpr std::size_t kTrialTopK = 3;

/// The padded matrix (see factorize.hpp): a view of the caller's matrix
/// when its shape already fits, else of `owned`, the padded copy.
/// Move-only: a move keeps `owned`'s buffer and so `a`; a copy would not.
struct Padded {
  lin::Matrix owned;
  lin::ConstMatrixView a;
  i64 m = 0;  ///< original rows
  i64 n = 0;  ///< original cols

  Padded(lin::ConstMatrixView view, i64 rows, i64 cols)
      : a(view), m(rows), n(cols) {}
  Padded(lin::Matrix padded, i64 rows, i64 cols)
      : owned(std::move(padded)), a(owned.view()), m(rows), n(cols) {}
  Padded(Padded&&) noexcept = default;
};

/// Pads columns to a multiple of `col_mult` (delta-scaled identity) and
/// rows to a multiple of `row_mult` (zero rows), keeping m_pad >= n_pad.
/// Copies only when it pads.
Padded pad_to_multiples(lin::ConstMatrixView a, i64 row_mult,
                        i64 col_mult) {
  const i64 m = a.rows;
  const i64 n = a.cols;
  const i64 n_pad = round_up(n, col_mult);
  const i64 m_pad = round_up(std::max(m + (n_pad - n), n_pad), row_mult);
  if (m_pad == m && n_pad == n) return {a, m, n};
  const double fro = lin::frob_norm(a);
  const double delta =
      fro > 0.0 ? fro / std::sqrt(static_cast<double>(n)) : 1.0;
  lin::Matrix padded(m_pad, n_pad);
  lin::copy(a, padded.sub(0, 0, m, n));
  for (i64 j = n; j < n_pad; ++j) {
    padded(m + (j - n), j) = delta;
  }
  return {std::move(padded), m, n};
}

/// The leading rows x cols block of a gathered factor: `full` itself when
/// nothing was padded, else a copy.
lin::Matrix strip(lin::Matrix full, i64 rows, i64 cols) {
  if (full.rows() == rows && full.cols() == cols) return full;
  return lin::materialize(full.sub(0, 0, rows, cols));
}

Padded pad_for_grid(lin::ConstMatrixView a, int c, int d) {
  return pad_to_multiples(a, d, c);
}

/// The CA-CQR path on an explicit (c, d) grid for a panel padded by
/// pad_for_grid(a, c, d).
FactorizeResult run_ca_cqr(const Padded& padded, const rt::Comm& world,
                           const FactorizeOptions& opts, int c, int d) {
  grid::TunableGrid g(world, c, d);
  DistMatrix da = DistMatrix::from_global_on_tunable(padded.a, g);

  FactorizeResult out;
  // The shifted fallback below always runs full fp64 (ca_cqr3 rebuilds
  // its per-pass options), so opts.precision only reaches CQR2's passes.
  const CaCqrOptions run_opts{.precision = opts.precision};

  CaCqrResult fact;
  try {
    fact = ca_cqr2(da, g, run_opts);
  } catch (const NonFiniteError&) {
    throw;  // a NaN or Inf pivot: no shift repairs it
  } catch (const NotSpdError&) {
    // Every rank fails identically (replicated factorization inputs),
    // so every rank lands here and retries collectively.
    fact = ca_cqr3(da, g, run_opts);
    out.used_shift = true;
  }

  // Gather and strip the padding.
  out.q = strip(dist::gather(fact.q, g.slice()), padded.m, padded.n);
  out.r = strip(dist::gather(fact.r, g.subcube().slice()), padded.n,
                        padded.n);
  return out;
}

/// 1D-CholeskyQR2 (Algorithms 6-7) on all P ranks: rows padded to a
/// multiple of P (zero rows only -- the Gram matrix is untouched), no
/// column padding.  Delegates to the batched driver with a batch of one,
/// shifted fallback included, so a standalone job and a micro-batched
/// job execute literally the same code (the serve/ bitwise-identity
/// contract; see batched.hpp).
FactorizeResult run_cqr_1d(lin::ConstMatrixView a, const rt::Comm& world,
                           const FactorizeOptions& opts) {
  const lin::ConstMatrixView panels[1] = {a};
  std::vector<BatchedItem> items =
      factorize_batched(panels, world, {.precision = opts.precision});
  BatchedItem& item = items.front();
  if (!item.ok) std::rethrow_exception(item.error);

  FactorizeResult out;
  out.used_shift = item.used_shift;
  out.q = std::move(item.q);
  out.r = std::move(item.r);
  return out;
}

/// The ScaLAPACK-style 2D Householder baseline.  Block-cyclic layout
/// needs block*pr | m and block*lcm(pr, pc) | n (the n x n R lives on
/// the same grid); the delta augmentation keeps the padded matrix full
/// rank, and sign normalization makes the factors unique, so stripping
/// recovers the Householder factors of A.
FactorizeResult run_pgeqrf(lin::ConstMatrixView a, const rt::Comm& world,
                           int pr, int pc, i64 block) {
  ensure_dim(pr >= 1 && pc >= 1 && block >= 1 &&
                 pr * pc == world.size(),
             "factorize: pgeqrf grid ", pr, "x", pc, " invalid for ",
             world.size(), " ranks");
  const i64 col_mult = block * std::lcm<i64>(pr, pc);
  Padded padded = pad_to_multiples(a, block * pr, col_mult);

  baseline::ProcGrid2d g(world, pr, pc);
  auto da = baseline::BlockCyclicMatrix::from_global(padded.a, block, g);
  baseline::Pgeqrf2dResult fact = baseline::pgeqrf_2d(da, g);

  FactorizeResult out;
  out.q = strip(fact.q.gather(g), padded.m, padded.n);
  out.r = strip(fact.r.gather(g), padded.n, padded.n);
  return out;
}

/// Executes `plan` (which must fit `world`).
FactorizeResult run_plan(lin::ConstMatrixView a, const rt::Comm& world,
                         const FactorizeOptions& opts,
                         const tune::Plan& plan) {
  if (plan.algo == tune::Algo::cqr_1d) return run_cqr_1d(a, world, opts);
  if (plan.algo == tune::Algo::pgeqrf_2d) {
    return run_pgeqrf(a, world, plan.pr, plan.pc, plan.block);
  }
  return run_ca_cqr(pad_for_grid(a, plan.c, plan.d), world, opts, plan.c,
                    plan.d);
}

// ------------------------------------------------------- plan resolution

/// A remembered plan may satisfy this request only if it fits AND, in
/// measured mode, actually went through trials -- otherwise a
/// model-sourced memo/cache entry would silently relabel the model pick
/// as "measured".  (The reverse is fine: model mode happily reuses a
/// measured winner -- that is the cache remembering what won.)  A plan
/// scored or trialed under a different micro-kernel variant than the one
/// the dispatcher currently runs is also rejected: its gamma and timings
/// describe a different compute engine.
bool plan_acceptable(const tune::Plan& plan, const tune::ProblemKey& key,
                    PlanMode mode) {
  if (plan.kernel_variant != lin::kernel::active_variant()) return false;
  // Same gate for precision: a plan scored (or trialed) under another
  // Gram-precision mode describes different payload widths and compute
  // rates -- and in measured mode, different executed arithmetic.
  if (plan.precision != key.precision) return false;
  return plan.fits(key) &&
         (mode != PlanMode::measured || plan.measured_seconds > 0.0);
}

/// Process-wide plan memo: repeated factorize calls in one process skip
/// planning, the cache file, and (in measured mode) the trials.  Keyed
/// by profile fingerprint + problem key, so it can never alias across
/// profiles.  Only rank 0 of a world ever touches it (non-roots follow
/// the broadcast), so concurrent worlds resolving the same key cannot
/// diverge mid-collective.  Leaked intentionally: rank threads may
/// outlive static destructors.
struct PlanMemo {
  std::mutex mu;
  std::map<std::string, tune::Plan> map;
  static PlanMemo& instance() {
    static PlanMemo* memo = new PlanMemo();
    return *memo;
  }
  std::optional<tune::Plan> lookup(const std::string& memo_key) {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = map.find(memo_key);
    return it == map.end() ? std::nullopt
                           : std::optional<tune::Plan>(it->second);
  }
  void insert(const std::string& memo_key, const tune::Plan& plan) {
    std::lock_guard<std::mutex> lock(mu);
    map.insert_or_assign(memo_key, plan);
  }
};

/// Serializes rank-0 plan resolution across concurrently running worlds
/// (the serving scheduler drives many factorize calls from one process):
/// the first caller through a cold key plans and publishes to the memo;
/// callers arriving behind it then take the memo hit instead of racing
/// the cache file or re-planning the same key.  Never held across a
/// collective -- a blocked rank-0 only ever waits on another rank-0 that
/// is doing pure local work -- so worlds cannot deadlock through it.
/// Leaked for the same lifetime reason as PlanMemo.
std::mutex& resolve_mutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

/// Resolves the plan for a non-heuristic mode and, in measured mode, may
/// already produce the winning factorization result (the winner's trial
/// is reused instead of re-run).  Collective: rank 0 resolves profile,
/// memo, and cache, then one broadcast distributes either the final
/// plan or the candidate list to trial.
tune::Plan resolve_plan(lin::ConstMatrixView a, const rt::Comm& world,
                        const FactorizeOptions& opts,
                        std::optional<FactorizeResult>* trial_result) {
  const tune::ProblemKey key{a.rows, a.cols, world.size(),
                             lin::parallel::thread_budget(), opts.precision};
  // Rank 0 alone resolves memo, cache and planner into `plans`: one final
  // plan, or the candidates to trial.  One broadcast then ships a header
  // word (-1 for a final plan, else the candidate count) and the plans as
  // their bytes, so ranks can never diverge on what a file or the process
  // memo said.  Model mode never trials, so it ships exactly one plan.
  static_assert(sizeof(tune::Plan) % sizeof(double) == 0);
  std::vector<tune::Plan> plans(
      opts.plan_mode == PlanMode::measured ? kTrialTopK : std::size_t{1});
  const std::size_t plan_bytes = plans.size() * sizeof(tune::Plan);
  std::vector<double> wire(1 + plan_bytes / sizeof(double), 0.0);

  const tune::PlanCache cache = tune::PlanCache::from_env();
  std::string fingerprint;  // rank 0 only (non-roots follow the bcast)
  bool store_needed = false;  // rank 0 only: freshly planned, not remembered
  if (world.rank() == 0) {
    const std::lock_guard<std::mutex> resolve_lock(resolve_mutex());
    // Profile precedence: the caller's, else a calibration persisted by
    // bench_tune --save for this host, else the generic fallback.
    tune::MachineProfile loaded;
    const tune::MachineProfile* profile = opts.profile;
    if (profile == nullptr) {
      auto saved = cache.load_profile(tune::host_fingerprint());
      loaded = saved ? std::move(*saved) : tune::generic_profile();
      profile = &loaded;
    }
    fingerprint = profile->fingerprint();
    const std::string memo_key = fingerprint + "|" + key.text();

    const auto usable = [&](const std::optional<tune::Plan>& p) {
      return p && plan_acceptable(*p, key, opts.plan_mode);
    };
    std::optional<tune::Plan> final = PlanMemo::instance().lookup(memo_key);
    if (!usable(final)) final = cache.load(fingerprint, key);
    if (!usable(final)) final.reset();
    if (final) {
      wire[0] = -1.0;
      plans[0] = *final;
    } else {
      store_needed = true;
      const std::vector<tune::Plan> cands =
          tune::Planner(*profile).candidates(key);
      ensure(!cands.empty(), "factorize: no valid plan for ", key.text());
      if (opts.plan_mode == PlanMode::model) {
        wire[0] = -1.0;
        plans[0] = cands.front();
      } else {
        const std::size_t k = std::min(cands.size(), kTrialTopK);
        wire[0] = static_cast<double>(k);
        std::copy_n(cands.begin(), k, plans.begin());
      }
    }
    std::memcpy(wire.data() + 1, plans.data(), plan_bytes);
  }
  world.bcast(wire, 0);
  // void*: Plan is trivially copyable despite its member initializers.
  std::memcpy(static_cast<void*>(plans.data()), wire.data() + 1, plan_bytes);

  tune::Plan winner;
  if (wire[0] < 0.0) {
    winner = plans[0];
  } else {
    // Trial-run the candidates on the real input.  One Allreduce per
    // trial makes every rank score each candidate by the summed wall
    // time, so the argmin (ties to the lower, better-modeled index) is
    // agreed without any rank-dependent branching.
    const auto k = static_cast<std::size_t>(wire[0]);
    double best_score = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      world.barrier();
      WallTimer timer;
      FactorizeResult res = run_plan(a, world, opts, plans[i]);
      world.barrier();
      double score[1] = {timer.seconds()};
      world.allreduce_sum(score);
      if (i == 0 || score[0] < best_score) {
        best_score = score[0];
        winner = plans[i];
        *trial_result = std::move(res);
      }
    }
    winner.measured_seconds = best_score / world.size();  // mean over ranks
    winner.source = tune::PlanSource::measured;
  }

  if (world.rank() == 0) {
    const std::lock_guard<std::mutex> resolve_lock(resolve_mutex());
    // Remembered plans (memo or cache file hits) are already persisted:
    // only fresh planning/trial outcomes touch the file, so memo-served
    // repeat calls do zero I/O.
    if (store_needed) cache.store(fingerprint, key, winner);
    PlanMemo::instance().insert(fingerprint + "|" + key.text(), winner);
  }
  return winner;
}

}  // namespace

FactorizeResult factorize(lin::ConstMatrixView a, const rt::Comm& world,
                          FactorizeOptions opts) {
  ensure_dim(a.rows >= a.cols && a.cols >= 1,
             "factorize: requires m >= n >= 1");

  obs::SpanScope span("core", "factorize");
  span.arg("m", static_cast<double>(a.rows));
  span.arg("n", static_cast<double>(a.cols));

  // Explicit grid or the historical heuristic: the CA-CQR family with
  // the closed-form grid rule, a plan no rank needs to broadcast.
  tune::Plan plan;
  std::optional<FactorizeResult> trial_result;
  if ((opts.c != 0 && opts.d != 0) || opts.plan_mode == PlanMode::heuristic) {
    plan.algo = tune::Algo::ca_cqr2;
    plan.c = opts.c;
    plan.d = opts.d;
    if (plan.c == 0 || plan.d == 0) {
      std::tie(plan.c, plan.d) = choose_grid(world.size(), a.rows, a.cols);
    }
    ensure_dim(grid::TunableGrid::valid_shape(world.size(), plan.c, plan.d),
               "factorize: grid ", plan.c, "x", plan.d, "x", plan.c,
               " invalid for ", world.size(), " ranks");
    plan.source = tune::PlanSource::heuristic;
    plan.precision = opts.precision;
  } else {
    plan = resolve_plan(a, world, opts, &trial_result);
  }
  FactorizeResult out = trial_result.has_value()
                            ? std::move(*trial_result)
                            : run_plan(a, world, opts, plan);
  out.plan = plan;
  out.plan.kernel_variant = lin::kernel::active_variant();
  return out;
}

}  // namespace cacqr::core
