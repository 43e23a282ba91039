#include <cmath>
#include <cstdlib>
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

Precision default_precision() {
  // Not latched through call_once: parse_precision is cheap, and
  // re-resolving keeps a misconfigured environment failing on every
  // call (the CACQR_KERNEL contract) instead of only the first.
  const char* s = std::getenv("CACQR_PRECISION");
  if (s == nullptr || *s == '\0') return Precision::fp64;
  const std::optional<Precision> p = parse_precision(s);
  ensure(p.has_value(), "CACQR_PRECISION: unrecognized precision \"", s,
         "\" (expected fp64, mixed, or fp32)");
  return *p;
}

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

/// The historical CA-CQR path on an explicit (c, d) grid.
FactorizeResult detail::run_ca_cqr(const Padded& padded,
                                   const rt::Comm& world,
                                   const FactorizeOptions& opts, int c,
                                   int d) {
  grid::TunableGrid g(world, c, d);
  DistMatrix da = DistMatrix::from_global_on_tunable(padded.a, g);

  FactorizeResult out;
  out.algo = "ca_cqr";
  out.c = c;
  out.d = d;
  // The shifted fallback below always runs full fp64 (ca_cqr3 rebuilds
  // its per-pass options), so opts.precision only reaches the plain
  // CQR/CQR2 passes.
  const CaCqrOptions run_opts{.base_case = opts.base_case, .shift = 0.0,
                              .precision = opts.precision};

  CaCqrResult fact;
  if (opts.passes == 3) {
    fact = ca_cqr3(da, g, run_opts);
    out.used_shift = true;
  } else {
    try {
      fact = opts.passes == 1 ? ca_cqr(da, g, run_opts)
                              : ca_cqr2(da, g, run_opts);
    } catch (const NotSpdError&) {
      if (!opts.auto_shift) throw;
      // Every rank fails identically (replicated factorization inputs),
      // so every rank lands here and retries collectively.
      fact = ca_cqr3(da, g, run_opts);
      out.used_shift = true;
    }
  }

  // Gather and strip the padding.
  lin::Matrix q_full = dist::gather(fact.q, g.slice());
  lin::Matrix r_full = dist::gather(fact.r, g.subcube().slice());
  out.q = lin::materialize(q_full.sub(0, 0, padded.m, padded.n));
  out.r = lin::materialize(r_full.sub(0, 0, padded.n, padded.n));
  return out;
}

namespace {

// Padding helpers live in internal.hpp so factorize_batched pads
// byte-identically.
using detail::Padded;
using detail::pad_for_grid;
using detail::pad_to_multiples;
using detail::run_ca_cqr;

/// 1D-CholeskyQR2 (Algorithms 6-7) on all P ranks: rows padded to a
/// multiple of P (zero rows only -- the Gram matrix is untouched), no
/// column padding.  The shifted fallback reuses the c=1 grid path.
/// Delegates to the batched driver with a batch of one, so a standalone
/// job and a micro-batched job execute literally the same code (the
/// serve/ bitwise-identity contract; see batched.hpp).
FactorizeResult run_cqr_1d(lin::ConstMatrixView a, const rt::Comm& world,
                           const FactorizeOptions& opts) {
  const lin::ConstMatrixView panels[1] = {a};
  std::vector<BatchedItem> items = factorize_batched(
      panels, world,
      {.passes = opts.passes, .auto_shift = opts.auto_shift,
       .base_case = opts.base_case, .precision = opts.precision});
  BatchedItem& item = items.front();
  if (!item.ok) std::rethrow_exception(item.error);

  FactorizeResult out;
  out.algo = "cqr_1d";
  out.c = 1;
  out.d = world.size();
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
  out.algo = "pgeqrf_2d";
  out.c = 0;
  out.d = 0;
  out.pr = pr;
  out.pc = pc;
  out.block = block;
  lin::Matrix q_full = fact.q.gather(g);
  lin::Matrix r_full = fact.r.gather(g);
  out.q = lin::materialize(q_full.sub(0, 0, padded.m, padded.n));
  out.r = lin::materialize(r_full.sub(0, 0, padded.n, padded.n));
  return out;
}

/// Executes `plan` (which must fit `world`).
FactorizeResult run_plan(lin::ConstMatrixView a, const rt::Comm& world,
                         const FactorizeOptions& opts,
                         const tune::Plan& plan) {
  if (plan.algo == "cqr_1d") return run_cqr_1d(a, world, opts);
  if (plan.algo == "pgeqrf_2d") {
    return run_pgeqrf(a, world, plan.pr, plan.pc, plan.block);
  }
  return run_ca_cqr(pad_for_grid(a, plan.c, plan.d), world, opts, plan.c,
                    plan.d);
}

// ------------------------------------------------------- plan resolution

/// A plan is executable for this key iff its configuration matches the
/// rank count and basic shape preconditions.  Cached plans that fail
/// this (stale or corrupted files) are treated as cache misses.
bool plan_fits(const tune::Plan& plan, const tune::ProblemKey& key) {
  if (plan.algo == "cqr_1d") return plan.d == key.p;
  if (plan.algo == "ca_cqr2") {
    return grid::TunableGrid::valid_shape(key.p, plan.c, plan.d) &&
           static_cast<i64>(plan.c) * plan.c <= key.n && plan.d <= key.m;
  }
  if (plan.algo == "pgeqrf_2d") {
    return plan.pr >= 1 && plan.pc >= 1 && plan.block >= 1 &&
           static_cast<long long>(plan.pr) * plan.pc == key.p;
  }
  return false;
}

/// A remembered plan may satisfy this request only if it fits AND, in
/// measured mode, actually went through trials -- otherwise a
/// model-sourced memo/cache entry would silently relabel the model pick
/// as "measured".  (The reverse is fine: model mode happily reuses a
/// measured winner -- that is the cache remembering what won.)  A plan
/// scored or trialed under a different micro-kernel variant than the one
/// the dispatcher currently runs is also rejected: its gamma and timings
/// describe a different compute engine (variant-less legacy plans pass).
bool plan_acceptable(const tune::Plan& plan, const tune::ProblemKey& key,
                    PlanMode mode) {
  if (!plan.kernel_variant.empty() &&
      plan.kernel_variant !=
          lin::kernel::variant_name(lin::kernel::active_variant())) {
    return false;
  }
  // Same gate for precision: a plan scored (or trialed) under another
  // Gram-precision mode describes different payload widths and compute
  // rates -- and in measured mode, different executed arithmetic.
  if (plan.precision != key.precision) return false;
  return plan_fits(plan, key) &&
         (mode != PlanMode::measured || plan.measured_seconds > 0.0);
}

/// Fixed-width wire form of one Plan (11 doubles): rank 0 resolves
/// memo/cache/planner and broadcasts, so ranks can never diverge on
/// what a file or the process memo said.
constexpr std::size_t kPlanWords = 11;

double encode_variant(const std::string& name) {
  if (name == "generic") return 1.0;
  if (name == "avx2") return 2.0;
  if (name == "avx512") return 3.0;
  if (name == "neon") return 4.0;
  return 0.0;  // unset / unknown
}

std::string decode_variant(double w) {
  switch (static_cast<int>(w)) {
    case 1: return "generic";
    case 2: return "avx2";
    case 3: return "avx512";
    case 4: return "neon";
    default: return "";
  }
}

void encode_plan(const tune::Plan& plan, double* w) {
  w[0] = plan.algo == "cqr_1d" ? 0.0 : plan.algo == "ca_cqr2" ? 1.0 : 2.0;
  w[1] = plan.c;
  w[2] = plan.d;
  w[3] = plan.pr;
  w[4] = plan.pc;
  w[5] = static_cast<double>(plan.block);
  w[6] = plan.predicted_seconds;
  w[7] = plan.measured_seconds;
  w[8] = plan.source == "cache" ? 1.0 : plan.source == "measured" ? 2.0
                                                                  : 0.0;
  w[9] = encode_variant(plan.kernel_variant);
  w[10] = plan.precision == Precision::fp64    ? 0.0
          : plan.precision == Precision::mixed ? 1.0
                                               : 2.0;
}

tune::Plan decode_plan(const double* w) {
  tune::Plan plan;
  plan.algo = w[0] == 0.0 ? "cqr_1d" : w[0] == 1.0 ? "ca_cqr2" : "pgeqrf_2d";
  plan.c = static_cast<int>(w[1]);
  plan.d = static_cast<int>(w[2]);
  plan.pr = static_cast<int>(w[3]);
  plan.pc = static_cast<int>(w[4]);
  plan.block = static_cast<i64>(w[5]);
  plan.predicted_seconds = w[6];
  plan.measured_seconds = w[7];
  plan.source = w[8] == 1.0 ? "cache" : w[8] == 2.0 ? "measured" : "model";
  plan.kernel_variant = decode_variant(w[9]);
  plan.precision = w[10] == 1.0   ? Precision::mixed
                   : w[10] == 2.0 ? Precision::fp32
                                  : Precision::fp64;
  return plan;
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
  const tune::ProblemKey key{a.rows,  a.cols,     world.size(),
                             lin::parallel::thread_budget(),
                             opts.passes, opts.base_case, opts.precision};
  const std::size_t top_k =
      static_cast<std::size_t>(std::max(1, opts.plan_top_k));
  // Wire: w[0] = -1 followed by one final plan, or the candidate count
  // followed by that many plans to trial.  Model mode never trials, so
  // its buffer holds exactly one plan.
  const std::size_t max_plans =
      opts.plan_mode == PlanMode::measured ? top_k : std::size_t{1};
  std::vector<double> wire(1 + max_plans * kPlanWords, 0.0);

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

    std::optional<tune::Plan> final = PlanMemo::instance().lookup(memo_key);
    if (final && !plan_acceptable(*final, key, opts.plan_mode)) {
      final.reset();
    }
    if (!final) {
      if (auto hit = cache.load(fingerprint, key);
          hit && plan_acceptable(*hit, key, opts.plan_mode)) {
        final = std::move(*hit);
      }
    }
    if (final) {
      wire[0] = -1.0;
      encode_plan(*final, wire.data() + 1);
    } else {
      store_needed = true;
      const tune::Planner planner(*profile,
                                  {.top_k = static_cast<int>(top_k)});
      std::vector<tune::Plan> cands = planner.candidates(key);
      ensure(!cands.empty(), "factorize: no valid plan for ", key.text());
      if (opts.plan_mode == PlanMode::model) {
        wire[0] = -1.0;
        encode_plan(cands.front(), wire.data() + 1);
      } else {
        const std::size_t k = std::min(cands.size(), top_k);
        wire[0] = static_cast<double>(k);
        for (std::size_t i = 0; i < k; ++i) {
          encode_plan(cands[i], wire.data() + 1 + i * kPlanWords);
        }
      }
    }
  }
  world.bcast(wire, 0);

  tune::Plan winner;
  if (wire[0] < 0.0) {
    winner = decode_plan(wire.data() + 1);
  } else {
    // Trial-run the candidates on the real input.  One Allreduce per
    // trial makes every rank score each candidate by the summed wall
    // time, so the argmin (ties to the lower, better-modeled index) is
    // agreed without any rank-dependent branching.
    const auto k = static_cast<std::size_t>(wire[0]);
    double best_score = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const tune::Plan cand = decode_plan(wire.data() + 1 + i * kPlanWords);
      world.barrier();
      WallTimer timer;
      FactorizeResult res = run_plan(a, world, opts, cand);
      world.barrier();
      double score[1] = {timer.seconds()};
      world.allreduce_sum(score);
      if (i == 0 || score[0] < best_score) {
        best_score = score[0];
        winner = cand;
        *trial_result = std::move(res);
      }
    }
    winner.measured_seconds = best_score / world.size();  // mean over ranks
    winner.source = "measured";
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
  ensure(opts.passes >= 1 && opts.passes <= 3,
         "factorize: passes must be 1, 2 or 3");

  obs::SpanScope span("core", "factorize");
  span.arg("m", static_cast<double>(a.rows));
  span.arg("n", static_cast<double>(a.cols));
  span.arg("passes", opts.passes);

  // Explicit grid or the historical heuristic: the CA-CQR family with
  // the closed-form grid rule, bit-identical to the pre-planner driver.
  if ((opts.c != 0 && opts.d != 0) || opts.plan_mode == PlanMode::heuristic) {
    int c = opts.c;
    int d = opts.d;
    if (c == 0 || d == 0) {
      std::tie(c, d) = choose_grid(world.size(), a.rows, a.cols);
    }
    ensure_dim(grid::TunableGrid::valid_shape(world.size(), c, d),
               "factorize: grid ", c, "x", d, "x", c, " invalid for ",
               world.size(), " ranks");
    FactorizeResult out =
        run_ca_cqr(pad_for_grid(a, c, d), world, opts, c, d);
    out.plan.algo = "ca_cqr2";
    out.plan.c = c;
    out.plan.d = d;
    out.plan.source = "heuristic";
    out.plan.precision = opts.precision;
    out.kernel_variant =
        lin::kernel::variant_name(lin::kernel::active_variant());
    return out;
  }

  std::optional<FactorizeResult> trial_result;
  const tune::Plan plan = resolve_plan(a, world, opts, &trial_result);
  FactorizeResult out = trial_result.has_value()
                            ? std::move(*trial_result)
                            : run_plan(a, world, opts, plan);
  out.plan = plan;
  if (out.plan.source.empty()) out.plan.source = "model";
  out.kernel_variant =
      lin::kernel::variant_name(lin::kernel::active_variant());
  return out;
}

}  // namespace cacqr::core
