/// \file factorize_workloads.cpp
/// \brief `factorize` and `grid3d`: one SPMD caller makes back-to-back
///        collective core::factorize calls on one seeded matrix.
///
/// Untraced run: cold starts (a fresh runtime up to rank 0's first
/// result), then one runtime making barrier-fenced calls for the measured
/// interval, reported per window (WindowedRun).  Traced run, all from
/// outside the library:
///   A. the same closed loop, untraced (the p50 the layers must add up
///      to, the fault and CPU counts, one call's msgs/words/flops);
///   B. core::factorize's public calls replayed in its order, each fenced by
///      barriers, then one CA-CQR pass replayed phase by phase;
///   C. the local kernels alone on the workload's own operand shapes;
///   D. a Gram-sized allreduce and a Q-sized allgather;
///   E. loop A again with tracing on (the tracer's own cost).
/// The replayed steps' summed counts must equal one call's exactly.

#include <algorithm>
#include <array>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <utility>

#include "cacqr/chol/cfr3d.hpp"
#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/core/factorize.hpp"
#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/grid/grid.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/blas_f.hpp"
#include "cacqr/lin/factor.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/matrix_f.hpp"
#include "cacqr/lin/parallel.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/obs/trace.hpp"
#include "cacqr/rt/comm.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

using namespace cacqr;
using dist::DistMatrix;

struct FactorizeSpec {
  int ranks = 1;
  int c = 0;  ///< c = d = 0: the heuristic plan picks the grid
  int d = 0;
  i64 m = 0;
  i64 n = 0;
  Precision precision = Precision::fp64;
  int cold_starts = 1;    ///< set-up samples per untraced run
  int windows = 1;        ///< windows of the untraced measured interval
  double tail_pct = 75;   ///< >= 10 samples beyond it per window at 50 s
};

FactorizeSpec spec_for(const RunArgs& args) {
  if (args.workload == "factorize") {
    // The heuristic plan picks CA-CQR2 with c = 1, d = 4 for this shape.
    return {.ranks = 4,
            .m = args.tiny ? 256 : 8192,
            .n = args.tiny ? 16 : 128,
            .precision = Precision::fp64,
            .cold_starts = 5,
            .windows = 10,  // 36-140 calls each: p90 had as few as 3 beyond
            .tail_pct = 75};
  }
  // c = 2 needs P = c^2 d = 8 rank threads on a 4-vCPU host; waiting
  // ranks sleep on condition variables, they do not spin.
  return {.ranks = 8,
          .c = 2,
          .d = 2,
          .m = args.tiny ? 128 : 4096,
          .n = args.tiny ? 32 : 512,
          .precision = Precision::mixed,
          .cold_starts = 3,
          .windows = 2,
          .tail_pct = 75};
}

/// The (c, d) grid factorize runs: the explicit one, or the heuristic's.
std::pair<int, int> grid_of(const FactorizeSpec& s) {
  return s.c != 0 ? std::pair<int, int>{s.c, s.d}
                  : core::choose_grid(s.ranks, s.m, s.n);
}

core::FactorizeOptions options_for(const FactorizeSpec& s) {
  core::FactorizeOptions o;
  o.c = s.c;
  o.d = s.d;
  o.precision = s.precision;
  return o;
}

/// P rank threads on the modeled transport with one kernel thread each,
/// whatever the environment says.
void run_ranks(int ranks, const std::function<void(rt::Comm&)>& body) {
  (void)rt::Runtime::run(ranks, body, rt::Machine::counting(), 1,
                         rt::TransportKind::modeled);
}

// ------------------------------------------------------------ closed loop

struct LoopStats {
  double setup_s = 0.0;  ///< fresh runtime up to rank 0's first result
  std::vector<double> latency_s;  ///< rank 0, one per timed call
  std::vector<double> end_s;      ///< each call's end, loop-relative
  double window_s = 0.0;          ///< first call's start to last call's end
  long shifted = 0;
  Usage before, after;            ///< process usage around the timed calls
  std::vector<rt::CostCounters> first_call;  ///< per rank, one timed call
  std::optional<core::FactorizeResult> cold, last;  ///< rank 0's factors
  [[nodiscard]] long calls() const {
    return static_cast<long>(latency_s.size());
  }
};

/// A fresh runtime (rank threads, their packing arenas) whose first call
/// is cold and timed as set-up; with max_calls > 0, one untimed warm call
/// and then calls until `seconds` have passed or `max_calls` were timed.
/// One barrier fences each call: rank 0 times it from barrier exit to
/// barrier exit, and decides before entering the barrier whether the
/// next call runs, so every rank reads the same decision after it.
/// Counters are read between barrier and call (barriers send messages).
LoopStats closed_loop(const FactorizeSpec& s, const lin::Matrix& a,
                      double seconds, long max_calls) {
  const core::FactorizeOptions opts = options_for(s);
  LoopStats st;
  st.first_call.resize(static_cast<std::size_t>(s.ranks));
  std::atomic<bool> stop{false};
  const double t_start = now_s();
  run_ranks(s.ranks, [&](rt::Comm& world) {
    const bool root = world.rank() == 0;
    core::FactorizeResult cold = core::factorize(a, world, opts);
    if (root) {
      st.setup_s = now_s() - t_start;
      st.cold = std::move(cold);
    }
    if (max_calls == 0) return;
    (void)core::factorize(a, world, opts);
    double t_begin = 0.0;
    double t_prev = 0.0;
    if (root) st.before = usage_now();
    for (long i = 0;; ++i) {
      if (root) {
        stop.store(i >= max_calls || (i > 0 && now_s() - t_begin >= seconds));
      }
      world.barrier();
      const double t = now_s();
      if (root && i > 0) {
        st.latency_s.push_back(t - t_prev);
        st.end_s.push_back(t - t_begin);
      } else if (root) {
        t_begin = t;
      }
      t_prev = t;
      if (stop.load()) break;
      const rt::CostCounters c0 = world.counters();
      core::FactorizeResult res = core::factorize(a, world, opts);
      if (i == 0) {
        st.first_call[static_cast<std::size_t>(world.rank())] =
            world.counters() - c0;
      }
      if (root) {
        st.shifted += res.used_shift ? 1 : 0;
        st.last = std::move(res);
      }
    }
    if (root) {
      st.after = usage_now();
      st.window_s = t_prev - t_begin;
    }
  });
  return st;
}

void check_into(CheckTally& tally, const lin::Matrix& a,
                const std::optional<core::FactorizeResult>& f) {
  if (f) tally.add(check_factors(a, f->q, f->r));
}

// ------------------------------------------------------------------ replay

enum Step {
  kPad, kBuild, kScatter, kSweep, kGatherQ, kGatherR, kStrip,  // one call
  kGram, kCfr3d, kTranspose, kQUpdate,                          // one pass
  kSteps
};
constexpr int kCallSteps = kStrip + 1;
constexpr std::array<const char*, kSteps> kStepNames = {
    "core.pad",   "grid.build",    "dist.scatter",   "core.sweep",
    "dist.gather_q", "dist.gather_r", "core.strip", "core.gram",
    "chol.cfr3d", "dist.transpose", "core.q_update"};

struct Replay {
  std::array<std::vector<double>, kSteps> ms;      ///< rank 0, per iteration
  std::array<std::vector<double>, kSteps> faults;  ///< process, per iteration
  std::vector<double> fence_wait_ms;  ///< per iteration, summed over steps
  /// Per rank: the first iteration's counts summed over the call steps.
  std::vector<rt::CostCounters> call_counts;
  std::optional<core::FactorizeResult> factors;  ///< rank 0, first iteration
};

/// Replays core::factorize's public calls for an unpadded explicit-grid
/// or heuristic plan (the path src/core/factorize.cpp takes: padded
/// copy, grid, scatter, CA-CQR2 sweep, gathers, strip copies), each step
/// fenced, then one CA-CQR pass of the sweep phase by phase.
Replay replay(const FactorizeSpec& s, const lin::Matrix& a, double seconds) {
  const auto [c, d] = grid_of(s);
  const i64 m = s.m;
  const i64 n = s.n;
  const Precision prec = s.precision;
  const auto ranks = static_cast<std::size_t>(s.ranks);

  Replay out;
  out.call_counts.resize(ranks);
  std::vector<std::vector<double>> waits(ranks);  // [rank][iter * kSteps + step]
  std::atomic<bool> stop{false};
  run_ranks(s.ranks, [&](rt::Comm& world) {
    const bool root = world.rank() == 0;
    const auto me = static_cast<std::size_t>(world.rank());
    double t_begin = 0.0;
    for (int it = 0;; ++it) {
      if (root) {
        if (it == 0) t_begin = now_s();
        stop.store(it >= 3 && now_s() - t_begin >= seconds);
      }
      world.barrier();
      if (stop.load()) break;

      auto fenced = [&](Step step, const std::function<void()>& fn) {
        world.barrier();
        const long f0 = root ? usage_now().minor_faults : 0;
        const rt::CostCounters c0 = world.counters();
        const double t0 = now_s();
        fn();
        const rt::CostCounters c1 = world.counters();
        const double t_done = now_s();
        world.barrier();
        const double t1 = now_s();
        waits[me].push_back(t1 - t_done);
        if (it == 0 && step < kCallSteps) out.call_counts[me] += c1 - c0;
        if (root) {
          out.ms[step].push_back((t1 - t0) * 1e3);
          out.faults[step].push_back(
              static_cast<double>(usage_now().minor_faults - f0));
        }
      };

      lin::Matrix padded;
      std::optional<grid::TunableGrid> g;
      DistMatrix da;
      core::CaCqrResult fact;
      lin::Matrix q_full;
      lin::Matrix r_full;
      core::FactorizeResult res;
      fenced(kPad, [&] { padded = lin::materialize(a); });
      fenced(kBuild, [&] { g.emplace(world, c, d); });
      fenced(kScatter,
             [&] { da = DistMatrix::from_global_on_tunable(padded, *g); });
      fenced(kSweep, [&] {
        fact = core::ca_cqr2(da, *g, {.base_case = 0, .shift = 0.0,
                                      .precision = prec});
      });
      fenced(kGatherQ, [&] { q_full = dist::gather(fact.q, g->slice()); });
      fenced(kGatherR,
             [&] { r_full = dist::gather(fact.r, g->subcube().slice()); });
      fenced(kStrip, [&] {
        res.q = lin::materialize(q_full.sub(0, 0, m, n));
        res.r = lin::materialize(r_full.sub(0, 0, n, n));
      });
      if (root && it == 0) out.factors = std::move(res);

      // The sweep's first pass, phase by phase (core/ca_cqr.cpp).
      DistMatrix z;
      chol::Cfr3dResult lr;
      std::pair<DistMatrix, DistMatrix> rr;
      DistMatrix q1;
      fenced(kGram, [&] { z = core::ca_gram(da, *g, prec); });
      fenced(kCfr3d, [&] { lr = chol::cfr3d(z, g->subcube(), {}); });
      fenced(kTranspose, [&] {
        rr = dist::transpose3d_pair(lr.l, lr.l_inv, g->subcube());
      });
      fenced(kQUpdate, [&] {
        if (c == 1) {
          q1 = da;
          lin::trmm(lin::Side::Right, lin::Uplo::Upper, lin::Trans::N,
                    lin::Diag::NonUnit, 1.0, rr.second.local(), q1.local());
        } else {
          const auto [x, y, zc] = g->coords();
          (void)zc;
          const DistMatrix panel =
              da.reinterpret_layout(m * c / d, n, c, c, y % c, x);
          q1 = dist::block_backsolve(panel, rr.first, rr.second, 1,
                                     g->subcube());
        }
      });
    }
  });

  const std::size_t iters = out.ms[kPad].size();
  for (std::size_t it = 0; it < iters; ++it) {
    double wait = 0.0;
    for (int step = 0; step < kCallSteps; ++step) {
      double worst = 0.0;
      for (const auto& w : waits) {
        worst = std::max(worst, w[it * kSteps + static_cast<std::size_t>(step)]);
      }
      wait += worst;
    }
    out.fence_wait_ms.push_back(wait * 1e3);
  }
  return out;
}

// ----------------------------------------------------------------- kernels

/// Median seconds of `fn` over at least `min_reps` calls and `seconds`;
/// `reset` runs untimed before each call.
double time_median(double seconds, int min_reps, const std::function<void()>& fn,
                   const std::function<void()>& reset = {}) {
  std::vector<double> t;
  const double t_end = now_s() + seconds;
  while (static_cast<int>(t.size()) < min_reps || now_s() < t_end) {
    if (reset) reset();
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

}  // namespace

void measure_kernels(Outcome& out, std::uint64_t seed, i64 mloc, i64 nloc,
                     i64 nbase, double seconds) {
  lin::parallel::set_thread_budget(1);
  const double each = seconds / 5.0;
  const lin::Matrix a = random_matrix(seed, 101, mloc, nloc);
  const auto md = static_cast<double>(mloc);
  const auto nd = static_cast<double>(nloc);

  lin::Matrix c = lin::Matrix::uninit(nloc, nloc);
  const double t_gram =
      time_median(each, 5, [&] { lin::gram(1.0, a, 0.0, c); });
  out.set("lin.gram_gflops", md * nd * nd / t_gram * 1e-9);

  // A well-scaled upper triangle; B is restored before every call so
  // repeated products cannot overflow.
  lin::Matrix u = random_matrix(seed, 102, nloc, nloc);
  for (i64 j = 0; j < nloc; ++j) {
    for (i64 i = 0; i < nloc; ++i) u(i, j) = i > j ? 0.0 : u(i, j) / nd;
    u(j, j) += 1.0;
  }
  lin::Matrix b = lin::Matrix::uninit(mloc, nloc);
  const double t_trmm = time_median(
      each, 5,
      [&] {
        lin::trmm(lin::Side::Right, lin::Uplo::Upper, lin::Trans::N,
                  lin::Diag::NonUnit, 1.0, u, b);
      },
      [&] { lin::copy(a, b); });
  out.set("lin.trmm_gflops", md * nd * nd / t_trmm * 1e-9);

  const double t_gemm = time_median(each, 5, [&] {
    lin::gemm(lin::Trans::N, lin::Trans::N, 1.0, a, u, 0.0, b);
  });
  out.set("lin.gemm_gflops", 2.0 * md * nd * nd / t_gemm * 1e-9);

  // The Gram-form fp32 product of the mixed lane: W^T A on the panel.
  lin::MatrixF af = lin::MatrixF::uninit(mloc, nloc);
  lin::narrow(a, af);
  lin::MatrixF cf = lin::MatrixF::uninit(nloc, nloc);
  const double t_f32 = time_median(each, 5, [&] {
    lin::gemm_f32(lin::Trans::T, lin::Trans::N, 1.0f, af, af, 0.0f, cf);
  });
  out.set("lin.gemm_f32_gflops", 2.0 * md * nd * nd / t_f32 * 1e-9);

  // CholInv at the CFR3D base-case order, on a well-conditioned SPD matrix.
  const lin::Matrix w = random_matrix(seed, 103, 4 * nbase, nbase);
  lin::Matrix spd(nbase, nbase);
  lin::gram(1.0, w, 0.0, spd);
  for (i64 j = 0; j < nbase; ++j) spd(j, j) += static_cast<double>(nbase);
  const double t_chol =
      time_median(each, 5, [&] { (void)lin::cholinv(spd); });
  out.set("lin.cholinv_ms", t_chol * 1e3);
}

bool is_factorize_workload(const std::string& name) {
  return name == "factorize" || name == "grid3d";
}

void measure_collectives(Outcome& out, int ranks, int c, int d,
                         i64 gram_words, i64 local_words, double seconds) {
  std::vector<double> allreduce_ms;
  std::vector<double> allgather_ms;
  std::atomic<bool> stop{false};
  run_ranks(ranks, [&](rt::Comm& world) {
    const bool root = world.rank() == 0;
    const grid::TunableGrid g(world, c, d);
    std::vector<double> gram(static_cast<std::size_t>(gram_words));
    std::vector<double> mine(static_cast<std::size_t>(local_words), 1.0);
    std::vector<double> all(mine.size() *
                            static_cast<std::size_t>(g.slice().size()));
    const double t_begin = now_s();
    for (int it = 0;; ++it) {
      if (root) stop.store(it >= 5 && now_s() - t_begin >= seconds);
      std::fill(gram.begin(), gram.end(), 1.0);  // sums stay finite
      world.barrier();
      if (stop.load()) break;
      double t0 = now_s();
      world.allreduce_sum(gram);
      world.barrier();
      if (root) allreduce_ms.push_back((now_s() - t0) * 1e3);
      t0 = now_s();
      g.slice().allgather(mine, all);
      world.barrier();
      if (root) allgather_ms.push_back((now_s() - t0) * 1e3);
    }
  });
  out.set("rt.allreduce_ms", median(allreduce_ms));
  out.set("rt.allgather_ms", median(allgather_ms));
}

namespace {

std::string counts_json(const rt::CostCounters& c) {
  return "{\"msgs\": " + std::to_string(c.msgs) +
         ", \"words\": " + std::to_string(c.words) +
         ", \"flops\": " + std::to_string(c.flops) + "}";
}

/// The untraced run.  The first cold start's result and the loop's cold
/// and last results are checked after their timed intervals.
void end_to_end(Outcome& out, const FactorizeSpec& s, const lin::Matrix& a,
                const RunArgs& args) {
  CheckTally tally;
  WindowedRun run(s.tail_pct, s.windows, args.seconds);
  for (int k = 0; k < s.cold_starts; ++k) {
    const LoopStats cold = closed_loop(s, a, 0.0, 0);
    if (k == 0) check_into(tally, a, cold.cold);
    run.add_setup(cold.setup_s);
  }
  const LoopStats st = closed_loop(s, a, args.seconds, LONG_MAX);
  check_into(tally, a, st.cold);
  check_into(tally, a, st.last);
  for (long i = 0; i < st.calls(); ++i) {
    run.add_job(st.end_s[static_cast<std::size_t>(i)],
                st.latency_s[static_cast<std::size_t>(i)]);
  }
  out.attempted = s.cold_starts + 2 + st.calls();  // with the loop's cold
  out.failed = tally.failed;                       // and warm calls
  out.correct = tally.failed == 0 && st.calls() > 0;
  run.report(out, tally);
}

void layers(Outcome& out, const FactorizeSpec& s, const lin::Matrix& a,
            const RunArgs& args) {
  CheckTally tally;
  const double budget = args.seconds;

  // A. The untraced closed loop.
  LoopStats base = closed_loop(s, a, 0.3 * budget, LONG_MAX);
  check_into(tally, a, base.cold);
  check_into(tally, a, base.last);
  const long calls = base.calls();
  const double p50_ms = median(base.latency_s) * 1e3;

  // B. The replay, and its fidelity check against one untraced call.
  Replay rep = replay(s, a, 0.3 * budget);
  check_into(tally, a, rep.factors);
  bool same_counts = true;
  for (int r = 0; r < s.ranks; ++r) {
    const rt::CostCounters& want = base.first_call[static_cast<std::size_t>(r)];
    const rt::CostCounters& got = rep.call_counts[static_cast<std::size_t>(r)];
    if (want.msgs != got.msgs || want.words != got.words ||
        want.flops != got.flops) {
      same_counts = false;
      std::fprintf(stderr,
                   "replay fidelity FAILED on rank %d: factorize sent %lld "
                   "msgs / %lld words / %lld flops, the replay %lld / %lld "
                   "/ %lld\n",
                   r, static_cast<long long>(want.msgs),
                   static_cast<long long>(want.words),
                   static_cast<long long>(want.flops),
                   static_cast<long long>(got.msgs),
                   static_cast<long long>(got.words),
                   static_cast<long long>(got.flops));
    }
  }
  const rt::CostCounters call_max = rt::max_counters(base.first_call);

  double call_steps_ms = 0.0;
  for (int step = 0; step < kSteps; ++step) {
    const double ms = median(rep.ms[step]);
    out.set(std::string(kStepNames[step]) + "_ms", ms);
    if (step < kCallSteps) {
      call_steps_ms += ms;
      out.set(std::string(kStepNames[step]) + "_faults",
              median(rep.faults[step]));
    }
  }
  out.set("core.unattributed_ms", p50_ms - call_steps_ms);
  out.set("rt.fence_wait_ms", median(rep.fence_wait_ms));
  out.set("rt.msgs", static_cast<double>(call_max.msgs));
  out.set("rt.words", static_cast<double>(call_max.words));
  out.set("lin.flops", static_cast<double>(call_max.flops));

  const double user = base.after.user_s - base.before.user_s;
  const double sys = base.after.sys_s - base.before.sys_s;
  out.set("proc.minor_faults_per_job",
          static_cast<double>(base.after.minor_faults -
                              base.before.minor_faults) /
              static_cast<double>(calls));
  out.set("proc.sys_cpu_share", sys / (user + sys));
  out.set("core.shift_share",
          static_cast<double>(base.shifted) / static_cast<double>(calls));

  // C and D. Kernels and collectives on the workload's own shapes.
  const auto [c, d] = grid_of(s);
  measure_kernels(out, args.seed, s.m / d, s.n / c,
                  chol::effective_base_case(s.n, c, 0), 0.1 * budget);
  measure_collectives(out, s.ranks, c, d, (s.n / c) * (s.n / c),
                      (s.m / d) * (s.n / c), 0.05 * budget);

  // E. The closed loop again with every rank traced, same call count.
  const u64 dropped0 = obs::dropped_events();
  obs::set_trace_mode(obs::TraceMode::all);
  LoopStats traced = closed_loop(s, a, 0.3 * budget, calls);
  obs::set_trace_mode(obs::TraceMode::off);
  check_into(tally, a, traced.last);
  out.set("obs.trace_overhead_pct",
          100.0 * (median(traced.latency_s) * 1e3 / p50_ms - 1.0));
  out.set("obs.dropped_events",
          static_cast<double>(obs::dropped_events() - dropped0));
  out.set("lin.arena_high_water_mb",
          static_cast<double>(lin::kernel::arena_stats().high_water_bytes) /
              (1024.0 * 1024.0));

  out.attempted = 4 + calls + traced.calls() +
                  static_cast<long>(rep.ms[kPad].size());
  out.failed = tally.failed;
  out.correct = tally.failed == 0 && same_counts && calls > 0;
  out.detail("replay_counts_equal", same_counts ? "true" : "false");
  out.detail("call_counts_max", counts_json(call_max));
  out.detail("replay_iterations", std::to_string(rep.ms[kPad].size()));
  out.detail("untraced_calls", std::to_string(calls));
  out.detail("traced_calls", std::to_string(traced.calls()));
  out.detail("untraced_p50_ms", json_number(p50_ms));
  out.detail("grid", "{\"c\": " + std::to_string(c) + ", \"d\": " +
                         std::to_string(d) + ", \"ranks\": " +
                         std::to_string(s.ranks) + "}");
}

}  // namespace

Outcome run_factorize_workload(const RunArgs& args) {
  const FactorizeSpec s = spec_for(args);
  const lin::Matrix a = random_matrix(args.seed, 0, s.m, s.n);
  Outcome out;
  if (args.trace) {
    layers(out, s, a, args);
  } else {
    end_to_end(out, s, a, args);
  }
  return out;
}

}  // namespace bench
