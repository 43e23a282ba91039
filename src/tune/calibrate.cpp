#include "cacqr/tune/calibrate.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/blas_f.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/parallel.hpp"
#include "cacqr/model/costs.hpp"
#include "cacqr/rt/comm.hpp"
#include "cacqr/support/timer.hpp"

namespace cacqr::tune {

namespace {

namespace parallel = lin::parallel;

/// Best-of-reps wall time of `body` (one untimed warmup first).
template <class Body>
double best_seconds(int reps, const Body& body) {
  body();  // warmup: arenas grow, caches fill
  double best = 1e300;
  for (int r = 0; r < std::max(1, reps); ++r) {
    WallTimer t;
    body();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// RAII budget override so calibration kernels run at a chosen worker
/// budget regardless of CACQR_THREADS.
struct BudgetGuard {
  explicit BudgetGuard(int budget) : prev(parallel::thread_budget()) {
    parallel::set_thread_budget(budget);
  }
  ~BudgetGuard() { parallel::set_thread_budget(prev); }
  int prev;
};

/// RAII micro-kernel variant override so each sweep measures one specific
/// variant regardless of CACQR_KERNEL; restores the prior dispatch on
/// exit.  Only supported variants are ever swept, so this cannot throw in
/// the loop below.
struct VariantGuard {
  explicit VariantGuard(lin::kernel::Variant v)
      : prev(lin::kernel::set_kernel_variant(v)) {}
  ~VariantGuard() { lin::kernel::set_kernel_variant(prev); }
  lin::kernel::Variant prev;
};

/// The hashed test matrix on the lane of element type T: the fp32 lane
/// times the narrowed image of the fp64 operand.
template <class T>
lin::BasicMatrix<T> hashed_at(u64 seed, i64 m, i64 n) {
  if constexpr (std::is_same_v<T, double>) {
    return lin::hashed_matrix(seed, m, n);
  } else {
    lin::MatrixF f = lin::MatrixF::uninit(m, n);
    lin::narrow(lin::hashed_matrix(seed, m, n), f);
    return f;
  }
}

/// One timed gemm C = A * B at worker budget `threads` on the lane of
/// element type T; returns GFLOP/s.  Both lanes charge the same
/// closed-form flop count (gamma counts operations), so their rates
/// compare directly.
template <class T>
double time_gemm(i64 m, i64 k, i64 n, int threads, int reps) {
  BudgetGuard guard(threads);
  const lin::BasicMatrix<T> a = hashed_at<T>(11, m, k);
  const lin::BasicMatrix<T> b = hashed_at<T>(12, k, n);
  lin::BasicMatrix<T> c(m, n);
  const double secs = best_seconds(reps, [&] {
    if constexpr (std::is_same_v<T, double>) {
      lin::gemm(lin::Trans::N, lin::Trans::N, 1.0, a, b, 0.0, c);
    } else {
      lin::gemm_f32(lin::Trans::N, lin::Trans::N, 1.0f, a, b, 0.0f, c);
    }
  });
  return model::flops_gemm(static_cast<double>(m), static_cast<double>(k),
                           static_cast<double>(n)) /
         secs * 1e-9;
}

/// One timed gram C = A^T A (the Gram kernel on CQR's critical path) on
/// the lane of element type T.
template <class T>
double time_gram(i64 m, i64 n, int reps) {
  BudgetGuard guard(1);
  const lin::BasicMatrix<T> a = hashed_at<T>(13, m, n);
  lin::BasicMatrix<T> c(n, n);
  const double secs = best_seconds(reps, [&] {
    if constexpr (std::is_same_v<T, double>) {
      lin::gram(1.0, a, 0.0, c);
    } else {
      lin::gram_f32(1.0f, a, 0.0f, c);
    }
  });
  return model::flops_gram(static_cast<double>(m), static_cast<double>(n)) /
         secs * 1e-9;
}

/// One lane's per-thread rates under the active variant for calibrate's
/// three shapes, each recorded in `kernels` under the lane's kernel
/// names.  Returns {square gemm rate, best rate}.
template <class T>
std::pair<double, double> lane_rates(std::vector<KernelSample>& kernels,
                                     const std::string& vname, i64 sq,
                                     i64 tall_m, i64 tall_n, int reps) {
  const std::string sfx = std::is_same_v<T, float> ? "_f32" : "";
  const double square = time_gemm<T>(sq, sq, sq, 1, reps);
  kernels.push_back({"gemm_nn" + sfx, sq, sq, sq, square, vname});
  const double tall = time_gemm<T>(tall_m, tall_n, tall_n, 1, reps);
  kernels.push_back({"gemm_nn" + sfx, tall_m, tall_n, tall_n, tall, vname});
  const double gram = time_gram<T>(tall_m, tall_n, reps);
  kernels.push_back({"gram" + sfx, tall_m, tall_n, 0, gram, vname});
  return {square, std::max({square, tall, gram})};
}

/// Max-over-ranks wall time of one Allreduce of `words` doubles over a
/// team of `ranks` rank threads, best of `reps` (barrier-fenced, pools
/// warm inside one Runtime::run).  Each rank reports its best time
/// through the publish channel.
double time_allreduce(int ranks, i64 words, int reps) {
  const rt::RunOutput out = rt::Runtime::run_collect(
      ranks,
      [&](rt::Comm& comm) {
        std::vector<double> buf(static_cast<std::size_t>(words), 1.0);
        double best = 1e300;
        for (int r = 0; r <= reps; ++r) {
          comm.barrier();
          WallTimer t;
          comm.allreduce_sum(buf);
          comm.barrier();
          const double dt = t.seconds();
          if (r > 0) best = std::min(best, dt);  // rep 0 is the warmup
        }
        comm.publish({&best, 1});
      },
      rt::Machine::counting(), 1, rt::TransportKind::modeled);
  double worst = 0.0;
  for (const std::vector<double>& blob : out.published) {
    worst = std::max(worst, blob.empty() ? 0.0 : blob.front());
  }
  return worst;
}

/// Least-squares slope B of t - t0 = B * w through the origin over
/// (w, t) pairs: the per-word cost above a measured latency t0.
double fit_slope(const std::vector<std::pair<double, double>>& pts,
                 double t0) {
  double sww = 0, swt = 0;
  for (const auto& [w, t] : pts) {
    sww += w * w;
    swt += w * (t - t0);
  }
  return sww > 0.0 ? swt / sww : 0.0;
}

}  // namespace

MachineProfile calibrate(const CalibrateOptions& opts) {
  ensure(opts.ranks >= 2, "calibrate: collective fit needs >= 2 ranks");
  MachineProfile p = generic_profile();  // start from the fallback shape
  p.calibrated = "measured";
  p.machine.name = "calibrated: " + p.host;
  p.kernels.clear();
  const int reps = std::max(1, opts.quick ? opts.reps - 1 : opts.reps);

  // ---- gamma: per-thread kernel rates, swept once per host-executable
  // micro-kernel variant (VariantGuard forces each in turn).  Square
  // gemm bounds the peak; the tall-skinny gemm and gram match CA-CQR2's
  // local shapes.  Each variant gets its own fitted gamma and thread
  // scaling; the fastest variant backs the profile's top-level machine.
  const i64 sq = opts.quick ? 192 : 384;
  const i64 tall_m = opts.quick ? 2048 : 8192;
  const i64 tall_n = opts.quick ? 48 : 96;
  const int max_t = parallel::hardware_threads();
  p.variants.clear();
  for (const lin::kernel::Variant v : lin::kernel::supported_variants()) {
    const VariantGuard vguard(v);
    const std::string vname = lin::kernel::variant_name(v);
    VariantCalibration cal;
    cal.variant = vname;
    const auto [base_gf, best_rate] =
        lane_rates<double>(p.kernels, vname, sq, tall_m, tall_n, reps);
    // The model charges flops at the sustained rate of the level-3 core;
    // floor at 0.1 GF/s so a pathological measurement can't explode the
    // fitted gamma.
    cal.gamma_s = 1.0 / (std::max(best_rate, 0.1) * 1e9);
    cal.peak_gflops = best_rate;

    // The fp32 lane of the same variant: identical shapes, closed-form
    // flop counts, and forced dispatch, so gamma32 is the per-precision
    // rate the planner's mixed-precision scoring needs.
    const double best32 =
        lane_rates<float>(p.kernels, vname, sq, tall_m, tall_n, reps).second;
    cal.gamma32_s = 1.0 / (std::max(best32, 0.1) * 1e9);
    cal.peak_gflops32 = best32;

    // Per-variant thread scaling: the square gemm at growing budgets.
    cal.scaling = {{1, 1.0}};
    for (int t = 2; t <= max_t; t *= 2) {
      const double gf = time_gemm<double>(sq, sq, sq, t, reps);
      // Clamp to >= 1: a budget can't be modeled slower than sequential
      // (the planner would otherwise prefer lying about thread counts).
      cal.scaling.push_back({t, std::max(1.0, gf / base_gf)});
    }
    p.variants.push_back(std::move(cal));
  }

  // The profile's top-level machine is backed by the fastest variant --
  // the one auto dispatch would want and the planner's default score.
  const VariantCalibration* best = &p.variants.front();
  for (const VariantCalibration& cal : p.variants) {
    if (cal.peak_gflops > best->peak_gflops) best = &cal;
  }
  p.kernel_variant = best->variant;
  p.machine.gamma_s = best->gamma_s;
  p.machine.peak_gflops_node = best->peak_gflops;
  p.scaling = best->scaling;

  // ---- alpha/beta: a one-word Allreduce is latency-bound, so its time
  // is alpha's; beta is the slope above it through the payload sweep.
  // An extrapolated intercept would let one slow large-payload timing
  // drive alpha negative.  Each size keeps the fastest of at least three
  // timed Allreduces, so a single preempted rep cannot set it.
  const int comm_reps = std::max(reps, 3);
  const double t0 = time_allreduce(opts.ranks, 1, comm_reps);
  const std::vector<i64> sizes =
      opts.quick ? std::vector<i64>{256, 8192}
                 : std::vector<i64>{256, 4096, 32768};
  std::vector<std::pair<double, double>> pts;
  for (const i64 w : sizes) {
    pts.emplace_back(static_cast<double>(w),
                     time_allreduce(opts.ranks, w, comm_reps));
  }
  const double lg_p = std::ceil(std::log2(static_cast<double>(opts.ranks)));
  // Allreduce = 2 ceil(lg P) alpha + 2 w beta (comm.hpp).  Floors keep a
  // noisy timing physical: >= 10 ns per message, >= 8 bytes / 100 GB/s.
  p.machine.alpha_s = std::max(t0 / (2.0 * std::max(lg_p, 1.0)), 1e-8);
  p.machine.beta_s = std::max(fit_slope(pts, t0) / 2.0, 8.0 / 100e9);
  return p;
}

}  // namespace cacqr::tune
