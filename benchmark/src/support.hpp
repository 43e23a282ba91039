#pragma once
/// \file support.hpp
/// \brief Benchmark-side helpers shared by the workloads: seeded inputs,
///        the independent output check, order statistics, process
///        resource snapshots and the metric report.
///
/// Nothing here calls the library's kernels or generators, so a change
/// to the library can change neither the inputs nor the verdict on its
/// outputs.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cacqr/lin/matrix.hpp"

namespace bench {

using cacqr::i64;

// ------------------------------------------------------------------ inputs

/// m x n matrix with entries uniform in [-1, 1) drawn from a splitmix64
/// stream keyed by (seed, stream).  Tall uniform matrices are well
/// conditioned, so every factorization in the workloads succeeds without
/// the shifted fallback.
[[nodiscard]] cacqr::lin::Matrix random_matrix(std::uint64_t seed,
                                               std::uint64_t stream, i64 m,
                                               i64 n);

// ------------------------------------------------------------ output check

/// The orthogonality and residual tolerance tests/core/test_mixed_precision
/// holds both grid families to on well-conditioned inputs (DESIGN.md
/// section 9).
inline constexpr double kTolerance = 1e-12;

struct Check {
  double orth = 0.0;   ///< ||Q^T Q - I||_F
  double resid = 0.0;  ///< ||A - Q R||_F / ||A||_F
  bool shape_ok = false;  ///< Q is m x n, R is n x n upper triangular
  [[nodiscard]] bool ok() const {
    return shape_ok && orth < kTolerance && resid < kTolerance;
  }
};

/// Checks one factorization with plain loops (no library kernel).
[[nodiscard]] Check check_factors(cacqr::lin::ConstMatrixView a,
                                  cacqr::lin::ConstMatrixView q,
                                  cacqr::lin::ConstMatrixView r);

/// Worst-case accumulator over the checked jobs of a run.
struct CheckTally {
  int checked = 0;
  int failed = 0;
  double worst_orth = 0.0;
  double worst_resid = 0.0;
  void add(const Check& c);
};

// ---------------------------------------------------------------- process

/// getrusage(RUSAGE_SELF) snapshot: CPU seconds, minor faults, peak RSS.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long minor_faults = 0;
  double max_rss_mb = 0.0;
};
[[nodiscard]] Usage usage_now();

// ------------------------------------------------------------------ report

/// What a workload run measured: its verdict, its job counts, metric
/// values by name (BENCHMARK.json declares the names and units) and
/// free-form details for the machine-readable results file.
struct Outcome {
  bool correct = true;
  long attempted = 0;  ///< jobs started in every loop of the run
  long failed = 0;     ///< jobs that threw, were rejected or failed a check
  std::map<std::string, double> values;
  std::vector<std::pair<std::string, std::string>> details;  ///< raw JSON
  void set(const std::string& name, double value) { values[name] = value; }
  void detail(std::string key, std::string json_value) {
    details.emplace_back(std::move(key), std::move(json_value));
  }
};

// -------------------------------------------------------------- statistics

[[nodiscard]] double now_s();
[[nodiscard]] double median(std::vector<double> v);
/// The `pct` percentile of `v`, interpolated linearly between order
/// statistics (50 gives the median).
[[nodiscard]] double quantile(std::vector<double> v, double pct);
[[nodiscard]] double mean(const std::vector<double>& v);

/// The end-to-end metrics of an untraced run: set-up samples from
/// separate cold starts, and one warm closed loop whose measured interval
/// is cut into equal windows.  Each window statistic (throughput, p50,
/// tail) is computed per window, and the run reports the best-decile
/// window: the 10th percentile over windows of each latency and the 90th
/// of throughput.  Host CPU steal comes in bursts that cover seconds to
/// whole runs; this is the program's figure whenever a tenth of the run
/// was quiet, and a change that slows every job still moves it.  Windows
/// in which no job ended count for throughput only.
class WindowedRun {
 public:
  /// `tail_pct`: the percentile latency_ms_tail reports within a window.
  WindowedRun(double tail_pct, int windows, double seconds);
  void add_setup(double seconds) { setup_s_.push_back(seconds); }
  /// One timed job that ended `t_end` seconds into the measured interval;
  /// jobs ending after it are not counted.
  void add_job(double t_end, double latency_s);
  /// Sets the eight end-to-end metrics from the windows and set-ups, the
  /// process's peak RSS, the job counts already in `out` and the checked
  /// jobs, and records each window's figures as details.
  void report(Outcome& out, const CheckTally& tally) const;

 private:
  double tail_pct_;
  double width_s_;  ///< length of one window
  std::vector<double> setup_s_;
  std::vector<std::vector<double>> latency_s_;  ///< per window
};

[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace bench
