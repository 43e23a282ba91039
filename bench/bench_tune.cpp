/// \file bench_tune.cpp
/// \brief Machine calibration harness for the tune/ autotuning planner:
///        runs the calibrator, prints the fitted profile, and reports
///        what the planner picks across a (m, n, P) grid of problem
///        shapes -- the artifact CI uploads next to the perf JSONs.
///
/// The fitted alpha/beta/gamma are wall-clock measurements of THIS host
/// (kernel sweeps + timed runtime collectives, see tune/calibrate.hpp),
/// so the same-host comparison rule of docs/benchmarks.md applies to
/// them like to every other committed number.
///
/// Usage: bench_tune [--json[=PATH]] [--quick] [--save]
///   --json   write the calibration profile + plan table as JSON
///            (default PATH: bench_out/bench_tune.json).
///   --quick  smaller microbenchmarks, fewer repetitions (CI smoke).
///   --save   additionally persist the profile into the CACQR_TUNE_DIR
///            plan cache (no-op when the env var is unset), so later
///            factorize(plan_mode=...) runs and other processes can
///            reuse this calibration via tune::PlanCache::load_profile.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cacqr/lin/kernel.hpp"
#include "cacqr/support/timer.hpp"
#include "cacqr/tune/cache.hpp"
#include "cacqr/tune/calibrate.hpp"

namespace {

using namespace cacqr;

struct PlanRow {
  tune::ProblemKey key;
  tune::Plan plan;
  tune::Plan runner_up;
  bool has_runner_up = false;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  bool save = false;
  std::string json_path = "bench_out/bench_tune.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = arg.substr(7);
      if (json_path.empty()) {
        std::fprintf(stderr, "error: --json= requires a path\n");
        return 2;
      }
    } else if (arg == "--save") {
      save = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json[=PATH]] [--quick] [--save]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("bench_tune: calibrating this host%s...\n",
              quick ? " (quick)" : "");
  WallTimer timer;
  const tune::MachineProfile profile =
      tune::calibrate({.quick = quick, .reps = quick ? 2 : 3, .ranks = 4});
  const double calibrate_seconds = timer.seconds();

  std::printf("\nhost fingerprint : %s\n", profile.host.c_str());
  std::printf("plan fingerprint : %s\n", profile.fingerprint().c_str());
  std::printf("calibration time : %.2f s\n", calibrate_seconds);
  std::printf("fitted alpha     : %.3e s/message\n", profile.machine.alpha_s);
  std::printf("fitted beta      : %.3e s/word (%.2f GB/s effective)\n",
              profile.machine.beta_s, 8.0 / profile.machine.beta_s / 1e9);
  std::printf("fitted gamma     : %.3e s/flop (%.2f GF/s sustained)\n",
              profile.machine.gamma_s, 1.0 / profile.machine.gamma_s / 1e9);
  std::printf("flops-per-word   : %.1f\n", profile.machine.flops_per_word());
  std::printf("kernel variant   : %s (fastest calibrated; dispatch decides "
              "at run time)\n",
              profile.kernel_variant.c_str());

  std::printf("\nvariant table (per-thread):\n");
  std::printf("  %-8s %14s %12s %s\n", "variant", "gamma (s/flop)",
              "peak GF/s", "scaling");
  for (const tune::VariantCalibration& v : profile.variants) {
    std::printf("  %-8s %14.3e %12.2f ", v.variant.c_str(), v.gamma_s,
                v.peak_gflops);
    for (const tune::ThreadScaling& s : v.scaling) {
      std::printf(" %dT=%.2fx", s.threads, s.speedup);
    }
    std::printf("\n");
  }

  std::printf("\nkernel table (per-thread):\n");
  std::printf("  %-10s %-8s %8s %6s %6s %10s\n", "kernel", "variant", "m",
              "n", "k", "GF/s");
  for (const tune::KernelSample& s : profile.kernels) {
    std::printf("  %-10s %-8s %8lld %6lld %6lld %10.2f\n", s.kernel.c_str(),
                s.variant.c_str(), static_cast<long long>(s.m),
                static_cast<long long>(s.n), static_cast<long long>(s.k),
                s.gflops);
  }
  std::printf("thread scaling:");
  for (const tune::ThreadScaling& s : profile.scaling) {
    std::printf("  %dT=%.2fx", s.threads, s.speedup);
  }
  std::printf("\n");

  // What the planner would pick: the shapes bench_cacqr sweeps plus a
  // few paper-like extremes, at the rank counts the runtime can host.
  const std::vector<tune::ProblemKey> keys =
      quick ? std::vector<tune::ProblemKey>{{2048, 64, 4, 1},
                                            {2048, 64, 8, 1}}
            : std::vector<tune::ProblemKey>{
                  {8192, 128, 4, 1},  {8192, 128, 8, 1},
                  {16384, 256, 8, 1}, {i64{1} << 20, 64, 8, 1},
                  {4096, 1024, 8, 1}, {16384, 256, 16, 1}};
  const tune::Planner planner(profile);
  std::vector<PlanRow> rows;
  std::printf(
      "\nplanned configurations (model scores on this profile, variant=%s):\n",
      lin::kernel::variant_name(lin::kernel::active_variant()));
  std::printf("  %-22s %-10s %-8s %14s %16s\n", "problem", "algo", "grid",
              "predicted_s", "runner_up");
  for (const tune::ProblemKey& key : keys) {
    const std::vector<tune::Plan> cands = planner.candidates(key);
    if (cands.empty()) continue;
    PlanRow row;
    row.key = key;
    row.plan = cands[0];
    if (cands.size() > 1) {
      row.runner_up = cands[1];
      row.has_runner_up = true;
    }
    rows.push_back(row);
    const std::string runner_up_tag =
        row.has_runner_up
            ? std::string(tune::algo_name(row.runner_up.algo)) + ":" +
                  row.runner_up.grid()
            : "-";
    std::printf("  %-22s %-10s %-8s %14.6f %16s\n", key.text().c_str(),
                tune::algo_name(row.plan.algo), row.plan.grid().c_str(),
                row.plan.predicted_seconds, runner_up_tag.c_str());
  }

  if (save) {
    const tune::PlanCache cache = tune::PlanCache::from_env();
    if (cache.enabled()) {
      cache.store_profile(profile);
      std::printf("\nprofile saved to %s\n",
                  cache.profile_path(profile.host).c_str());
    } else {
      std::printf("\n--save: CACQR_TUNE_DIR is unset; nothing persisted\n");
    }
  }

  if (json) {
    support::Json doc = support::Json::object();
    doc.set("bench", "bench_tune");
    doc.set("quick", quick);
    doc.set("calibrate_seconds", calibrate_seconds);
    doc.set("fingerprint", profile.fingerprint());
    doc.set("profile", profile.to_json());
    support::Json plans = support::Json::array();
    for (const PlanRow& row : rows) {
      support::Json e = support::Json::object();
      e.set("problem", row.key.text());
      e.set("m", row.key.m);
      e.set("n", row.key.n);
      e.set("p", row.key.p);
      e.set("threads", row.key.threads);
      e.set("plan", row.plan.to_json());
      if (row.has_runner_up) e.set("runner_up", row.runner_up.to_json());
      plans.push_back(std::move(e));
    }
    doc.set("plans", std::move(plans));

    std::filesystem::path p(json_path);
    std::error_code ec;
    if (p.has_parent_path()) {
      std::filesystem::create_directories(p.parent_path(), ec);
    }
    if (!support::write_json_file(p.string(), doc)) {
      std::fprintf(stderr, "error: cannot write %s\n", p.string().c_str());
      return 1;
    }
    std::printf("json written to %s\n", p.string().c_str());
  }
  return 0;
}
