/// \file serve_workload.cpp
/// \brief `serve`: one client thread keeps 16 jobs in flight against a
///        FactorizeService with 2 engine ranks and batching on.
///
/// The client cycles 16 seeded panels, four of each shape in a fixed mix
/// whose every shape qualifies for the batched lane.  A job's latency runs
/// from the client's submit() call to the return of its wait(); the
/// client waits oldest first, which matches the service's FIFO dispatch.
/// Untraced run: cold starts (a fresh service up to the results of one
/// job per shape, setup_s is their median), then the closed loop for the
/// measured interval.  Traced run: the loop untraced (the serve.* split
/// of each job's latency and the registry's traffic counts), the kernels
/// and collectives alone on the largest panel's local shapes, one batch
/// of one per shape for the flop count, and the loop again traced.

#include <algorithm>
#include <array>
#include <atomic>
#include <climits>
#include <cmath>
#include <deque>
#include <optional>
#include <span>
#include <utility>

#include "cacqr/core/batched.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/obs/metrics.hpp"
#include "cacqr/obs/trace.hpp"
#include "cacqr/serve/service.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

using namespace cacqr;

struct Shape {
  i64 m = 0;
  i64 n = 0;
};
constexpr std::size_t kShapes = 4;
constexpr int kRanks = 2;
constexpr std::size_t kInFlight = 16;
constexpr std::size_t kPanelsPerShape = 4;
constexpr int kColdStarts = 15;
// A host stall delays every job in flight at once, so a 50 s run holds
// dozens of clusters of 16+ equally late jobs, and how many depends on
// the host's load at the time.  Percentiles above p90 of half-second
// windows (100-500 jobs, at least 10 beyond p90) land in those clusters.
constexpr double kWindowS = 0.5;
constexpr double kTailPct = 90;

std::array<Shape, kShapes> mix(bool tiny) {
  if (tiny) return {{{64, 4}, {96, 4}, {128, 8}, {256, 16}}};
  return {{{512, 16}, {768, 16}, {1024, 32}, {2048, 64}}};
}

serve::ServiceOptions service_options() {
  serve::ServiceOptions o;
  o.ranks = kRanks;
  o.threads_per_rank = 1;
  o.queue_depth = 64;
  o.batch_window = 8;
  o.batching = true;
  return o;
}

/// The 16 panels, interleaved so consecutive jobs cycle through the
/// shapes: panel i has shape i % 4.
std::vector<lin::Matrix> make_panels(const RunArgs& args) {
  const std::array<Shape, kShapes> shapes = mix(args.tiny);
  std::vector<lin::Matrix> panels;
  for (std::size_t i = 0; i < kPanelsPerShape * shapes.size(); ++i) {
    const Shape s = shapes[i % shapes.size()];
    panels.push_back(random_matrix(args.seed, 1000 + i, s.m, s.n));
  }
  return panels;
}

struct LoopStats {
  std::vector<double> latency_s;
  std::vector<double> submit_s;
  std::vector<double> queue_s;
  std::vector<double> exec_s;
  std::vector<double> unattributed_s;
  std::vector<double> batch_size;
  std::vector<double> done_at;  ///< completion times, loop-relative
  double window_s = 0.0;  ///< the window's start to its last counted result
  long attempted = 0;
  long failed = 0;  ///< rejected or failed jobs, in and after the window
  long shifted = 0;
  Usage before, after;
  serve::ServiceStats stats0, stats1;
  /// The output-check sample, with each job's panel index.
  std::vector<std::pair<serve::JobHandle, std::size_t>> sample;
  [[nodiscard]] long completed() const {
    return static_cast<long>(latency_s.size());
  }
};

/// The closed loop on a warm service: one client thread keeps 16 jobs in
/// flight, waiting for the oldest and submitting the next as each
/// returns, until `seconds` have passed or `max_jobs` were submitted.  A
/// job is timed from its submit() call to the return of its wait();
/// jobs still in flight at the deadline are waited for but not counted.
LoopStats closed_loop(serve::FactorizeService& svc,
                      const std::vector<lin::Matrix>& panels, double seconds,
                      long max_jobs) {
  struct Pending {
    serve::JobHandle h;
    double t_submit = 0.0;
    std::size_t panel = 0;
  };
  LoopStats st;
  // The output-check sample: the first and the last counted job of every
  // panel (fixed size whatever the throughput).
  std::vector<std::optional<serve::JobHandle>> first(panels.size());
  std::vector<std::optional<serve::JobHandle>> last(panels.size());
  std::deque<Pending> inflight;
  long seq = 0;
  st.before = usage_now();
  st.stats0 = svc.stats();
  const double t_begin = now_s();
  double t_end = t_begin;
  bool open = true;
  auto submit = [&] {
    const std::size_t p = static_cast<std::size_t>(seq++) % panels.size();
    const double t0 = now_s();
    serve::JobHandle h = svc.submit(panels[p]);
    st.submit_s.push_back(now_s() - t0);
    inflight.push_back({std::move(h), t0, p});
    ++st.attempted;
  };
  for (std::size_t i = 0; i < kInFlight; ++i) submit();
  while (!inflight.empty()) {
    Pending job = std::move(inflight.front());
    inflight.pop_front();
    const serve::JobStatus status = job.h.wait();
    const double t_done = now_s();
    open = open && t_done - t_begin < seconds;
    if (status != serve::JobStatus::done) {
      ++st.failed;
    } else if (open) {
      const serve::JobResult& r = job.h.result();
      const double lat = t_done - job.t_submit;
      st.latency_s.push_back(lat);
      st.queue_s.push_back(r.queue_seconds);
      st.exec_s.push_back(r.exec_seconds);
      st.unattributed_s.push_back(lat - r.queue_seconds - r.exec_seconds);
      st.batch_size.push_back(static_cast<double>(r.batch_size));
      st.shifted += r.used_shift ? 1 : 0;
      st.done_at.push_back(t_done - t_begin);
      t_end = t_done;
      (first[job.panel] ? last[job.panel] : first[job.panel]) = job.h;
    }
    if (open && seq < max_jobs) submit();
  }
  st.after = usage_now();
  st.stats1 = svc.stats();
  st.window_s = t_end - t_begin;
  for (std::size_t p = 0; p < panels.size(); ++p) {
    for (auto* keep : {&first[p], &last[p]}) {
      if (*keep) st.sample.emplace_back(std::move(**keep), p);
    }
  }
  return st;
}

void check_sample(CheckTally& tally, const LoopStats& st,
                  const std::vector<lin::Matrix>& panels) {
  for (const auto& [h, p] : st.sample) {
    const serve::JobResult& r = h.result();
    tally.add(check_factors(panels[p], r.q, r.r));
  }
}

/// One round of 16 jobs so pools, arenas and the batching pattern are
/// warm before the window opens.
void warm_up(serve::FactorizeService& svc,
             const std::vector<lin::Matrix>& panels) {
  std::vector<serve::JobHandle> hs;
  for (const lin::Matrix& p : panels) hs.push_back(svc.submit(p));
  for (const serve::JobHandle& h : hs) (void)h.wait();
}

/// The untraced run: cold starts (service construction up to the results
/// of one job per shape, panels 0-3), then one warm service running the
/// closed loop for the measured interval, reported per window
/// (WindowedRun).  The first cold start's jobs and the loop's sample are
/// checked after their timed intervals.
void end_to_end(Outcome& out, const std::vector<lin::Matrix>& panels,
                const RunArgs& args) {
  CheckTally tally;
  const int windows =
      std::max(1, static_cast<int>(std::lround(args.seconds / kWindowS)));
  WindowedRun run(kTailPct, windows, args.seconds);
  long failed = 0;
  for (int k = 0; k < kColdStarts; ++k) {
    std::vector<serve::JobHandle> cold;
    const double t0 = now_s();
    {
      serve::FactorizeService svc(service_options());
      for (std::size_t p = 0; p < kShapes; ++p) {
        cold.push_back(svc.submit(panels[p]));
      }
      for (const serve::JobHandle& h : cold) (void)h.wait();
      run.add_setup(now_s() - t0);
    }
    for (std::size_t p = 0; p < kShapes; ++p) {
      if (cold[p].status() != serve::JobStatus::done) {
        ++failed;
      } else if (k == 0) {
        const serve::JobResult& r = cold[p].result();
        tally.add(check_factors(panels[p], r.q, r.r));
      }
    }
  }
  LoopStats st;
  {
    serve::FactorizeService svc(service_options());
    warm_up(svc, panels);
    st = closed_loop(svc, panels, args.seconds, LONG_MAX);
  }
  check_sample(tally, st, panels);
  for (std::size_t i = 0; i < st.latency_s.size(); ++i) {
    run.add_job(st.done_at[i], st.latency_s[i]);
  }
  out.attempted = kColdStarts * static_cast<long>(kShapes) +
                  static_cast<long>(panels.size()) + st.attempted;
  out.failed = failed + st.failed + tally.failed;
  out.correct = out.failed == 0 && st.completed() > 0;
  run.report(out, tally);
}

void layers(Outcome& out, const std::vector<lin::Matrix>& panels,
            const RunArgs& args) {
  CheckTally tally;
  const double budget = args.seconds;
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& msgs = reg.counter("rt.modeled.msgs");
  obs::Counter& words = reg.counter("rt.modeled.words");

  // The untraced loop.  The registry adds each engine rank's traffic when
  // the service's world ends, so the deltas are read after shutdown.
  const u64 msgs0 = msgs.value();
  const u64 words0 = words.value();
  LoopStats st;
  u64 service_jobs = 0;
  {
    serve::FactorizeService svc(service_options());
    warm_up(svc, panels);
    st = closed_loop(svc, panels, 0.4 * budget, LONG_MAX);
    svc.shutdown();
    service_jobs = svc.stats().completed;
  }
  check_sample(tally, st, panels);
  const double per_job_rank =
      1.0 / (static_cast<double>(service_jobs) * kRanks);
  out.set("rt.msgs", static_cast<double>(msgs.value() - msgs0) * per_job_rank);
  out.set("rt.words",
          static_cast<double>(words.value() - words0) * per_job_rank);

  const auto completed = static_cast<double>(st.completed());
  const double p50_ms = median(st.latency_s) * 1e3;
  out.set("serve.submit_us_p50", median(st.submit_s) * 1e6);
  out.set("serve.queue_ms_p50", median(st.queue_s) * 1e3);
  out.set("serve.exec_ms_p50", median(st.exec_s) * 1e3);
  out.set("serve.unattributed_ms_p50", median(st.unattributed_s) * 1e3);
  out.set("serve.batch_size_mean", mean(st.batch_size));
  const serve::ServiceStats& s0 = st.stats0;
  const serve::ServiceStats& s1 = st.stats1;
  const auto done = static_cast<double>(s1.completed - s0.completed);
  out.set("serve.rounds_per_job",
          static_cast<double>(s1.rounds - s0.rounds) / done);
  out.set("serve.batched_share",
          static_cast<double>(s1.batched_jobs - s0.batched_jobs) / done);
  out.set("serve.reject_share",
          static_cast<double>(s1.rejected - s0.rejected) /
              static_cast<double>(st.attempted));
  const double user = st.after.user_s - st.before.user_s;
  const double sys = st.after.sys_s - st.before.sys_s;
  out.set("proc.minor_faults_per_job",
          static_cast<double>(st.after.minor_faults - st.before.minor_faults) /
              completed);
  out.set("proc.sys_cpu_share", sys / (user + sys));
  out.set("core.shift_share", static_cast<double>(st.shifted) / completed);

  // Kernels and collectives on the largest panel's local shapes, rows
  // split over the two engine ranks.
  const std::array<Shape, kShapes> shapes = mix(args.tiny);
  const Shape big = shapes.back();
  measure_kernels(out, args.seed, big.m / kRanks, big.n, big.n,
                  0.1 * budget);
  i64 fused_gram_words = 0;  // one fused Gram allreduce per mix cycle
  for (const Shape& sh : shapes) fused_gram_words += sh.n * sh.n;
  measure_collectives(out, kRanks, 1, kRanks, fused_gram_words,
                      big.m / kRanks * big.n, 0.05 * budget);

  // Flops of one job per shape through the batched lane, max over ranks,
  // averaged over the mix.
  std::vector<rt::CostCounters> flops(kRanks);
  (void)rt::Runtime::run(
      kRanks,
      [&](rt::Comm& world) {
        for (const lin::Matrix& panel :
             std::span(panels).first(kShapes)) {
          const lin::ConstMatrixView one[1] = {panel};
          const rt::CostCounters c0 = world.counters();
          (void)core::factorize_batched(one, world);
          flops[static_cast<std::size_t>(world.rank())] +=
              world.counters() - c0;
        }
      },
      rt::Machine::counting(), 1, rt::TransportKind::modeled);
  out.set("lin.flops",
          static_cast<double>(rt::max_counters(flops).flops) / kShapes);

  // The same loop traced, for the same number of jobs.
  const u64 dropped0 = obs::dropped_events();
  obs::set_trace_mode(obs::TraceMode::all);
  LoopStats traced;
  {
    serve::FactorizeService svc(service_options());
    warm_up(svc, panels);
    traced = closed_loop(svc, panels, 0.4 * budget, st.attempted);
  }
  obs::set_trace_mode(obs::TraceMode::off);
  check_sample(tally, traced, panels);
  out.set("obs.trace_overhead_pct",
          100.0 * (median(traced.latency_s) * 1e3 / p50_ms - 1.0));
  out.set("obs.dropped_events",
          static_cast<double>(obs::dropped_events() - dropped0));
  out.set("lin.arena_high_water_mb",
          static_cast<double>(lin::kernel::arena_stats().high_water_bytes) /
              (1024.0 * 1024.0));

  out.attempted = st.attempted + traced.attempted +
                  2 * static_cast<long>(panels.size());
  out.failed = st.failed + traced.failed + tally.failed;
  out.correct = out.failed == 0 && st.completed() > 0;
  out.detail("untraced_jobs", std::to_string(st.completed()));
  out.detail("traced_jobs", std::to_string(traced.completed()));
  out.detail("untraced_p50_ms", json_number(p50_ms));
  out.detail("checked", std::to_string(tally.checked));
}

}  // namespace

Outcome run_serve_workload(const RunArgs& args) {
  const std::vector<lin::Matrix> panels = make_panels(args);
  Outcome out;
  if (args.trace) {
    layers(out, panels, args);
  } else {
    end_to_end(out, panels, args);
  }
  return out;
}

}  // namespace bench
