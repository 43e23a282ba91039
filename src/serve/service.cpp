#include "cacqr/serve/service.hpp"

#include <algorithm>
#include <deque>
#include <string>

#include "cacqr/core/batched.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/obs/metrics.hpp"
#include "cacqr/obs/trace.hpp"
#include "cacqr/support/error.hpp"
#include "cacqr/support/timer.hpp"

namespace cacqr::serve {

namespace {

using JobPtr = std::shared_ptr<detail::Job>;

/// Batched-lane eligibility bounds: at most kBatchMaxN columns, and at
/// least kBatchMinAspect times as many rows as columns.
constexpr i64 kBatchMaxN = 64;
constexpr i64 kBatchMinAspect = 4;

/// The batched-lane routing rule.  Eligible jobs execute via the stacked
/// 1D driver (core/batched.hpp) whether or not they share a round with
/// batch mates, so batching can only change WHICH sweep a job rides,
/// never its bits.  Panels too square or too wide to win from alpha
/// amortization run core::factorize.
bool batch_eligible(i64 rows, i64 cols) {
  return cols <= kBatchMaxN && rows >= kBatchMinAspect * cols;
}

/// Jobs fuse into one sweep only when their panels share a column count
/// (every job runs the same options, and the kernel variant is
/// process-wide, so neither needs a key).
bool same_batch_key(const detail::Job& a, const detail::Job& b) {
  return a.a.cols() == b.a.cols();
}

/// One dispatch group of a round: a batched-lane sweep (>= 1 compatible
/// jobs, one stacked call) or a single ordinary-driver job.
struct Group {
  std::vector<JobPtr> jobs;
  bool batched_lane = false;
};

/// Cached registry handles for the service's instruments (lookup is
/// mutex-guarded; the submit/dispatch paths must not pay it per job).
/// Leaked with the registry itself.
struct ServeMetrics {
  obs::Counter* admitted;
  obs::Counter* rejected;
  obs::Gauge* queue_depth;
  obs::Gauge* queue_depth_high_water;
  obs::Histogram* wait_seconds;
  obs::Histogram* exec_seconds;
  obs::Histogram* batch_size;
};

ServeMetrics& serve_metrics() {
  static ServeMetrics* m = [] {
    auto* s = new ServeMetrics();
    auto& r = obs::Registry::global();
    s->admitted = &r.counter("serve.admitted");
    s->rejected = &r.counter("serve.rejected");
    s->queue_depth = &r.gauge("serve.queue_depth");
    s->queue_depth_high_water = &r.gauge("serve.queue_depth_high_water");
    const double lat[] = {1e-4, 3e-4, 1e-3, 3e-3, 1e-2,
                          3e-2, 0.1,  0.3,  1.0,  3.0, 10.0};
    s->wait_seconds = &r.histogram("serve.wait_seconds", lat);
    s->exec_seconds = &r.histogram("serve.exec_seconds", lat);
    const double sizes[] = {1, 2, 4, 8, 16, 32};
    s->batch_size = &r.histogram("serve.batch_size", sizes);
    return s;
  }();
  return *m;
}

/// Closes a job's open async trace spans and ends its "job" envelope.
/// Exactly-once via trace_state; safe to call from any finisher (normal
/// completion and the engine-death drain race here).
void trace_job_end(detail::Job& j, JobStatus terminal) {
  if (j.trace_id == 0) return;
  const int st = j.trace_state.exchange(3, std::memory_order_acq_rel);
  if (st == 0 || st == 3) return;
  if (st == 1) obs::async_end("serve", "queued", j.trace_id);
  if (st == 2) obs::async_end("serve", "run", j.trace_id);
  obs::async_end("serve", "job", j.trace_id,
                 {{"status", static_cast<double>(static_cast<int>(terminal))}});
}

}  // namespace

/// Scheduler state shared between client threads and the engine ranks
/// (modeled transport: the ranks are threads of this process, so plain
/// mutex/cv handoff is the whole protocol).
struct FactorizeService::Shared {
  // Admission (clients and rank 0), guarded by `mu`.
  std::mutex mu;
  std::condition_variable cv_submit;  ///< wakes rank 0: work or shutdown
  std::deque<JobPtr> queue;  ///< admitted jobs, FIFO
  bool stopping = false;
  u64 next_seq = 0;
  ServiceStats stats;

  // Round handoff (rank 0 publishes, ranks 1.. follow), guarded by
  // `round_mu`.  `round` is stable from the seq bump until every rank
  // passes the end-of-round barrier.
  std::mutex round_mu;
  std::condition_variable cv_round;
  u64 round_seq = 0;
  bool stop_round = false;
  std::vector<Group> round;
};

FactorizeService::FactorizeService(ServiceOptions opts) : opts_(opts) {
  ensure(opts_.ranks >= 1, "serve: ranks must be >= 1");
  ensure(opts_.queue_depth >= 1, "serve: queue_depth must be >= 1");
  ensure(opts_.batch_window >= 1, "serve: batch_window must be >= 1");
  if (!opts_.batching) opts_.batch_window = 1;
  shared_ = std::make_unique<Shared>();
  engine_ = std::thread([this] { engine_main(); });
}

FactorizeService::~FactorizeService() { shutdown(); }

JobHandle FactorizeService::submit(lin::ConstMatrixView a) {
  ensure_dim(a.rows >= a.cols && a.cols >= 1,
             "serve: submit requires m >= n >= 1");
  auto job = std::make_shared<detail::Job>();
  job->a = lin::materialize(a);

  Shared& sh = *shared_;
  std::size_t depth_now = 0;
  {
    const std::lock_guard<std::mutex> lock(sh.mu);
    ensure(!sh.stopping, "serve: submit after shutdown");
    if (sh.queue.size() >= opts_.queue_depth) {
      // Deterministic backpressure: the handle is terminal before
      // submit() returns, never blocked and never silently dropped.
      ++sh.stats.rejected;
      serve_metrics().rejected->add(1);
      if (obs::trace_on()) {
        obs::instant("serve", "reject",
                     {{"n", static_cast<double>(job->a.cols())}});
      }
      job->finish(JobStatus::rejected, {},
                  std::make_exception_ptr(Error(
                      "serve: queue full (depth " +
                      std::to_string(opts_.queue_depth) + "), job rejected")));
      return JobHandle(job);
    }
    job->seq = sh.next_seq++;
    if (obs::trace_on()) {
      // One "job" envelope per admission, with a nested "queued" phase the
      // dispatcher closes.  Opened before the push: once queued, the job
      // is the scheduler's, which reads trace_id/trace_state to hand the
      // "queued" phase over to "run".
      job->trace_id = obs::new_async_id();
      job->trace_state.store(1, std::memory_order_release);
      obs::async_begin("serve", "job", job->trace_id,
                       {{"seq", static_cast<double>(job->seq)},
                        {"m", static_cast<double>(job->a.rows())},
                        {"n", static_cast<double>(job->a.cols())}});
      obs::async_begin("serve", "queued", job->trace_id);
    }
    sh.queue.push_back(job);
    ++sh.stats.submitted;
    depth_now = sh.queue.size();
    sh.stats.max_queue_depth = std::max(sh.stats.max_queue_depth, depth_now);
  }
  serve_metrics().admitted->add(1);
  serve_metrics().queue_depth->set(static_cast<double>(depth_now));
  serve_metrics().queue_depth_high_water->record_max(
      static_cast<double>(depth_now));
  if (obs::trace_on()) {
    // The counter series charts backlog over time.
    obs::counter("serve", "queue_depth", static_cast<double>(depth_now));
  }
  sh.cv_submit.notify_one();
  return JobHandle(job);
}

void FactorizeService::shutdown() {
  Shared& sh = *shared_;
  {
    const std::lock_guard<std::mutex> lock(sh.mu);
    sh.stopping = true;
  }
  sh.cv_submit.notify_all();
  if (engine_.joinable()) engine_.join();
}

ServiceStats FactorizeService::stats() const {
  const std::lock_guard<std::mutex> lock(shared_->mu);
  ServiceStats out = shared_->stats;
  out.queue_depth = shared_->queue.size();
  return out;
}

void FactorizeService::engine_main() {
  Shared& sh = *shared_;
  try {
    const auto rank_body = [this, &sh](rt::Comm& world) {
      u64 seen = 0;
      for (;;) {
        if (world.rank() == 0) {
          std::vector<Group> round;
          bool stop = false;
          {
            std::unique_lock<std::mutex> lock(sh.mu);
            sh.cv_submit.wait(
                lock, [&] { return !sh.queue.empty() || sh.stopping; });
            if (sh.queue.empty()) {
              stop = true;  // stopping and drained
            } else {
              // Dispatch window: up to batch_window jobs from the FIFO
              // head, in admission order.
              for (std::size_t taken = 0;
                   taken < opts_.batch_window && !sh.queue.empty();
                   ++taken) {
                JobPtr j = std::move(sh.queue.front());
                sh.queue.pop_front();
                // Merge into an open compatible sweep, else new group.
                Group* home = nullptr;
                if (opts_.batching &&
                    batch_eligible(j->a.rows(), j->a.cols())) {
                  for (Group& g : round) {
                    if (g.batched_lane &&
                        same_batch_key(*g.jobs.front(), *j)) {
                      home = &g;
                      break;
                    }
                  }
                  if (home == nullptr) {
                    round.push_back(Group{{}, true});
                    home = &round.back();
                  }
                } else {
                  round.push_back(Group{{}, false});
                  home = &round.back();
                }
                j->queue_seconds = j->since_submit.seconds();
                {
                  const std::lock_guard<std::mutex> jlock(j->mu);
                  j->status = JobStatus::running;
                }
                serve_metrics().wait_seconds->observe(j->queue_seconds);
                if (j->trace_id != 0) {
                  // queued -> run handoff on the job's async track.
                  int expected = 1;
                  if (j->trace_state.compare_exchange_strong(
                          expected, 2, std::memory_order_acq_rel)) {
                    obs::async_end("serve", "queued", j->trace_id);
                    obs::async_begin("serve", "run", j->trace_id);
                  }
                }
                home->jobs.push_back(std::move(j));
              }
              ++sh.stats.rounds;
              serve_metrics().queue_depth->set(
                  static_cast<double>(sh.queue.size()));
              if (obs::trace_on()) {
                std::size_t jobs = 0;
                std::size_t batched = 0;
                for (const Group& g : round) {
                  jobs += g.jobs.size();
                  if (g.batched_lane) batched += g.jobs.size();
                }
                obs::instant("serve", "round",
                             {{"groups", static_cast<double>(round.size())},
                              {"jobs", static_cast<double>(jobs)},
                              {"batched", static_cast<double>(batched)}});
                obs::counter("serve", "queue_depth",
                             static_cast<double>(sh.queue.size()));
              }
            }
          }
          {
            const std::lock_guard<std::mutex> lock(sh.round_mu);
            sh.round = std::move(round);
            sh.stop_round = stop;
            ++sh.round_seq;
          }
          sh.cv_round.notify_all();
        }

        const std::vector<Group>* round = nullptr;
        bool stop = false;
        {
          std::unique_lock<std::mutex> lock(sh.round_mu);
          sh.cv_round.wait(lock, [&] { return sh.round_seq > seen; });
          seen = sh.round_seq;
          round = &sh.round;
          stop = sh.stop_round;
        }
        if (stop) break;

        for (const Group& g : *round) {
          WallTimer timer;
          obs::SpanScope group_span("serve", "exec_group");
          group_span.arg("jobs", static_cast<double>(g.jobs.size()));
          group_span.arg("batched", g.batched_lane ? 1.0 : 0.0);
          if (g.batched_lane) {
            std::vector<lin::ConstMatrixView> panels;
            panels.reserve(g.jobs.size());
            for (const JobPtr& j : g.jobs) panels.emplace_back(j->a);
            // Only rank 0 hands Q to the job, so only rank 0 receives it.
            std::vector<core::BatchedItem> items = core::factorize_batched(
                panels, world, {.result = core::ResultShape::root});
            if (world.rank() == 0) {
              const double secs = timer.seconds();
              serve_metrics().batch_size->observe(
                  static_cast<double>(g.jobs.size()));
              // Stats first, wakeups second: a client that observes its
              // job terminal must observe the counters covering it.
              {
                u64 done = 0;
                u64 failed = 0;
                for (const core::BatchedItem& item : items) {
                  item.ok ? ++done : ++failed;
                }
                const std::lock_guard<std::mutex> lock(sh.mu);
                sh.stats.completed += done;
                sh.stats.failed += failed;
                if (g.jobs.size() > 1) {
                  ++sh.stats.batches;
                  sh.stats.batched_jobs += g.jobs.size();
                }
              }
              for (std::size_t i = 0; i < g.jobs.size(); ++i) {
                const JobPtr& j = g.jobs[i];
                if (items[i].ok) {
                  JobResult res;
                  res.q = std::move(items[i].q);
                  res.r = std::move(items[i].r);
                  res.algo = tune::Algo::cqr_1d;
                  res.used_shift = items[i].used_shift;
                  res.batched = g.jobs.size() > 1;
                  res.batch_size = g.jobs.size();
                  res.queue_seconds = j->queue_seconds;
                  res.exec_seconds = secs;
                  serve_metrics().exec_seconds->observe(secs);
                  if (j->finish(JobStatus::done, std::move(res), nullptr)) {
                    trace_job_end(*j, JobStatus::done);
                  }
                } else {
                  // Failure isolation: this panel's breakdown rides its
                  // own handle; batch mates completed above.
                  if (j->finish(JobStatus::failed, {},
                                std::move(items[i].error))) {
                    trace_job_end(*j, JobStatus::failed);
                  }
                }
              }
            }
          } else {
            const JobPtr& j = g.jobs.front();
            try {
              core::FactorizeResult fr = core::factorize(j->a, world);
              if (world.rank() == 0) {
                JobResult res;
                res.q = std::move(fr.q);
                res.r = std::move(fr.r);
                res.algo = fr.plan.algo;
                res.used_shift = fr.used_shift;
                res.queue_seconds = j->queue_seconds;
                res.exec_seconds = timer.seconds();
                serve_metrics().exec_seconds->observe(res.exec_seconds);
                {
                  const std::lock_guard<std::mutex> lock(sh.mu);
                  ++sh.stats.completed;
                }
                if (j->finish(JobStatus::done, std::move(res), nullptr)) {
                  trace_job_end(*j, JobStatus::done);
                }
              }
            } catch (const AbortError&) {
              throw;  // the run is tearing down; do not swallow
            } catch (const Error&) {
              // Thrown consistently on every rank (the library's error
              // contract), so every rank lands here and the round
              // continues in step.  Rank 0 records it on the job alone.
              if (world.rank() == 0) {
                {
                  const std::lock_guard<std::mutex> lock(sh.mu);
                  ++sh.stats.failed;
                }
                if (j->finish(JobStatus::failed, {},
                              std::current_exception())) {
                  trace_job_end(*j, JobStatus::failed);
                }
              }
            }
          }
        }
        // Rank 0 must not publish the next round while a rank still
        // executes (or reads) this one.
        world.barrier();
      }
    };
    rt::Runtime::run(opts_.ranks, rank_body, rt::Machine::counting(),
                     opts_.threads_per_rank, rt::TransportKind::modeled);
  } catch (...) {
    // Engine death (a non-isolatable error escaped a rank): every
    // admitted job still pending is failed with that error so no client
    // blocks forever, and further submits are refused.
    const std::exception_ptr err = std::current_exception();
    std::vector<JobPtr> orphans;
    {
      const std::lock_guard<std::mutex> lock(sh.mu);
      sh.stopping = true;
      for (JobPtr& j : sh.queue) orphans.push_back(std::move(j));
      sh.queue.clear();
    }
    {
      const std::lock_guard<std::mutex> lock(sh.round_mu);
      for (Group& g : sh.round) {
        for (JobPtr& j : g.jobs) orphans.push_back(std::move(j));
      }
      sh.round.clear();
    }
    for (const JobPtr& j : orphans) {
      if (j && j->finish(JobStatus::failed, {}, err)) {
        trace_job_end(*j, JobStatus::failed);
      }
    }
  }
}

}  // namespace cacqr::serve
