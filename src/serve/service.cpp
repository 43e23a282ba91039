#include "cacqr/serve/service.hpp"

#include <algorithm>
#include <deque>
#include <string>

#include "cacqr/core/batched.hpp"
#include "cacqr/core/factorize.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/obs/metrics.hpp"
#include "cacqr/obs/trace.hpp"
#include "cacqr/support/error.hpp"
#include "cacqr/support/timer.hpp"

namespace cacqr::serve {

namespace {

using JobPtr = std::shared_ptr<detail::Job>;

/// The batched lane's column bound.  Each rank thread's grow-only
/// workspace keeps the largest batch it has factored, so wider panels run
/// alone.
constexpr i64 kBatchMaxN = 64;

/// The batched-lane routing rule: a panel at most kBatchMaxN wide whose
/// heuristic grid -- core::choose_grid, the grid standalone factorize
/// runs -- is 1D.  On that grid factorize runs the stacked 1D sweep
/// (core/batched.hpp), so a job's bits depend neither on its lane nor on
/// its batch mates.
bool batch_eligible(int ranks, i64 rows, i64 cols) {
  return cols <= kBatchMaxN &&
         core::choose_grid(ranks, rows, cols).first == 1;
}

/// One scheduler round, each list in admission order: the jobs of its one
/// fused sweep, then the jobs that run alone through core::factorize.
struct Round {
  std::vector<JobPtr> batched;
  std::vector<JobPtr> alone;
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
  Round round;

  /// Rank 0's end of a job, for both lanes: `err` fails it, else it is
  /// done with `res`.  Stats first, wakeup second: a client that observes
  /// its job terminal must observe the counters covering it.
  void finish(detail::Job& j, JobResult res, std::exception_ptr err) {
    const JobStatus terminal = err ? JobStatus::failed : JobStatus::done;
    {
      const std::lock_guard<std::mutex> lock(mu);
      ++(err ? stats.failed : stats.completed);
    }
    if (!err) serve_metrics().exec_seconds->observe(res.exec_seconds);
    res.queue_seconds = j.queue_seconds;
    if (j.finish(terminal, std::move(res), std::move(err))) {
      trace_job_end(j, terminal);
    }
  }
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
          Round round;
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
                const bool batched =
                    opts_.batching &&
                    batch_eligible(opts_.ranks, j->a.rows(), j->a.cols());
                (batched ? round.batched : round.alone)
                    .push_back(std::move(j));
              }
              ++sh.stats.rounds;
              if (round.batched.size() > 1) {
                ++sh.stats.batches;
                sh.stats.batched_jobs += round.batched.size();
              }
              serve_metrics().queue_depth->set(
                  static_cast<double>(sh.queue.size()));
              if (obs::trace_on()) {
                const std::size_t batched = round.batched.size();
                obs::instant(
                    "serve", "round",
                    {{"jobs", static_cast<double>(batched +
                                                  round.alone.size())},
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

        const Round* round = nullptr;
        bool stop = false;
        {
          std::unique_lock<std::mutex> lock(sh.round_mu);
          sh.cv_round.wait(lock, [&] { return sh.round_seq > seen; });
          seen = sh.round_seq;
          round = &sh.round;
          stop = sh.stop_round;
        }
        if (stop) break;

        // The round's one fused sweep: every batched-lane job of it.
        const std::vector<JobPtr>& batch = round->batched;
        if (!batch.empty()) {
          WallTimer timer;
          obs::SpanScope group_span("serve", "exec_group");
          group_span.arg("jobs", static_cast<double>(batch.size()));
          group_span.arg("batched", 1.0);
          std::vector<lin::ConstMatrixView> panels;
          panels.reserve(batch.size());
          for (const JobPtr& j : batch) panels.emplace_back(j->a);
          // Only rank 0 hands Q to the job, so only rank 0 receives it.
          std::vector<core::BatchedItem> items = core::factorize_batched(
              panels, world, {.result = core::ResultShape::root});
          if (world.rank() == 0) {
            const double secs = timer.seconds();
            serve_metrics().batch_size->observe(
                static_cast<double>(batch.size()));
            for (std::size_t i = 0; i < batch.size(); ++i) {
              // Failure isolation: a panel's breakdown rides its own
              // handle; its batch mates complete normally.
              JobResult res;
              res.q = std::move(items[i].q);
              res.r = std::move(items[i].r);
              res.algo = tune::Algo::cqr_1d;
              res.used_shift = items[i].used_shift;
              res.batched = batch.size() > 1;
              res.batch_size = batch.size();
              res.exec_seconds = secs;
              sh.finish(*batch[i], std::move(res), std::move(items[i].error));
            }
          }
        }
        for (const JobPtr& j : round->alone) {
          WallTimer timer;
          obs::SpanScope group_span("serve", "exec_group");
          group_span.arg("jobs", 1.0);
          group_span.arg("batched", 0.0);
          JobResult res;
          std::exception_ptr err;
          try {
            core::FactorizeResult fr = core::factorize(j->a, world);
            res.q = std::move(fr.q);
            res.r = std::move(fr.r);
            res.algo = fr.plan.algo;
            res.used_shift = fr.used_shift;
          } catch (const AbortError&) {
            throw;  // the run is tearing down; do not swallow
          } catch (const Error&) {
            // Thrown consistently on every rank (the library's error
            // contract), so every rank lands here and the round
            // continues in step.  Rank 0 records it on the job alone.
            err = std::current_exception();
          }
          if (world.rank() == 0) {
            res.exec_seconds = timer.seconds();
            sh.finish(*j, std::move(res), std::move(err));
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
      for (std::vector<JobPtr>* lane : {&sh.round.batched, &sh.round.alone}) {
        for (JobPtr& j : *lane) orphans.push_back(std::move(j));
        lane->clear();
      }
    }
    for (const JobPtr& j : orphans) {
      if (j && j->finish(JobStatus::failed, {}, err)) {
        trace_job_end(*j, JobStatus::failed);
      }
    }
  }
}

}  // namespace cacqr::serve
