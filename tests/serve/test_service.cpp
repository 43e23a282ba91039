/// \file test_service.cpp
/// \brief FactorizeService contracts: results through the service are
///        bitwise identical to standalone factorize runs, on the grid
///        factorize picks, every batched-lane job of a round rides its one
///        sweep whatever its width, admission past queue_depth rejects
///        deterministically,
///        a failing job never poisons its neighbors, FIFO order is
///        observable, packing arenas and the batched lane's workspace stop
///        growing after warmup, shutdown drains every admitted job, and
///        traced submits from several threads hand every job's "queued"
///        span over to "run".

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cacqr/core/factorize.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/obs/trace.hpp"
#include "cacqr/serve/service.hpp"
#include "cacqr/support/error.hpp"
#include "cacqr/support/json.hpp"

namespace cacqr::serve {
namespace {

struct Ref {
  lin::Matrix q;
  lin::Matrix r;
};

/// Standalone reference factors: core::factorize with its defaults on a
/// fresh world of `ranks` ranks, the width of the service it is compared
/// with.  Computed before that service exists so the two runtimes never
/// overlap.  Rank 0 publishes Q then R: on the shm transport the ranks are
/// forked processes, so run_collect is the only way their results reach
/// this process.
Ref standalone(const lin::Matrix& a, int ranks = 4) {
  const rt::RunOutput out =
      rt::Runtime::run_collect(ranks, [&](rt::Comm& world) {
        const core::FactorizeResult fr = core::factorize(a, world);
        if (world.rank() == 0) {
          for (const lin::Matrix* f : {&fr.q, &fr.r}) {
            world.publish({f->data(), static_cast<std::size_t>(f->size())});
          }
        }
      });
  Ref ref{lin::Matrix(a.rows(), a.cols()), lin::Matrix(a.cols(), a.cols())};
  const std::vector<double>& blob = out.published.front();
  ensure(blob.size() == static_cast<std::size_t>(ref.q.size() + ref.r.size()),
         "standalone: rank 0 published ", blob.size(), " values");
  std::copy_n(blob.begin(), ref.q.size(), ref.q.data());
  std::copy_n(blob.begin() + ref.q.size(), ref.r.size(), ref.r.data());
  return ref;
}

/// Whether a job's Q and R are byte-equal to the reference's.
bool same_bytes(const JobResult& res, const Ref& ref) {
  const auto eq = [](const lin::Matrix& x, const lin::Matrix& y) {
    const auto bytes = sizeof(double) * static_cast<std::size_t>(x.size());
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           std::memcmp(x.data(), y.data(), bytes) == 0;
  };
  return eq(res.q, ref.q) && eq(res.r, ref.r);
}

/// Spins until the job leaves the admission queue (the scheduler stamped
/// it running, so the engine is busy inside that round and cannot pop
/// anything we enqueue until the round ends).
void wait_running(const JobHandle& h) {
  while (h.status() == JobStatus::queued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// A job big enough to keep the engine inside its round for the few
/// microseconds the tests need to stage the admission queue behind it.
lin::Matrix blocker_panel() { return lin::hashed_matrix(300, 2048, 96); }

TEST(ServiceTest, JobsComeBackBitwiseIdenticalToStandalone) {
  const lin::Matrix a0 = lin::hashed_matrix(301, 96, 8);
  const lin::Matrix a1 = lin::hashed_matrix(302, 160, 16);
  const Ref r0 = standalone(a0);
  const Ref r1 = standalone(a1);

  FactorizeService svc({.ranks = 4});
  const JobHandle h0 = svc.submit(a0);
  const JobHandle h1 = svc.submit(a1);
  EXPECT_EQ(h0.wait(), JobStatus::done);
  EXPECT_EQ(h1.wait(), JobStatus::done);
  EXPECT_EQ(h0.result().algo, tune::Algo::cqr_1d);
  EXPECT_FALSE(h0.result().used_shift);
  EXPECT_GE(h0.result().exec_seconds, 0.0);
  EXPECT_TRUE(same_bytes(h0.result(), r0));
  EXPECT_TRUE(same_bytes(h1.result(), r1));

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.rejected, 0u);
}

TEST(ServiceTest, IneligibleShapesRunTheOrdinaryDriver) {
  // cols past the batched lane's 64-column bound: the ordinary factorize
  // driver (heuristic CA grid), never the batched lane.
  const lin::Matrix a = lin::hashed_matrix(303, 256, 80);
  FactorizeService svc({.ranks = 4});
  const JobHandle h = svc.submit(a);
  EXPECT_EQ(h.wait(), JobStatus::done);
  EXPECT_FALSE(h.result().batched);
  EXPECT_EQ(h.result().batch_size, 1u);
  EXPECT_EQ(h.result().algo, tune::Algo::ca_cqr2);
  EXPECT_LT(lin::orthogonality_error(h.result().q), 1e-12);
  EXPECT_LT(lin::residual_error(a, h.result().q, h.result().r), 1e-12);
}

TEST(ServiceTest, JobsRunOnTheGridFactorizePicks) {
  // At 16 ranks factorize's grid rule puts a 256x64 panel on c = 2, d = 4.
  // The job must run there too, not in the batched lane's 1D sweep, and
  // come back with factorize's bytes.
  const lin::Matrix a = lin::hashed_matrix(318, 256, 64);
  ASSERT_EQ(core::choose_grid(16, a.rows(), a.cols()).first, 2);
  const Ref ref = standalone(a, 16);

  FactorizeService svc({.ranks = 16});
  const JobHandle h = svc.submit(a);
  ASSERT_EQ(h.wait(), JobStatus::done);
  EXPECT_EQ(h.result().algo, tune::Algo::ca_cqr2);
  EXPECT_FALSE(h.result().batched);
  EXPECT_TRUE(same_bytes(h.result(), ref));
}

TEST(ServiceTest, CompatibleJobsMicroBatchAndStayBitwise) {
  // Every batched-lane job of a round rides the round's one sweep,
  // whatever its width: n = 8, 16 and 24, the last with m < 4n.
  const lin::Matrix a[3] = {lin::hashed_matrix(304, 96, 8),
                            lin::hashed_matrix(305, 160, 16),
                            lin::hashed_matrix(306, 64, 24)};
  const Ref refs[3] = {standalone(a[0]), standalone(a[1]), standalone(a[2])};

  FactorizeService svc({.ranks = 4, .queue_depth = 16, .batch_window = 8});
  const JobHandle blocker = svc.submit(blocker_panel());
  wait_running(blocker);
  const JobHandle jobs[3] = {svc.submit(a[0]), svc.submit(a[1]),
                             svc.submit(a[2])};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(jobs[i].wait(), JobStatus::done);
    EXPECT_TRUE(jobs[i].result().batched) << "job " << i;
    EXPECT_EQ(jobs[i].result().batch_size, 3u) << "job " << i;
    EXPECT_EQ(jobs[i].result().algo, tune::Algo::cqr_1d) << "job " << i;
    EXPECT_TRUE(same_bytes(jobs[i].result(), refs[i])) << "job " << i;
  }
  EXPECT_EQ(blocker.wait(), JobStatus::done);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.batched_jobs, 3u);
}

TEST(ServiceTest, BatchingOffRunsEveryJobAlone) {
  const lin::Matrix a = lin::hashed_matrix(307, 96, 8);
  FactorizeService svc({.ranks = 4, .queue_depth = 16, .batching = false});
  const JobHandle blocker = svc.submit(blocker_panel());
  wait_running(blocker);
  const JobHandle h0 = svc.submit(a);
  const JobHandle h1 = svc.submit(a);
  EXPECT_EQ(h0.wait(), JobStatus::done);
  EXPECT_EQ(h1.wait(), JobStatus::done);
  EXPECT_FALSE(h0.result().batched);
  EXPECT_FALSE(h1.result().batched);
  EXPECT_EQ(svc.stats().batches, 0u);
  // Bitwise invariant either way: the batched lane is the same stacked
  // driver at batch size one.
  const JobHandle h0b = svc.submit(a);
  EXPECT_EQ(h0b.wait(), JobStatus::done);
  EXPECT_EQ(lin::max_abs_diff(h0.result().q, h0b.result().q), 0.0);
}

TEST(ServiceTest, ZeroBatchWindowIsRejectedAtConstruction) {
  // A round drains at most batch_window jobs: 0 would stall the engine.
  EXPECT_THROW(FactorizeService svc({.ranks = 1, .batch_window = 0}), Error);
  // A queue_depth of 0 would reject every submit.
  EXPECT_THROW(FactorizeService svc({.ranks = 1, .queue_depth = 0}), Error);
}

TEST(ServiceTest, FifoWithinAClass) {
  FactorizeService svc({.ranks = 4, .queue_depth = 16, .batching = false});
  const JobHandle blocker = svc.submit(blocker_panel());
  wait_running(blocker);
  const JobHandle first = svc.submit(lin::hashed_matrix(309, 64, 8));
  const JobHandle second = svc.submit(lin::hashed_matrix(310, 96, 16));
  EXPECT_EQ(second.wait(), JobStatus::done);
  EXPECT_EQ(first.status(), JobStatus::done);  // admission order held
}

TEST(ServiceTest, QueueFullRejectsDeterministically) {
  const lin::Matrix a = lin::hashed_matrix(311, 96, 8);
  FactorizeService svc({.ranks = 4, .queue_depth = 3, .batching = false});
  const JobHandle blocker = svc.submit(blocker_panel());
  wait_running(blocker);
  // The engine is pinned inside the blocker's round: exactly queue_depth
  // admissions fit, and the next submit must come back already rejected.
  std::vector<JobHandle> admitted;
  for (int i = 0; i < 3; ++i) admitted.push_back(svc.submit(a));
  const JobHandle overflow = svc.submit(a);
  EXPECT_EQ(overflow.status(), JobStatus::rejected);
  EXPECT_EQ(overflow.wait(), JobStatus::rejected);
  EXPECT_THROW((void)overflow.result(), Error);
  EXPECT_TRUE(overflow.error() != nullptr);
  for (JobHandle& h : admitted) EXPECT_EQ(h.wait(), JobStatus::done);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.submitted, 4u);  // blocker + the three admitted
  EXPECT_EQ(st.max_queue_depth, 3u);
}

TEST(ServiceTest, FailingJobDoesNotPoisonQueueOrBatchMates) {
  // Every job is batched-lane eligible, so the failing job rides the
  // round's one sweep with its mates.  A zero first column breaks the
  // shifted rerun too, and a NaN is never rerun.
  lin::Matrix zero_col = lin::hashed_matrix(316, 64, 8);
  for (i64 i = 0; i < zero_col.rows(); ++i) zero_col(i, 0) = 0.0;
  lin::Matrix nan = lin::hashed_matrix(317, 64, 8);
  nan(10, 3) = std::nan("");
  const lin::Matrix good = lin::hashed_matrix(313, 64, 8);
  const Ref ref = standalone(good);

  struct Case {
    const char* name;
    const lin::Matrix* bad;
  };
  for (const Case& c : {Case{"zero column", &zero_col}, Case{"nan", &nan}}) {
    SCOPED_TRACE(c.name);
    FactorizeService svc({.ranks = 4, .queue_depth = 16});
    const JobHandle blocker = svc.submit(blocker_panel());
    wait_running(blocker);
    const JobHandle g0 = svc.submit(good);
    const JobHandle b = svc.submit(*c.bad);
    const JobHandle g1 = svc.submit(good);

    EXPECT_EQ(b.wait(), JobStatus::failed);
    EXPECT_THROW((void)b.result(), NotSpdError);
    for (const JobHandle& h : {g0, g1}) {
      EXPECT_EQ(h.wait(), JobStatus::done);
      EXPECT_TRUE(same_bytes(h.result(), ref));
    }
    // The engine survives: a job submitted after the failure completes.
    const JobHandle after = svc.submit(good);
    EXPECT_EQ(after.wait(), JobStatus::done);

    const ServiceStats st = svc.stats();
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.completed, 4u);  // blocker, g0, g1, after
  }
}

TEST(ServiceTest, ArenasStopGrowingAfterWarmup) {
  // The persistent engine pays arena growth on the first job of a shape
  // and never again -- the packing arenas and the batched lane's
  // workspace alike.  Only this service's rank lanes run kernels here, so
  // the process-wide grow count covers exactly them.
  const lin::Matrix a = lin::hashed_matrix(314, 512, 48);
  FactorizeService svc({.ranks = 4});
  EXPECT_EQ(svc.submit(a).wait(), JobStatus::done);  // warmup

  const i64 warm = lin::kernel::arena_stats().allocations;
  EXPECT_GT(warm, 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(svc.submit(a).wait(), JobStatus::done);
  }
  EXPECT_EQ(lin::kernel::arena_stats().allocations, warm)
      << "arenas grew on a repeat of an already-warm shape";
}

TEST(ServiceTest, ShutdownDrainsEveryAdmittedJob) {
  const lin::Matrix a = lin::hashed_matrix(315, 96, 8);
  FactorizeService svc({.ranks = 4, .queue_depth = 16});
  std::vector<JobHandle> handles;
  for (int i = 0; i < 5; ++i) handles.push_back(svc.submit(a));
  svc.shutdown();
  for (JobHandle& h : handles) EXPECT_EQ(h.wait(), JobStatus::done);
  EXPECT_THROW((void)svc.submit(a), Error);
  svc.shutdown();  // idempotent
}

/// Traces everything into a fresh temporary directory for one scope, then
/// restores the process-wide trace mode and directory and removes it.
struct TempTrace {
  obs::TraceMode saved_mode = obs::trace_mode();
  std::string saved_dir = obs::trace_dir();
  std::string dir;

  TempTrace() {
    char tmpl[] = "/tmp/cacqr_serve_trace_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) return;
    dir = tmpl;
    obs::set_trace_dir(dir);
    obs::set_trace_mode(obs::TraceMode::all);
  }
  TempTrace(const TempTrace&) = delete;
  TempTrace& operator=(const TempTrace&) = delete;
  ~TempTrace() {
    obs::set_trace_mode(saved_mode);
    obs::set_trace_dir(saved_dir);
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

TEST(ServiceTest, TracedSubmitsFromManyThreadsHandEveryJobToRun) {
  // Clients race the scheduler: a job's trace id and state must be set
  // before the job is visible on the queue, or the scheduler can pop it
  // untraced and its "queued" span never becomes "run".
  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 6;
  const lin::Matrix a = lin::hashed_matrix(315, 96, 8);
  const Ref ref = standalone(a);

  const TempTrace trace;
  ASSERT_FALSE(trace.dir.empty());
  std::vector<JobHandle> handles(kClients * kJobsPerClient);
  {
    FactorizeService svc({.ranks = 4, .queue_depth = 64});
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        for (int i = 0; i < kJobsPerClient; ++i) {
          handles[t * kJobsPerClient + i] = svc.submit(a);
        }
      });
    }
    for (std::thread& c : clients) c.join();
    for (const JobHandle& h : handles) {
      ASSERT_EQ(h.wait(), JobStatus::done);
      EXPECT_TRUE(same_bytes(h.result(), ref));
    }
  }

  ASSERT_TRUE(obs::write_process_trace());
  ASSERT_EQ(obs::dropped_events(), 0u);
  const auto doc = support::read_json_file(
      trace.dir + "/trace-" + std::to_string(::getpid()) + ".json");
  ASSERT_TRUE(doc.has_value());
  std::set<i64> jobs;
  std::set<i64> runs;
  const support::Json& ev = (*doc)["traceEvents"];
  for (std::size_t i = 0; i < ev.size(); ++i) {
    const support::Json& e = ev.at(i);
    if (e["cat"].as_string() != "serve" || e["ph"].as_string() != "b") {
      continue;
    }
    if (e["name"].as_string() == "job") jobs.insert(e["id"].as_int());
    if (e["name"].as_string() == "run") runs.insert(e["id"].as_int());
  }
  EXPECT_GE(jobs.size(), handles.size());
  EXPECT_EQ(runs, jobs);
}

}  // namespace
}  // namespace cacqr::serve
