#include "cacqr/lin/parallel.hpp"

#include "cacqr/obs/trace.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cacqr::lin::parallel {

namespace detail {

/// One calling thread's persistent worker pool.  Workers park on `cv_start`
/// between regions and are woken by an epoch bump; the caller participates
/// in every region as tid 0 and waits on `cv_done` for the join.  All
/// region hand-off state (`task`, `active`, `running`, `error`) is guarded
/// by `mu`, which also provides the happens-before edges TSAN needs
/// between region bodies and the caller's surrounding code.
struct Pool {
  std::mutex mu;
  std::condition_variable cv_start;
  std::condition_variable cv_done;
  u64 epoch = 0;
  int active = 0;  ///< team size of the in-flight region (0 between regions)
  const std::function<void(Team&)>* task = nullptr;
  int running = 0;  ///< workers still executing the in-flight region
  std::exception_ptr error;
  bool shutdown = false;
  int trace_rank = -1;  ///< owner's trace rank, adopted by workers per region

  // Centralized sense-reversing barrier for the in-flight team.
  std::mutex barrier_mu;
  std::condition_variable barrier_cv;
  int barrier_waiting = 0;
  u64 barrier_gen = 0;

  std::vector<std::thread> workers;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu);
      shutdown = true;
    }
    cv_start.notify_all();
    for (auto& w : workers) w.join();
  }

  void ensure_workers(int count) {
    while (static_cast<int>(workers.size()) < count) {
      const int tid = static_cast<int>(workers.size()) + 1;
      workers.emplace_back([this, tid] { worker_main(tid); });
    }
  }

  void worker_main(int tid);
  void run_region(int nthreads, const std::function<void(Team&)>& body);
};

namespace {

/// 0 = not yet initialized from the environment.
thread_local int tls_budget = 0;

/// Depth > 0 while the calling thread is inside a region body (as caller
/// or worker): nested region requests run inline instead of spawning.
thread_local int tls_region_depth = 0;

struct DepthGuard {
  DepthGuard() noexcept { ++tls_region_depth; }
  ~DepthGuard() { --tls_region_depth; }
};

thread_local std::unique_ptr<Pool> tls_pool;

Pool& local_pool() {
  if (!tls_pool) tls_pool = std::make_unique<Pool>();
  return *tls_pool;
}

}  // namespace

void Pool::worker_main(int tid) {
  tls_region_depth = 1;  // regions never nest: worker-issued regions inline
  u64 seen = 0;
  for (;;) {
    const std::function<void(Team&)>* my_task = nullptr;
    int team_size = 0;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv_start.wait(lock, [&] { return shutdown || epoch != seen; });
      if (shutdown) return;
      seen = epoch;
      if (tid >= active) continue;  // pool larger than this region's team
      my_task = task;
      team_size = active;
      // Adopt the owner's trace rank, so worker spans land on the owning
      // rank's process row instead of an anonymous driver row.
      obs::set_trace_rank(trace_rank);
    }
    Team team(tid, team_size, this);
    try {
      if (obs::trace_on()) {
        obs::SpanScope span("lin", "worker");
        span.arg("tid", tid);
        (*my_task)(team);
      } else {
        (*my_task)(team);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      if (--running == 0) cv_done.notify_one();
    }
  }
}

void Pool::run_region(int nthreads, const std::function<void(Team&)>& body) {
  ensure_workers(nthreads - 1);
  obs::SpanScope region_span("lin", "region");
  region_span.arg("width", nthreads);
  {
    std::lock_guard<std::mutex> lock(mu);
    task = &body;
    active = nthreads;
    running = nthreads - 1;
    error = nullptr;
    trace_rank = obs::trace_rank();
    ++epoch;
  }
  cv_start.notify_all();
  Team team(0, nthreads, this);
  try {
    body(team);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu);
    if (!error) error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mu);
  cv_done.wait(lock, [&] { return running == 0; });
  active = 0;
  task = nullptr;
  if (error) {
    std::exception_ptr e = error;
    error = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

}  // namespace detail

int hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int env_threads() noexcept {
  static const int value = [] {
    const char* s = std::getenv("CACQR_THREADS");
    if (s == nullptr || *s == '\0') return 1;
    char* end = nullptr;
    const long n = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || n < 1) return 1;
    return static_cast<int>(std::min<long>(n, 256));
  }();
  return value;
}

int thread_budget() noexcept {
  if (detail::tls_budget == 0) detail::tls_budget = env_threads();
  return detail::tls_budget;
}

void reinit_after_fork() noexcept {
  // The inherited pool's workers died with fork(); running ~Pool would
  // join threads that no longer exist.  Abandon the handle instead (a
  // bounded, one-time leak per forked child) and let the next region
  // rebuild lazily.
  (void)detail::tls_pool.release();
}

void set_thread_budget(int n) noexcept {
  // Same [1, 256] ceiling env_threads() enforces: kernel drivers size
  // teams directly from the budget (bypassing parallel_for's clamp), so
  // an unbounded budget could ask one pool for thousands of OS threads.
  detail::tls_budget = std::clamp(n, 1, 256);
}

Range split_range(i64 count, i64 grain, int part, int nparts) noexcept {
  const i64 g = std::max<i64>(1, grain);
  const i64 units = ceil_div(std::max<i64>(0, count), g);
  const i64 per = units / nparts;
  const i64 rem = units % nparts;
  const i64 u0 = part * per + std::min<i64>(part, rem);
  const i64 u1 = u0 + per + (part < rem ? 1 : 0);
  return {std::min(u0 * g, count), std::min(u1 * g, count)};
}

void Team::barrier() {
  if (size_ <= 1 || pool_ == nullptr) return;
  detail::Pool& p = *pool_;
  std::unique_lock<std::mutex> lock(p.barrier_mu);
  const u64 gen = p.barrier_gen;
  if (++p.barrier_waiting == size_) {
    p.barrier_waiting = 0;
    ++p.barrier_gen;
    p.barrier_cv.notify_all();
  } else {
    p.barrier_cv.wait(lock, [&] { return p.barrier_gen != gen; });
  }
}

bool in_region() noexcept { return detail::tls_region_depth > 0; }

void run(int nthreads, const std::function<void(Team&)>& body) {
  const int n = std::max(1, nthreads);
  if (n == 1 || detail::tls_region_depth > 0) {
    detail::DepthGuard guard;
    Team team(0, 1, nullptr);
    body(team);
    return;
  }
  detail::DepthGuard guard;
  detail::local_pool().run_region(n, body);
}

}  // namespace cacqr::lin::parallel
