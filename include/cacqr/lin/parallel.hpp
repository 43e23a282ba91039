#pragma once
/// \file parallel.hpp
/// \brief Persistent worker pool for intra-rank thread parallelism.
///
/// Every thread that opens a parallel region owns a private, lazily-created
/// pool of persistent workers (parked on a condition variable between
/// regions, joined when the owning thread exits).  This maps cleanly onto
/// the SPMD runtime -- one rank thread == one pool owner -- so P ranks with
/// a per-rank budget of T threads use exactly P pools of T-1 workers each
/// and never share region state across ranks.
///
/// How many threads a region actually uses is governed by the calling
/// thread's *budget*:
///
///   * every new thread starts with the budget given by the CACQR_THREADS
///     environment variable (default 1, so single-threaded behavior is
///     unchanged unless explicitly requested);
///   * `set_thread_budget` overrides it for the calling thread -- the rank
///     runtime uses this to divide a node budget across ranks
///     (`Runtime::run(P, body, threads_per_rank)`), benches use it to
///     implement `--threads N`.
///
/// Regions never nest: a `run`/`parallel_for` issued from inside a region
/// body (on a worker or on the region's caller) executes inline on the
/// calling thread.  This makes it safe to parallelize leaf kernels without
/// auditing every caller for accidental thread explosions.
///
/// Determinism contract: the primitives here only *partition* index spaces;
/// they never change the order of floating-point operations applied to a
/// given output element.  Callers keep bitwise-identical results across
/// thread counts by (a) giving each output element exactly one owner and
/// (b) never splitting reduction loops (see DESIGN.md section 3).

#include <functional>

#include "cacqr/support/math.hpp"

namespace cacqr::lin::parallel {

namespace detail {
struct Pool;
}

/// Hardware thread count reported by the OS (>= 1; 1 when unknown).
[[nodiscard]] int hardware_threads() noexcept;

/// The CACQR_THREADS environment value, parsed once per process: a positive
/// integer, clamped to [1, 256]; absent or malformed values yield 1.
[[nodiscard]] int env_threads() noexcept;

/// The calling thread's worker budget: the maximum team size `parallel_for`
/// will use.  Initialized from `env_threads()` on first use in each thread.
[[nodiscard]] int thread_budget() noexcept;

/// Overrides the calling thread's budget (clamped to [1, 256], the same
/// ceiling env_threads() enforces).
void set_thread_budget(int n) noexcept;

/// Forked-child recovery: pool worker threads do not survive fork(), so a
/// child process inheriting a live pool would park forever on its first
/// region (dead workers never check in) or crash joining them.  Call this
/// in the child before any parallel region: it abandons the calling
/// thread's inherited pool handle -- deliberately without running the
/// destructor, whose join would hang -- and the next region lazily builds
/// a fresh pool.  The rt shm/mpi process backends call it for every rank.
void reinit_after_fork() noexcept;

/// Contiguous half-open index range.
struct Range {
  i64 begin = 0;
  i64 end = 0;
};

/// Chunk `part` (of `nparts`) of [0, count), split contiguously at `grain`
/// boundaries: unit u covers [u*grain, min((u+1)*grain, count)) and whole
/// units are dealt out as evenly as possible, earlier parts first.  Parts
/// beyond the unit count receive an empty range.
[[nodiscard]] Range split_range(i64 count, i64 grain, int part,
                                int nparts) noexcept;

/// Handle passed to region bodies: the caller participates as tid 0,
/// workers as tids 1..size-1.
class Team {
 public:
  [[nodiscard]] int tid() const noexcept { return tid_; }
  [[nodiscard]] int size() const noexcept { return size_; }

  /// Blocks until every team member reaches the barrier.  All members of
  /// the region must execute the same sequence of barrier calls, and a
  /// body that uses barriers must not throw between them (a member that
  /// exits early would deadlock the rest).
  void barrier();

  /// This member's chunk of [0, count) per `split_range`.
  [[nodiscard]] Range chunk(i64 count, i64 grain) const noexcept {
    return split_range(count, grain, tid_, size_);
  }

 private:
  friend struct detail::Pool;
  friend void run(int, const std::function<void(Team&)>&);
  Team(int tid, int size, detail::Pool* pool) noexcept
      : tid_(tid), size_(size), pool_(pool) {}
  int tid_;
  int size_;
  detail::Pool* pool_;
};

/// Runs `body(team)` on exactly max(1, nthreads) team members, reusing (and
/// growing) the calling thread's persistent pool; returns after all members
/// finish.  The first exception thrown by any member is rethrown here.
/// Called from inside a region, the body runs inline with a team of one.
/// Note this does NOT consult `thread_budget` -- it is the raw primitive;
/// use `parallel_for` (or clamp manually) for budget-aware work splitting.
void run(int nthreads, const std::function<void(Team&)>& body);

/// True while the calling thread is executing a region body (as caller or
/// worker); further regions it opens run inline.
[[nodiscard]] bool in_region() noexcept;

/// Budget-aware contiguous loop split: partitions [0, count) at `grain`
/// boundaries over min(thread_budget(), ceil(count/grain)) team members and
/// invokes body(begin, end) once per non-empty chunk.  A template so the
/// ubiquitous single-chunk / budget-1 case is a direct, inlinable call --
/// kernels wrapped in parallel_for keep their sequential code generation
/// (constant folding of enum arguments included) when threading is off.
template <class Body>
void parallel_for(i64 count, i64 grain, Body&& body) {
  if (count <= 0) return;
  const i64 g = grain < 1 ? 1 : grain;
  const i64 units = ceil_div(count, g);
  const i64 width = units < thread_budget() ? units : thread_budget();
  if (width <= 1 || in_region()) {
    body(i64{0}, count);
    return;
  }
  run(static_cast<int>(width > 256 ? 256 : width), [&](Team& team) {
    const Range r = team.chunk(count, g);
    if (r.begin < r.end) body(r.begin, r.end);
  });
}

/// Minimum elements per chunk for memory-bound 2D sweeps (64 KB of
/// doubles): below this the fork/join handoff costs more than the copy.
inline constexpr i64 kMemoryBoundGrain = 8192;

/// Budget-aware split of a rows x cols column-major index space at whole
/// column granularity: invokes body(j_begin, j_end) with the column grain
/// chosen so every chunk covers at least `min_elems` elements.  This is the
/// splitter for the dist-layer local stages (gather unpack, transpose
/// permutes, block copies, add_scaled): columns of the output are dealt to
/// exactly one team member, so the one-owner determinism rule holds by
/// construction, and tiny local blocks stay on the calling thread.
template <class Body>
void parallel_for_cols(i64 rows, i64 cols, i64 min_elems, Body&& body) {
  const i64 r = rows < 1 ? 1 : rows;
  const i64 e = min_elems < 1 ? 1 : min_elems;
  parallel_for(cols, ceil_div(e, r), static_cast<Body&&>(body));
}

template <class Body>
void parallel_for_cols(i64 rows, i64 cols, Body&& body) {
  parallel_for_cols(rows, cols, kMemoryBoundGrain, static_cast<Body&&>(body));
}

}  // namespace cacqr::lin::parallel
