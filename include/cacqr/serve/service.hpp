#pragma once
/// \file service.hpp
/// \brief Factorization-as-a-service: a long-lived SPMD engine accepting
///        concurrent factorize jobs through a bounded admission queue.
///
/// One FactorizeService owns one rt::Runtime world (modeled transport:
/// rank threads inside this process) for its whole lifetime, so the
/// persistent worker pools, packing arenas, and the plan memo stay warm
/// across jobs -- the "heavy traffic" entry point of ROADMAP.md.  Client
/// threads submit() from anywhere; a scheduler round on rank 0 drains the
/// admission queue into dispatch windows, micro-batches compatible small
/// tall-skinny panels into one stacked CQR2 sweep (core/batched.hpp: one
/// Gram Allreduce per pass for the whole batch), and runs everything else
/// through the ordinary factorize driver, whose plan memo makes per-shape
/// repeats plan-free.
///
/// Contracts (DESIGN.md section 11):
///   * Admission: deterministic.  A job past `queue_depth` is REJECTED at
///     submit time (status JobStatus::rejected, backpressure error on the
///     handle) -- never blocked, never silently dropped.  Within a
///     priority class, dispatch order is exactly admission order (FIFO);
///     classes drain strictly high before normal before low.
///   * Determinism: a job's Q/R are bitwise identical to the same input
///     and options run standalone, whatever batch it lands in (the
///     batched driver's Allreduce-concatenation argument, batched.hpp).
///   * Isolation: a job that fails (NotSpdError with auto_shift off or
///     in its shifted rerun, NonFiniteError for a NaN or Inf) carries its
///     own error; queued and in-flight neighbors, including batch mates,
///     complete normally.
///   * Shutdown drains: every admitted job reaches a terminal status
///     before the destructor returns; submit() after shutdown throws.

#include <array>
#include <cstddef>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "cacqr/rt/comm.hpp"
#include "cacqr/serve/job.hpp"

namespace cacqr::serve {

/// Engine shape + scheduler policy.  A zero queue_depth resolves from the
/// environment at construction: CACQR_SERVE_QUEUE_DEPTH (default 64).
struct ServiceOptions {
  int ranks = 4;             ///< SPMD width of the engine world
  int threads_per_rank = 0;  ///< per-rank kernel budget (0: divide caller's)
  std::size_t queue_depth = 0;   ///< admission bound (0: env or 64)
  std::size_t batch_window = 8;  ///< max jobs per dispatch round (>= 1)
  bool batching = true;  ///< false: every round carries exactly one job
  i64 batch_max_n = 64;  ///< batched-lane eligibility: cols <= this
  i64 batch_min_aspect = 4;  ///< ... and rows >= aspect * cols
};

/// Monotone counters a service exposes (snapshot; taken under the
/// admission lock, so mutually consistent).
struct ServiceStats {
  u64 submitted = 0;  ///< admitted jobs (excludes rejections)
  u64 rejected = 0;   ///< backpressure rejections at submit
  u64 completed = 0;  ///< terminal done
  u64 failed = 0;     ///< terminal failed
  u64 rounds = 0;     ///< dispatch rounds executed
  u64 batches = 0;    ///< batched-lane sweeps with >= 2 jobs
  u64 batched_jobs = 0;  ///< jobs that rode such a sweep
  std::size_t max_queue_depth = 0;  ///< high-water admission backlog
  std::size_t queue_depth = 0;      ///< current admission backlog
  /// Per-admission-class admit/reject counts, indexed by Priority.
  std::array<u64, 3> admitted_by_class{};
  std::array<u64, 3> rejected_by_class{};
};

class FactorizeService {
 public:
  explicit FactorizeService(ServiceOptions opts = {});
  ~FactorizeService();  // shutdown(): drains, then stops the engine
  FactorizeService(const FactorizeService&) = delete;
  FactorizeService& operator=(const FactorizeService&) = delete;

  /// Admits one job (the panel is copied; m >= n >= 1 is validated here
  /// and throws DimensionError to the caller).  Returns immediately:
  /// either a queued handle, or -- when the backlog is at queue_depth --
  /// a handle already in JobStatus::rejected whose error says so.
  /// Throws Error after shutdown() has begun.
  JobHandle submit(lin::ConstMatrixView a, JobOptions opts = {});

  /// Stops admission, drains every queued job to a terminal status, and
  /// joins the engine.  Idempotent; called by the destructor.
  void shutdown();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return opts_;
  }

  /// The lin::parallel task group of engine rank `rank`: the service tags
  /// each rank lane at startup so kernel::arena_stats(group) attributes
  /// packing-arena growth per lane (no-alloc-after-warmup assertions).
  [[nodiscard]] int arena_group(int rank) const noexcept {
    return group_base_ + rank;
  }

 private:
  struct Shared;  // scheduler state shared with the engine ranks

  void engine_main();

  ServiceOptions opts_;
  int group_base_ = 0;
  std::unique_ptr<Shared> shared_;
  std::thread engine_;
};

}  // namespace cacqr::serve
