#pragma once
/// \file service.hpp
/// \brief Factorization-as-a-service: a long-lived SPMD engine accepting
///        concurrent factorize jobs through a bounded admission queue.
///
/// One FactorizeService owns one rt::Runtime world (modeled transport:
/// rank threads inside this process) for its whole lifetime, so the
/// persistent worker pools, packing arenas, and the plan memo stay warm
/// across jobs -- the "heavy traffic" entry point of ROADMAP.md.  Client
/// threads submit() a panel from anywhere; a scheduler round on rank 0
/// drains the admission queue into dispatch windows.  Every panel of the
/// round that is at most 64 columns wide and whose heuristic grid
/// (core::choose_grid, as factorize picks it) is 1D joins the round's one
/// stacked CQR2 sweep (core/batched.hpp: one Gram Allreduce per pass for
/// the whole round); every other panel runs through core::factorize with
/// its defaults (the heuristic grid).  Every job gets factorize's
/// contract: CholeskyQR2 in fp64, with the shifted CholeskyQR3 fallback.
///
/// Contracts (DESIGN.md section 11):
///   * Admission: deterministic.  A job past `queue_depth` is REJECTED at
///     submit time (status JobStatus::rejected, backpressure error on the
///     handle) -- never blocked, never silently dropped.  Dispatch order
///     is exactly admission order (one FIFO queue); within a round, the
///     fused sweep runs before the jobs that run alone.
///   * Determinism: a job's Q/R are bitwise identical to the same panel
///     run standalone through core::factorize, whatever lane and batch it
///     lands in: factorize runs the same 1D sweep on the grid that routes
///     a job to the batched lane (factorize_batched's
///     Allreduce-concatenation argument, batched.hpp).
///   * Isolation: a job that fails (NotSpdError in its shifted rerun,
///     NonFiniteError for a NaN or Inf) carries its own error; queued and
///     in-flight neighbors, including batch mates, complete normally.
///   * Shutdown drains: every admitted job reaches a terminal status
///     before the destructor returns; submit() after shutdown throws.

#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "cacqr/rt/comm.hpp"
#include "cacqr/serve/job.hpp"

namespace cacqr::serve {

/// Engine shape + scheduler policy.  queue_depth and batch_window must be
/// at least 1 (the constructor rejects 0).
struct ServiceOptions {
  int ranks = 4;             ///< SPMD width of the engine world
  int threads_per_rank = 0;  ///< per-rank kernel budget (0: divide caller's)
  std::size_t queue_depth = 64;  ///< admission bound (>= 1)
  std::size_t batch_window = 8;  ///< max jobs per dispatch round (>= 1)
  bool batching = true;  ///< false: every round carries exactly one job
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
  JobHandle submit(lin::ConstMatrixView a);

  /// Stops admission, drains every queued job to a terminal status, and
  /// joins the engine.  Idempotent; called by the destructor.
  void shutdown();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return opts_;
  }

 private:
  struct Shared;  // scheduler state shared with the engine ranks

  void engine_main();

  ServiceOptions opts_;
  std::unique_ptr<Shared> shared_;
  std::thread engine_;
};

}  // namespace cacqr::serve
