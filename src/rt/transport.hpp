#pragma once
/// \file transport.hpp
/// \brief The pluggable point-to-point transport behind the rt runtime.
///
/// Everything above this interface -- the collective schedules, the
/// per-rank cost tallies and the modeled clock -- is transport-agnostic:
/// a collective's sends call post(), its receives call match() and park
/// on wait_arrivals() in the one blocking receive loop.  A backend only
/// decides HOW a stamped Message travels between ranks:
///
///   * modeled  -- ranks are threads of one process; delivery is a locked
///                 in-process mailbox per rank (transport_modeled.cpp).
///                 The historical behavior, bit-identical, and the
///                 default.
///   * shm      -- ranks are fork()ed processes; delivery is a lock-free
///                 SPSC ring buffer in shared memory per (src, dst) pair
///                 (transport_shm.cpp).  Completion is real: a receive
///                 finishes when the bytes actually crossed the ring.
///   * mpi      -- ranks are MPI processes under mpirun; delivery is
///                 MPI_Isend/Iprobe with the (ctx, tag) header riding in
///                 the payload (transport_mpi.cpp, compiled only when
///                 find_package(MPI) succeeds).
///
/// Delivery contract every backend must meet (DESIGN.md section 10):
/// messages between one (src, dst) pair are FIFO per (ctx, tag) channel;
/// match() returns the first pending message for exactly (ctx, src, tag);
/// arrivals() is monotonic per rank and changes whenever a new message
/// becomes matchable; wait_arrivals() returns (possibly spuriously) once
/// arrivals differ from the caller's snapshot or the run aborts; abort()
/// is sticky, visible to every rank, and wakes all parked waiters.
/// Because the sender charges its tally and stamps `arrival` BEFORE
/// posting, the per-rank msgs/words/flops counters and the modeled clock
/// are byte-identical across backends for any deterministic schedule --
/// the cross-backend conformance suite asserts exactly that.

#include <span>

#include "internal.hpp"

namespace cacqr::rt::detail {

/// Abstract point-to-point backend.  All methods are called by rank
/// threads/processes of the run; `me_world` is always the caller's own
/// world rank (a rank only ever matches or waits on its own mailbox).
struct Transport {
  virtual ~Transport() = default;

  /// Backend name for error messages ("modeled", "shm", "mpi").
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Posts a stamped message from `src_world` (the caller) to
  /// `dst_world`.  May block for backpressure (a full ring), but must
  /// keep draining the caller's own incoming traffic meanwhile and must
  /// throw AbortError once the run aborts -- never deadlock.
  virtual void post(int src_world, int dst_world, Message&& msg) = 0;

  /// Pops the first pending message for `me_world` matching exactly
  /// (ctx, src_world, tag); FIFO per channel.  Never blocks.
  virtual bool match(int me_world, u64 ctx, int src_world, int tag,
                     Message& out) = 0;

  /// Monotonic count of messages that have become matchable for
  /// `me_world` (backends that poll drain their wire here).
  virtual u64 arrivals(int me_world) = 0;

  /// Blocks until arrivals(me_world) != seen or the run aborts; may also
  /// return spuriously.  The caller re-checks its predicate in a loop.
  virtual void wait_arrivals(int me_world, u64 seen) = 0;

  /// Sticky run-wide abort flag: set by any rank, visible to all, wakes
  /// every parked wait_arrivals().
  virtual void abort() noexcept = 0;
  [[nodiscard]] virtual bool aborted() const noexcept = 0;
};

// ------------------------------------------------------------ launchers
// One per backend: each runs `body` on nranks ranks over its transport
// and returns the per-rank tallies plus per-rank published result blobs
// (Comm::publish).  Declared here, dispatched by Runtime::run.

RunOutput run_modeled(int nranks, const std::function<void(Comm&)>& body,
                      Machine machine, int threads_per_rank);

RunOutput run_shm(int nranks, const std::function<void(Comm&)>& body,
                  Machine machine, int threads_per_rank);

#ifdef CACQR_HAVE_MPI
RunOutput run_mpi(int nranks, const std::function<void(Comm&)>& body,
                  Machine machine, int threads_per_rank);
#endif

/// Shared per-rank body wrapper used by every launcher: resets the
/// thread-local flop counter, applies the worker budget, builds the
/// world communicator for `rank`, runs the body, and drains trailing
/// kernel flops.  Exceptions propagate to the launcher-specific handler.
void rank_main(World& world, int rank, int rank_budget,
               const std::function<void(Comm&)>& body);

}  // namespace cacqr::rt::detail
