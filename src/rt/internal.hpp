#pragma once
/// \file internal.hpp
/// \brief Shared internals of the rt module (world state, the transport
///        seam, and the point-to-point primitives the collectives run on).

#include <deque>
#include <memory>
#include <vector>

#include "cacqr/rt/comm.hpp"

namespace cacqr::rt::detail {

/// One in-flight message.  `arrival` is the sender's modeled clock after
/// charging alpha + n*beta: the earliest time the receiver can have it
/// (real backends carry the stamp on the wire, so the modeled clock stays
/// backend-independent).
struct Message {
  u64 ctx = 0;
  int src_world = -1;
  int tag = 0;
  double arrival = 0.0;
  std::vector<double> payload;
};

/// A rank's pending-message queue: messages that crossed the transport
/// but have not been matched by a Recv yet.  Only the owning rank touches
/// it (the modeled backend wraps it in a lock; process backends need
/// none).
struct PendingQueue {
  std::deque<Message> queue;
  u64 arrivals = 0;  ///< messages ever enqueued; wait loops sleep on changes

  /// Pops the first entry matching (ctx, src_world, tag): FIFO per
  /// channel.
  bool match(u64 ctx, int src_world, int tag, Message& out) {
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (it->ctx == ctx && it->src_world == src_world && it->tag == tag) {
        out = std::move(*it);
        queue.erase(it);
        return true;
      }
    }
    return false;
  }
};

struct Transport;

/// Per-rank mutable state, touched only by the owning rank thread.
struct RankState {
  CostCounters tally;
  /// Result blob accumulated by Comm::publish (returned to the launcher's
  /// caller by Runtime::run_collect, crossing the process boundary under
  /// multi-process backends).
  std::vector<double> published;
};

/// Whole-run shared state.  Under the modeled backend one World is shared
/// by all rank threads; under process backends each rank process holds
/// its own copy and only ranks[world_rank] is populated.
struct World {
  World();
  ~World();
  int nranks = 0;
  Machine machine;
  std::unique_ptr<Transport> transport;
  std::vector<RankState> ranks;

  /// Sticky run-wide abort: wakes every blocked receiver so it can
  /// unwind with AbortError.
  void abort_all() noexcept;
};

/// Per-rank view of one communicator.  Copies of a Comm share this state,
/// so the collective-operation sequence number stays consistent.
struct CommState {
  World* world = nullptr;
  u64 ctx = 0;            ///< communicator identity, equal on all members
  std::vector<int> members;  ///< world ranks, ordered by comm rank
  int myrank = -1;           ///< my rank within `members`
  u64 op_seq = 0;  ///< per-comm collective sequence (tag disambiguation)
  u64 split_seq = 0;  ///< per-comm split counter (child identity derivation)
};

/// 64-bit mix for communicator identity derivation.
[[nodiscard]] u64 mix64(u64 x) noexcept;

/// Test-harness hook installed via rt::set_child_failure_probe; process
/// backends sample it around the rank body so in-child assertion failures
/// propagate to the parent.  Null when unset.
using FailureProbe = int (*)();
[[nodiscard]] FailureProbe child_failure_probe() noexcept;

/// World rank of the caller of a CommState.
[[nodiscard]] inline int world_rank_of(const CommState& s) noexcept {
  return s.members[static_cast<std::size_t>(s.myrank)];
}

// ------------------------------------------------------- p2p primitives
// (comm.cpp)  Comm::send/recv and every collective step run on these.
// Both drain pending kernel flops first; a send charges 1 msg, n words
// and alpha + n*beta when it executes, a receive jumps the clock to the
// arrival stamp when it matches.

/// Eager buffered send: never blocks.
void send_now(CommState& s, int dest, int tag, std::span<const double> data);

/// Blocking receive of the first message matching (ctx, src, tag).  Loops
/// {snapshot transport arrivals; check abort; try to match; park on the
/// transport until a new arrival}; throws AbortError once the run aborts.
void recv_blocking(CommState& s, int src, int tag, std::span<double> data);

}  // namespace cacqr::rt::detail
