#pragma once
/// \file comm.hpp
/// \brief SPMD message-passing runtime over pluggable transports.
///
/// Runtime::run(P, body) executes `body` on P ranks over a selectable
/// point-to-point backend (CACQR_TRANSPORT): rank threads with modeled
/// in-process delivery (the default), fork()ed processes over
/// shared-memory ring buffers, or MPI processes when the build found MPI
/// (DESIGN.md section 10).  Ranks interact only through explicit
/// point-to-point messages and the collectives below, which are
/// implemented as genuine butterfly / binomial schedules over
/// point-to-point sends -- so the per-rank message and word counters
/// measured on a run match the collective cost formulas the paper's
/// analysis charges (Section II-B), identically on every backend:
///
///   Bcast     = binomial scatter + Bruck allgather : 2 ceil(lg P) alpha + 2n beta
///   Allreduce = recursive-halving reduce-scatter +
///               Bruck allgather (Rabenseifner)     : 2 ceil(lg P) alpha + 2n beta
///   Reduce    = Allreduce, root keeps the result   : same cost (as charged
///                                                    by the paper's table)
///   Allgather = Bruck                              : ceil(lg P) alpha + n beta
///   Gather    = binomial tree                      : ceil(lg P) alpha + n beta
///               into the root, which sends nothing; the rank at distance
///               v = rank - root (mod P) sends one message, its subtree's
///               min(lowbit(v), P - v) n / P words
///   Transpose = pairwise exchange                  : alpha + n beta
///
/// Every rank also carries a cost tally (alpha messages, beta words, gamma
/// flops) and a LogP-style modeled clock: sends advance the sender's clock
/// by alpha + n*beta and stamp the message; receives advance the receiver's
/// clock to at least the stamp.  Sequential kernel flops recorded by
/// cacqr::lin are drained into the clock at every communication call, so
/// max-over-ranks of the final clock is the modeled parallel execution time
/// for the configured machine parameters.
///
/// Every collective is blocking: one straight-line sequence of eager
/// sends, blocking receives and local copies/accumulates, complete when
/// the call returns (DESIGN.md section 5).

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cacqr/support/error.hpp"
#include "cacqr/support/math.hpp"

namespace cacqr::rt {

/// Alpha-beta-gamma machine parameters for the modeled clock.
/// Units: seconds per message / per 8-byte word / per flop.
struct Machine {
  double alpha = 0.0;
  double beta = 0.0;
  double gamma = 0.0;

  /// All-zero machine: runs count alpha/beta/gamma without modeling time.
  [[nodiscard]] static Machine counting() noexcept { return {}; }
};

/// Per-rank cost tally.  msgs/words/flops are raw counts (machine
/// independent); time is the modeled clock under the run's Machine.
struct CostCounters {
  i64 msgs = 0;   ///< messages sent by this rank (alpha count)
  i64 words = 0;  ///< 8-byte words sent by this rank (beta count)
  i64 flops = 0;  ///< floating-point operations executed (gamma count)
  double time = 0.0;  ///< modeled clock, seconds

  CostCounters& operator+=(const CostCounters& o) noexcept {
    msgs += o.msgs;
    words += o.words;
    flops += o.flops;
    time += o.time;
    return *this;
  }
  friend CostCounters operator-(CostCounters a,
                                const CostCounters& b) noexcept {
    a.msgs -= b.msgs;
    a.words -= b.words;
    a.flops -= b.flops;
    a.time -= b.time;
    return a;
  }
};

class Comm;

namespace detail {
struct World;
struct CommState;
/// Per-rank body wrapper shared by every transport launcher; needs to
/// mint the rank's world Comm (transport.hpp).
void rank_main(World& world, int rank, int rank_budget,
               const std::function<void(Comm&)>& body);
}  // namespace detail

/// Which point-to-point backend carries a run's messages (DESIGN.md
/// section 10).  The collective schedules, counters, and modeled clock
/// are backend-independent; only delivery differs.
enum class TransportKind {
  modeled,  ///< ranks are threads, delivery is in-process mailboxes with a
            ///< LogP-modeled clock -- the default, bit-identical to the
            ///< historical runtime, and what tests run by default
  shm,      ///< ranks are fork()ed processes, delivery is shared-memory
            ///< ring buffers per rank pair: real wall-clock completion
  mpi,      ///< ranks are MPI processes (mpirun launches them); compiled
            ///< only when the build found MPI
};

/// Backend name ("modeled" / "shm" / "mpi").
[[nodiscard]] const char* transport_name(TransportKind kind) noexcept;

/// Whether this build/platform can actually run `kind`: modeled always;
/// shm on POSIX; mpi only when compiled against MPI.
[[nodiscard]] bool transport_available(TransportKind kind) noexcept;

/// The process-wide default backend Runtime::run uses when the caller
/// does not pass one: parsed once from the CACQR_TRANSPORT environment
/// variable ("modeled" | "shm" | "mpi"; unset or empty means modeled, a
/// malformed value fails loudly with the valid list).
[[nodiscard]] TransportKind default_transport();

/// Per-rank outputs of one run (Runtime::run_collect): final cost
/// tallies plus whatever each rank published via Comm::publish.  Under
/// multi-process backends the published blobs are the ONLY way local
/// results reach the caller -- writes to captured variables inside the
/// body happen in a child process and are lost.
struct RunOutput {
  std::vector<CostCounters> counters;
  std::vector<std::vector<double>> published;
};

/// Hook consulted by process backends after a forked rank's body
/// returns: a count of test-harness assertion failures so far in this
/// process (the tests' custom gtest main installs one).  When the count
/// grew across the body, the rank is reported failed to the parent --
/// EXPECT failures inside a forked rank would otherwise pass silently.
/// nullptr (the default) disables the probe.
void set_child_failure_probe(int (*probe)()) noexcept;

/// Communicator handle (cheap to copy; copies share identity).  Every
/// method below that is documented "collective" must be called by all
/// members of the communicator, in the same order -- the usual MPI
/// discipline.
class Comm {
 public:
  /// Default state: detached from any run.  Only assignment is valid;
  /// every operation below requires a communicator obtained from
  /// Runtime::run or split().
  Comm() = default;

  /// Rank of the caller within this communicator.
  [[nodiscard]] int rank() const noexcept;
  /// Number of ranks in this communicator.
  [[nodiscard]] int size() const noexcept;
  /// Rank of the caller in the world communicator.
  [[nodiscard]] int world_rank() const noexcept;

  // ------------------------------------------------------------- p2p
  /// Buffered (eager) send: never blocks.
  void send(int dest, int tag, std::span<const double> data) const;
  /// Blocking receive; data.size() must equal the matching message size.
  void recv(int src, int tag, std::span<double> data) const;
  /// Pairwise exchange with `partner` (no-op when partner == rank()):
  /// the Transpose primitive of the paper, alpha + n*beta.
  void sendrecv_swap(int partner, int tag, std::span<double> data) const;

  // ------------------------------------------------------ collectives
  /// Collective: splits into sub-communicators by color; ranks ordered by
  /// (key, parent rank).  Every member must call.
  [[nodiscard]] Comm split(int color, int key) const;

  /// Collective: dissemination barrier.
  void barrier() const;
  /// Collective: root's data replicated to all (scatter + allgather).
  void bcast(std::span<double> data, int root) const;
  /// Collective: elementwise sum of `data` across ranks; result everywhere.
  void allreduce_sum(std::span<double> data) const;
  /// Collective: elementwise sum; result only meaningful on root (costed
  /// identically to allreduce, as in the paper's tables).
  void reduce_sum(std::span<double> data, int root) const;
  /// Collective: elementwise fp32 sum.  `words` is an fp32 payload viewed
  /// as whole 8-byte words, two floats per word (lin::MatrixF::wire();
  /// odd tails ride a zero pad lane).  Same Rabenseifner schedule as
  /// allreduce_sum with the combine applied float-wise, so the message
  /// count and the word (beta) charges are those of an fp64 allreduce of
  /// HALF the element count -- the halved-beta Gram term the planner
  /// scores.  Bcast/allgather/send need no fp32 flavor: they move bytes,
  /// so an fp32 payload just uses the word-level calls directly.
  void allreduce_sum_f32(std::span<double> words) const;
  /// Collective: fp32 sum costed as allreduce_sum_f32 (reduce == allreduce
  /// in the paper's tables), result meaningful everywhere.
  void reduce_sum_f32(std::span<double> words, int root) const;
  /// Collective: concatenation of equal-size contributions, rank order.
  /// `mine` may already sit at its slot of `all` (in place).
  void allgather(std::span<const double> mine, std::span<double> all) const;
  /// Collective: the same concatenation on `root` alone.  `all` holds
  /// size() * mine.size() words on the root, which receives straight into
  /// it, and is ignored elsewhere (pass an empty span); the root's `mine`
  /// may already sit at its slot of `all` (in place).
  void gather(std::span<const double> mine, std::span<double> all,
              int root) const;

  // ------------------------------------------------------- accounting
  /// Appends `data` to this rank's published result blob, returned to the
  /// launching caller by Runtime::run_collect.  This is the
  /// transport-agnostic way to get per-rank results out of a run: under
  /// process backends the body executes in a forked child, so writes to
  /// captured variables never reach the caller.
  void publish(std::span<const double> data) const;

  /// This rank's world-wide running tally (shared across all comms of the
  /// run).  Drains pending kernel flops first so the snapshot is current.
  [[nodiscard]] CostCounters counters() const;
  /// Drains the thread-local lin flop counter into the tally and clock.
  void charge_local_flops() const;
  /// Machine parameters of the enclosing run.
  [[nodiscard]] const Machine& machine() const noexcept;

 private:
  friend class Runtime;
  friend void detail::rank_main(detail::World&, int, int,
                                const std::function<void(Comm&)>&);
  explicit Comm(std::shared_ptr<detail::CommState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::CommState> state_;
};

/// SPMD launcher.
class Runtime {
 public:
  /// Runs `body` on `nranks` ranks over the selected transport backend
  /// and returns the per-rank final cost tallies (modeled clock
  /// included).  Exceptions thrown by any rank abort the whole team and
  /// are rethrown here (first thrower wins; under process backends the
  /// error's type and message are marshalled back to the caller).
  ///
  /// `threads_per_rank` is each rank's kernel worker budget
  /// (lin/parallel.hpp): every rank gets
  /// `set_thread_budget(threads_per_rank)` before `body` runs, so P ranks
  /// use at most P * threads_per_rank threads total.  0 (the default)
  /// divides the *caller's* budget evenly: max(1, thread_budget() /
  /// nranks) -- with the default CACQR_THREADS=1 every rank stays
  /// single-threaded, exactly the pre-threading behavior.  Threading never
  /// changes the per-rank flop/msg/word tallies or the modeled clock; it
  /// only changes wall-clock speed (DESIGN.md section 3).
  ///
  /// `transport` picks the backend for this run; `transport_env` (the
  /// default) defers to CACQR_TRANSPORT.  Under
  /// `modeled` ranks are threads of this process; under `shm` each rank
  /// is a fork()ed child and under `mpi` this process must be one of
  /// exactly `nranks` ranks launched by mpirun.  Requesting a backend
  /// this build/platform cannot run fails loudly (CommError).
  static std::vector<CostCounters> run(
      int nranks, const std::function<void(Comm&)>& body,
      Machine machine = Machine::counting(), int threads_per_rank = 0,
      std::optional<TransportKind> transport = std::nullopt);

  /// As run(), additionally returning each rank's Comm::publish blob --
  /// the transport-agnostic result channel.
  static RunOutput run_collect(
      int nranks, const std::function<void(Comm&)>& body,
      Machine machine = Machine::counting(), int threads_per_rank = 0,
      std::optional<TransportKind> transport = std::nullopt);
};

/// Convenience: modeled parallel execution time = max of per-rank clocks.
[[nodiscard]] inline double modeled_time(
    const std::vector<CostCounters>& per_rank) noexcept {
  double t = 0.0;
  for (const auto& c : per_rank) t = t > c.time ? t : c.time;
  return t;
}

/// Convenience: critical-path-style maxima of the raw counters.
[[nodiscard]] inline CostCounters max_counters(
    const std::vector<CostCounters>& per_rank) noexcept {
  CostCounters m;
  for (const auto& c : per_rank) {
    m.msgs = std::max(m.msgs, c.msgs);
    m.words = std::max(m.words, c.words);
    m.flops = std::max(m.flops, c.flops);
    m.time = std::max(m.time, c.time);
  }
  return m;
}

}  // namespace cacqr::rt
