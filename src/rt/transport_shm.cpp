/// \file transport_shm.cpp
/// \brief The shared-memory multi-process backend: ranks are fork()ed
///        children of the launching process, delivery is a lock-free
///        SPSC byte ring in anonymous shared memory per (src, dst) pair,
///        and completion is real -- a Recv finishes when the bytes have
///        actually crossed the ring.
///
/// Region layout (one MAP_SHARED | MAP_ANONYMOUS mapping created before
/// fork, so every rank inherits the same physical pages):
///
///   [ Header            ]  sticky abort flag
///   [ ChildSlot x P     ]  per-rank exit state, marshalled error, tally
///   [ published x P     ]  per-rank Comm::publish blobs (doubles)
///   [ Ring x P*P        ]  SPSC byte stream from src to dst
///
/// Each ring has exactly one producer (the src process) and one consumer
/// (the dst process), so two release/acquire cursors suffice -- no locks,
/// and no futexes shared across processes.  Messages are framed
/// (FrameHeader + payload doubles) and may span ring wraps or even be
/// larger than the ring: the consumer reassembles partial frames in
/// private memory, and a producer blocked on a full ring drains its OWN
/// incoming rings meanwhile (two mutually-blocked senders always
/// unblock, preserving the eager-send/never-deadlock contract of the
/// modeled backend) and aborts out if the run dies.
///
/// Error discipline: a child that fails marshals {type, what, pivot}
/// into its ChildSlot, raises the run-wide abort flag, and exits 0 --
/// exit codes only signal catastrophic death (signal, _exit by a
/// library).  The parent reaps children in completion order; on an
/// abnormal death it raises the abort flag itself so survivors unwind
/// with AbortError promptly instead of hanging on messages that will
/// never arrive.  Capacities are fixed: 256 KB per ring and 2 MB per
/// rank's publish slot, paged in only once used.

#if !defined(_WIN32)

#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "cacqr/lin/parallel.hpp"
#include "cacqr/obs/trace.hpp"
#include "transport.hpp"

namespace cacqr::rt::detail {

namespace {

// ----------------------------------------------------------- capacities

/// Per-pair ring capacity in bytes (a power of two, for cursor masking).
constexpr std::size_t kRingBytes = std::size_t{256} * 1024;
static_assert((kRingBytes & (kRingBytes - 1)) == 0);

/// Per-rank publish capacity in doubles (2 MB).
constexpr std::size_t kResultWords = std::size_t{2048} * 1024 / sizeof(double);

constexpr std::size_t align_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}

// --------------------------------------------------------- shared state

struct alignas(64) Header {
  std::atomic<std::uint32_t> abort_flag;
};

/// What a failed child marshals for the parent to rethrow.
enum class ErrKind : std::int32_t {
  none = 0,
  comm,
  dimension,
  not_spd,
  generic,   // cacqr::Error
  standard,  // std::exception outside the hierarchy
  unknown,   // catch (...)
  test_failure,
};

enum : std::uint32_t {
  kStateRunning = 0,  // still set at reap time => died without unwinding
  kStateOk = 1,
  kStateFailed = 2,
  kStateAborted = 3,  // unwound on another rank's abort: not an error
};

struct alignas(64) ChildSlot {
  std::atomic<std::uint32_t> state;
  ErrKind err_kind;
  std::uint64_t err_pivot;
  std::uint64_t published_len;  // doubles actually published
  CostCounters tally;
  char what[4096];
};

/// SPSC cursor pair; the byte buffer follows it in the region.  `tail` is
/// bytes ever produced (src process writes, release), `head` bytes ever
/// consumed (dst process writes, release); both index the buffer modulo
/// its power-of-two capacity.
struct alignas(64) RingCtl {
  std::atomic<std::uint64_t> head;
  char pad_[64 - sizeof(std::atomic<std::uint64_t>)];
  std::atomic<std::uint64_t> tail;
};

/// On-wire frame header; payload doubles follow immediately.
struct FrameHeader {
  u64 ctx;
  std::int64_t src_world;
  std::int64_t tag;
  double arrival;
  std::uint64_t words;
};
static_assert(std::is_trivially_copyable_v<FrameHeader>);
static_assert(std::is_trivially_copyable_v<CostCounters>);

/// The pre-fork mapping and its layout.  Constructed by the parent;
/// children inherit both the mapping and this object's plain members.
class Region {
 public:
  explicit Region(int nranks) : nranks_(nranks) {
    slots_off_ = align_up(sizeof(Header), 64);
    results_off_ =
        align_up(slots_off_ + sizeof(ChildSlot) * static_cast<std::size_t>(
                                                      nranks), 64);
    rings_off_ = align_up(
        results_off_ +
            sizeof(double) * kResultWords * static_cast<std::size_t>(nranks),
        64);
    ring_stride_ = align_up(sizeof(RingCtl) + kRingBytes, 64);
    bytes_ = rings_off_ + ring_stride_ * static_cast<std::size_t>(nranks) *
                              static_cast<std::size_t>(nranks);
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    ensure<CommError>(p != MAP_FAILED,
                      "shm transport: mmap of ", bytes_, " bytes failed");
    // The kernel zero-fills the mapping page by page on first touch, so
    // only the control blocks below fault pages in at launch.
    base_ = static_cast<unsigned char*>(p);
    new (base_) Header{};
    for (int r = 0; r < nranks; ++r) new (&slot(r)) ChildSlot{};
    for (int s = 0; s < nranks; ++s) {
      for (int d = 0; d < nranks; ++d) new (&ring(s, d)) RingCtl{};
    }
  }

  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;
  ~Region() {
    if (base_ != nullptr) ::munmap(base_, bytes_);
  }

  [[nodiscard]] int nranks() const noexcept { return nranks_; }

  [[nodiscard]] Header& header() const noexcept {
    return *reinterpret_cast<Header*>(base_);
  }
  [[nodiscard]] ChildSlot& slot(int r) const noexcept {
    return *reinterpret_cast<ChildSlot*>(
        base_ + slots_off_ + sizeof(ChildSlot) * static_cast<std::size_t>(r));
  }
  [[nodiscard]] double* results(int r) const noexcept {
    return reinterpret_cast<double*>(base_ + results_off_) +
           kResultWords * static_cast<std::size_t>(r);
  }
  [[nodiscard]] RingCtl& ring(int src, int dst) const noexcept {
    return *reinterpret_cast<RingCtl*>(base_ + ring_off(src, dst));
  }
  [[nodiscard]] unsigned char* ring_data(int src, int dst) const noexcept {
    return base_ + ring_off(src, dst) + sizeof(RingCtl);
  }

  void set_abort() const noexcept {
    header().abort_flag.store(1, std::memory_order_release);
  }
  [[nodiscard]] bool aborted() const noexcept {
    return header().abort_flag.load(std::memory_order_acquire) != 0;
  }

 private:
  [[nodiscard]] std::size_t ring_off(int src, int dst) const noexcept {
    const auto idx = static_cast<std::size_t>(src) *
                         static_cast<std::size_t>(nranks_) +
                     static_cast<std::size_t>(dst);
    return rings_off_ + ring_stride_ * idx;
  }

  int nranks_;
  std::size_t slots_off_ = 0;
  std::size_t results_off_ = 0;
  std::size_t rings_off_ = 0;
  std::size_t ring_stride_ = 0;
  std::size_t bytes_ = 0;
  unsigned char* base_ = nullptr;
};

/// Brief polite pause between poll rounds: spin a little for latency,
/// then sleep so P > core-count runs (and survivors of a dead peer)
/// don't burn CPU.
struct Backoff {
  int rounds = 0;
  void pause() {
    if (++rounds < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  void reset() noexcept { rounds = 0; }
};

// ------------------------------------------------------------ transport

/// One rank process's view of the shared region.  Only `me_`'s incoming
/// rings and pending queue are ever touched locally; everything crossing
/// ranks goes through the SPSC cursors.
class ShmTransport final : public Transport {
 public:
  ShmTransport(const Region& region, int me)
      : region_(region), me_(me),
        partial_(static_cast<std::size_t>(region.nranks())) {}

  [[nodiscard]] const char* name() const noexcept override { return "shm"; }

  void post(int src_world, int dst_world, Message&& msg) override {
    if (dst_world == me_) {
      // Self-send: deliver straight into the local pending queue (the
      // modeled backend's mailbox push, minus the lock).
      pending_.queue.push_back(std::move(msg));
      ++pending_.arrivals;
      return;
    }
    // Serialize the frame, then stream it through the ring in as many
    // pieces as backpressure dictates.
    const std::size_t payload_bytes = msg.payload.size() * sizeof(double);
    frame_.resize(sizeof(FrameHeader) + payload_bytes);
    FrameHeader hdr{};
    hdr.ctx = msg.ctx;
    hdr.src_world = msg.src_world;
    hdr.tag = msg.tag;
    hdr.arrival = msg.arrival;
    hdr.words = msg.payload.size();
    std::memcpy(frame_.data(), &hdr, sizeof hdr);
    if (payload_bytes != 0) {
      std::memcpy(frame_.data() + sizeof hdr, msg.payload.data(),
                  payload_bytes);
    }

    RingCtl& ctl = region_.ring(src_world, dst_world);
    unsigned char* data = region_.ring_data(src_world, dst_world);
    std::size_t sent = 0;
    Backoff backoff;
    while (sent < frame_.size()) {
      const std::uint64_t tail = ctl.tail.load(std::memory_order_relaxed);
      const std::uint64_t head = ctl.head.load(std::memory_order_acquire);
      const std::size_t free_bytes =
          kRingBytes - static_cast<std::size_t>(tail - head);
      if (free_bytes == 0) {
        if (region_.aborted()) {
          throw AbortError("send: run aborted by another rank");
        }
        // The receiver may itself be blocked sending to us: drain our
        // own incoming traffic so the pair always makes progress.
        drain_incoming();
        backoff.pause();
        continue;
      }
      backoff.reset();
      const std::size_t n = std::min(free_bytes, frame_.size() - sent);
      const std::size_t idx =
          static_cast<std::size_t>(tail) & (kRingBytes - 1);
      const std::size_t first = std::min(n, kRingBytes - idx);
      std::memcpy(data + idx, frame_.data() + sent, first);
      std::memcpy(data, frame_.data() + sent + first, n - first);
      ctl.tail.store(tail + n, std::memory_order_release);
      sent += n;
    }
  }

  bool match(int me_world, u64 ctx, int src_world, int tag,
             Message& out) override {
    (void)me_world;
    drain_incoming();
    return pending_.match(ctx, src_world, tag, out);
  }

  u64 arrivals(int me_world) override {
    (void)me_world;
    drain_incoming();
    return pending_.arrivals;
  }

  void wait_arrivals(int me_world, u64 seen) override {
    (void)me_world;
    Backoff backoff;
    for (;;) {
      drain_incoming();
      if (pending_.arrivals != seen || region_.aborted()) return;
      backoff.pause();
    }
  }

  void abort() noexcept override { region_.set_abort(); }
  [[nodiscard]] bool aborted() const noexcept override {
    return region_.aborted();
  }

 private:
  /// Moves every byte available on my incoming rings into the per-source
  /// reassembly buffers, then promotes complete frames to the pending
  /// queue.  Never blocks.
  void drain_incoming() {
    for (int src = 0; src < region_.nranks(); ++src) {
      if (src == me_) continue;
      RingCtl& ctl = region_.ring(src, me_);
      const std::uint64_t head = ctl.head.load(std::memory_order_relaxed);
      const std::uint64_t tail = ctl.tail.load(std::memory_order_acquire);
      const auto avail = static_cast<std::size_t>(tail - head);
      if (avail != 0) {
        const unsigned char* data = region_.ring_data(src, me_);
        auto& buf = partial_[static_cast<std::size_t>(src)];
        const std::size_t old = buf.size();
        buf.resize(old + avail);
        const std::size_t idx =
            static_cast<std::size_t>(head) & (kRingBytes - 1);
        const std::size_t first = std::min(avail, kRingBytes - idx);
        std::memcpy(buf.data() + old, data + idx, first);
        std::memcpy(buf.data() + old + first, data, avail - first);
        ctl.head.store(head + avail, std::memory_order_release);
      }
      extract_frames(src);
    }
  }

  /// Promotes every complete frame in src's reassembly buffer.
  void extract_frames(int src) {
    auto& buf = partial_[static_cast<std::size_t>(src)];
    std::size_t consumed = 0;
    while (buf.size() - consumed >= sizeof(FrameHeader)) {
      FrameHeader hdr;
      std::memcpy(&hdr, buf.data() + consumed, sizeof hdr);
      const std::size_t need =
          sizeof(FrameHeader) + static_cast<std::size_t>(hdr.words) *
                                    sizeof(double);
      if (buf.size() - consumed < need) break;
      Message msg;
      msg.ctx = hdr.ctx;
      msg.src_world = static_cast<int>(hdr.src_world);
      msg.tag = static_cast<int>(hdr.tag);
      msg.arrival = hdr.arrival;
      msg.payload.resize(static_cast<std::size_t>(hdr.words));
      if (hdr.words != 0) {
        std::memcpy(msg.payload.data(),
                    buf.data() + consumed + sizeof(FrameHeader),
                    static_cast<std::size_t>(hdr.words) * sizeof(double));
      }
      pending_.queue.push_back(std::move(msg));
      ++pending_.arrivals;
      consumed += need;
    }
    if (consumed != 0) {
      buf.erase(buf.begin(),
                buf.begin() + static_cast<std::ptrdiff_t>(consumed));
    }
  }

  const Region& region_;
  int me_;
  PendingQueue pending_;
  std::vector<std::vector<unsigned char>> partial_;  // per-src reassembly
  std::vector<unsigned char> frame_;                 // send scratch
};

// ------------------------------------------------------------- children

void marshal_error(ChildSlot& slot, ErrKind kind, const char* what,
                   std::uint64_t pivot) noexcept {
  slot.err_kind = kind;
  slot.err_pivot = pivot;
  std::snprintf(slot.what, sizeof slot.what, "%s", what);
}

/// Runs rank `r`'s body in the forked child and never returns.  Exit code
/// 0 always; outcome travels through the ChildSlot.
[[noreturn]] void child_main(const Region& region, int rank, Machine machine,
                             int rank_budget,
                             const std::function<void(Comm&)>& body) {
  // The pool workers (and every other thread) died with fork(); drop the
  // inherited handle before the body opens a parallel region.
  lin::parallel::reinit_after_fork();
  // Inherited trace rings hold the parent's events; wipe them or this
  // child's trace file would duplicate everything recorded before fork.
  obs::detail::reset_after_fork();

  ChildSlot& slot = region.slot(rank);
  const FailureProbe probe = child_failure_probe();
  const int failures_before = probe != nullptr ? probe() : 0;

  World world;
  world.nranks = region.nranks();
  world.machine = machine;
  world.ranks.resize(static_cast<std::size_t>(region.nranks()));
  world.transport = std::make_unique<ShmTransport>(region, rank);

  std::uint32_t state = kStateOk;
  try {
    rank_main(world, rank, rank_budget, body);
  } catch (const AbortError&) {
    state = kStateAborted;  // secondary: another rank already failed
  } catch (const NotSpdError& e) {
    marshal_error(slot, ErrKind::not_spd, e.what(), e.pivot);
    state = kStateFailed;
  } catch (const CommError& e) {
    marshal_error(slot, ErrKind::comm, e.what(), 0);
    state = kStateFailed;
  } catch (const DimensionError& e) {
    marshal_error(slot, ErrKind::dimension, e.what(), 0);
    state = kStateFailed;
  } catch (const Error& e) {
    marshal_error(slot, ErrKind::generic, e.what(), 0);
    state = kStateFailed;
  } catch (const std::exception& e) {
    marshal_error(slot, ErrKind::standard, e.what(), 0);
    state = kStateFailed;
  } catch (...) {
    marshal_error(slot, ErrKind::unknown, "unknown exception in rank body", 0);
    state = kStateFailed;
  }
  if (state == kStateFailed) region.set_abort();

  if (state == kStateOk && probe != nullptr) {
    const int grew = probe() - failures_before;
    if (grew > 0) {
      // Test-harness EXPECT/ASSERT failures happened in this child's
      // copy of the framework; the parent can't see them, so report a
      // failure (the child's own output already carries the details).
      // Deliberately no abort: siblings finished normally.
      const std::string msg = cacqr::detail::concat(
          grew, " test assertion failure(s) in rank ", rank,
          " child process (see child output above)");
      marshal_error(slot, ErrKind::test_failure, msg.c_str(), 0);
      state = kStateFailed;
    }
  }

  // Export results even on failure -- tallies are useful diagnostics.
  RankState& mine = world.ranks[static_cast<std::size_t>(rank)];
  slot.tally = mine.tally;
  if (mine.published.size() > kResultWords) {
    if (state == kStateOk) {
      const std::string msg = cacqr::detail::concat(
          "Comm::publish: rank ", rank, " published ", mine.published.size(),
          " doubles, over the shm result capacity of ", kResultWords);
      marshal_error(slot, ErrKind::comm, msg.c_str(), 0);
      state = kStateFailed;
      region.set_abort();
    }
    slot.published_len = 0;
  } else {
    if (!mine.published.empty()) {
      std::memcpy(region.results(rank), mine.published.data(),
                  mine.published.size() * sizeof(double));
    }
    slot.published_len = mine.published.size();
  }
  slot.state.store(state, std::memory_order_release);

  // _Exit below skips atexit, so the child must flush its own per-pid
  // trace file here; the parent merges it in by pid at its own exit.
  if (obs::trace_on()) obs::write_process_trace();

  std::fflush(stdout);
  std::fflush(stderr);
  // _Exit: no atexit/static destructors -- they belong to the parent's
  // lifetime (gtest teardown, cache writers); running them P extra times
  // from children would corrupt shared files and double-report.
  std::_Exit(0);
}

[[noreturn]] void rethrow_child_error(int rank, const ChildSlot& slot) {
  const std::string what(slot.what);
  switch (slot.err_kind) {
    case ErrKind::not_spd:
      throw NotSpdError(what, static_cast<std::size_t>(slot.err_pivot));
    case ErrKind::dimension:
      throw DimensionError(what);
    case ErrKind::comm:
    case ErrKind::test_failure:
      throw CommError(what);
    case ErrKind::generic:
      throw Error(what);
    case ErrKind::standard:
    case ErrKind::unknown:
    case ErrKind::none:
      break;
  }
  throw CommError(cacqr::detail::concat("rank ", rank, " failed: ", what));
}

}  // namespace

RunOutput run_shm(int nranks, const std::function<void(Comm&)>& body,
                  Machine machine, int threads_per_rank) {
  Region region(nranks);

  // Unflushed stdio would be duplicated into every child image.
  std::fflush(stdout);
  std::fflush(stderr);

  std::vector<pid_t> pids(static_cast<std::size_t>(nranks), -1);
  for (int r = 0; r < nranks; ++r) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      child_main(region, r, machine, threads_per_rank, body);  // noreturn
    }
    if (pid < 0) {
      // Could not launch the full team: abort the ranks already running
      // and reap them before reporting.
      region.set_abort();
      for (int k = 0; k < r; ++k) {
        int status = 0;
        (void)::waitpid(pids[static_cast<std::size_t>(k)], &status, 0);
      }
      throw CommError(cacqr::detail::concat("shm transport: fork failed at rank ", r));
    }
    pids[static_cast<std::size_t>(r)] = pid;
    // Fold this child's trace file into the parent's merged trace.json
    // at exit (children cannot: they _Exit without atexit).
    if (obs::trace_on()) obs::detail::note_forked_child(static_cast<int>(pid));
  }

  // Reap in completion order: a rank dying abnormally must raise the
  // abort flag NOW, or survivors blocked on its messages never exit and
  // this loop never finishes.
  int dead_rank = -1;
  std::string dead_desc;
  for (int reaped = 0; reaped < nranks; ++reaped) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    if (pid < 0) break;  // EINTR storm / no children: slots decide below
    int rank = -1;
    for (int r = 0; r < nranks; ++r) {
      if (pids[static_cast<std::size_t>(r)] == pid) rank = r;
    }
    if (rank < 0) {
      --reaped;  // unrelated child of the embedding process
      continue;
    }
    const std::uint32_t state =
        region.slot(rank).state.load(std::memory_order_acquire);
    const bool abnormal = WIFSIGNALED(status) ||
                          (WIFEXITED(status) && WEXITSTATUS(status) != 0) ||
                          state == kStateRunning;
    if (abnormal && dead_rank < 0) {
      dead_rank = rank;
      dead_desc = WIFSIGNALED(status)
                      ? cacqr::detail::concat("killed by signal ", WTERMSIG(status))
                      : cacqr::detail::concat("exited with status ",
                                       WIFEXITED(status) ? WEXITSTATUS(status)
                                                         : -1,
                                       " without reporting a result");
      region.set_abort();
    }
  }

  if (dead_rank >= 0) {
    throw AbortError(cacqr::detail::concat("Runtime::run(shm): rank ", dead_rank,
                                    " ", dead_desc, "; run aborted"));
  }
  for (int r = 0; r < nranks; ++r) {
    if (region.slot(r).state.load(std::memory_order_acquire) == kStateFailed) {
      rethrow_child_error(r, region.slot(r));
    }
  }
  if (region.aborted()) {
    // Abort raised but nobody marshalled an error (e.g. a body threw
    // AbortError directly on every rank).
    throw AbortError("Runtime::run(shm): run aborted");
  }

  RunOutput out;
  out.counters.reserve(static_cast<std::size_t>(nranks));
  out.published.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    const ChildSlot& slot = region.slot(r);
    out.counters.push_back(slot.tally);
    const double* pub = region.results(r);
    out.published.emplace_back(pub, pub + slot.published_len);
  }
  return out;
}

}  // namespace cacqr::rt::detail

#else  // _WIN32

#include "transport.hpp"

namespace cacqr::rt::detail {

RunOutput run_shm(int, const std::function<void(Comm&)>&, Machine, int) {
  throw CommError("shm transport: not supported on this platform (no fork)");
}

}  // namespace cacqr::rt::detail

#endif
