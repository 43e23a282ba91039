/// \file collectives.cpp
/// \brief Butterfly/binomial collective schedules over point-to-point.
///
/// Algorithm choices are driven by the paper's collective cost table
/// (Section II-B): Bcast/Reduce/Allreduce must cost 2 ceil(lg P) alpha +
/// 2n beta and Allgather ceil(lg P) alpha + n beta *as actually measured
/// by the per-rank counters*, because the model-validation benches compare
/// measured counters against those formulas.  Hence:
///   - bcast      = binomial scatter + Bruck allgather (van de Geijn)
///   - allreduce  = recursive-halving reduce-scatter + Bruck allgather
///                  (Rabenseifner), with pre/post folding for non-pow2 P
///   - reduce     = allreduce (the paper charges Reduce == Allreduce)
///   - allgather  = Bruck (works for any P, ragged chunks)
///   - gather     = binomial tree to the root
///   - barrier    = dissemination
///
/// Every collective is built as a step list on a RequestState (the
/// builders below append the caller's exact point-to-point sequence);
/// the blocking methods are wait(start_*(...)), so blocking and
/// nonblocking flavors charge identical per-rank msgs/words/flops and
/// modeled clock, step for step.

#include <algorithm>
#include <functional>
#include <numeric>

#include "cacqr/obs/trace.hpp"
#include "internal.hpp"

namespace cacqr::rt {

namespace {

/// Balanced partition of n words into p chunks (first n%p chunks 1 larger).
std::vector<i64> chunk_offsets(i64 n, int p) {
  std::vector<i64> off(static_cast<std::size_t>(p) + 1, 0);
  const i64 base = n / p;
  const i64 rem = n % p;
  for (int i = 0; i < p; ++i) {
    off[static_cast<std::size_t>(i) + 1] =
        off[static_cast<std::size_t>(i)] + base + (i < rem ? 1 : 0);
  }
  return off;
}

i64 chunk_size(const std::vector<i64>& off, int i) {
  return off[static_cast<std::size_t>(i) + 1] - off[static_cast<std::size_t>(i)];
}

}  // namespace

namespace detail {

/// Reserves a fresh internal tag for one collective invocation.  Distinct
/// invocations on the same communicator get distinct tags; within one
/// invocation, FIFO ordering per (src, tag) channel keeps stages paired.
int next_internal_tag(CommState& s) {
  return -1 - static_cast<int>(s.op_seq++ & 0x3fffffffULL);
}

namespace {

/// Appends the Bruck allgather schedule over `nparts` participants that
/// are a subset of the communicator.  Participant i is comm rank
/// part_rank(i); the caller is participant `my_part`.  When the first
/// scheduled step runs, data[off[my_part]..off[my_part+1]) must hold the
/// caller's contribution (for bcast it is produced by the preceding
/// scatter steps, hence the staging copy is a scheduled Local step, not a
/// build-time one); after the last step data holds all chunks.
/// `part_rank` is only evaluated at build time.
void build_bruck_allgather(RequestState& r, double* data,
                           const std::vector<i64>& off, int nparts,
                           int my_part,
                           const std::function<int(int)>& part_rank) {
  if (nparts <= 1) return;
  // Rotated staging buffer: position q holds chunk (my_part + q) % nparts.
  std::vector<i64> pos(static_cast<std::size_t>(nparts) + 1, 0);
  for (int q = 0; q < nparts; ++q) {
    pos[static_cast<std::size_t>(q) + 1] =
        pos[static_cast<std::size_t>(q)] +
        chunk_size(off, (my_part + q) % nparts);
  }
  r.rot.resize(static_cast<std::size_t>(pos.back()));
  double* rot = r.rot.data();

  {
    const i64 my_off = off[static_cast<std::size_t>(my_part)];
    const i64 my_words = chunk_size(off, my_part);
    r.steps.push_back({Step::Kind::Local, -1, nullptr, 0,
                       [data, rot, my_off, my_words] {
                         std::copy_n(data + my_off, my_words, rot);
                       }});
  }

  for (i64 s = 1; s < nparts; s <<= 1) {
    const int blocks = static_cast<int>(std::min<i64>(s, nparts - s));
    const int dst_part =
        static_cast<int>((my_part - s % nparts + nparts) % nparts);
    const int src_part = static_cast<int>((my_part + s) % nparts);
    const i64 send_words = pos[static_cast<std::size_t>(blocks)];
    const i64 recv_at = pos[static_cast<std::size_t>(s)];
    const i64 recv_words = pos[static_cast<std::size_t>(s) + blocks] - recv_at;
    r.steps.push_back(
        {Step::Kind::Send, part_rank(dst_part), rot, send_words, {}});
    r.steps.push_back(
        {Step::Kind::Recv, part_rank(src_part), rot + recv_at, recv_words,
         {}});
  }

  // Un-rotate back into chunk order.
  r.steps.push_back(
      {Step::Kind::Local, -1, nullptr, 0,
       [data, rot, off, pos, my_part, nparts] {
         for (int q = 0; q < nparts; ++q) {
           const int g = (my_part + q) % nparts;
           std::copy_n(rot + pos[static_cast<std::size_t>(q)],
                       off[static_cast<std::size_t>(g) + 1] -
                           off[static_cast<std::size_t>(g)],
                       data + off[static_cast<std::size_t>(g)]);
         }
       }});
}

}  // namespace

void build_bcast(RequestState& r, std::span<double> data, int root) {
  const int p = static_cast<int>(r.comm->members.size());
  ensure<CommError>(root >= 0 && root < p, "bcast: bad root ", root);
  if (p == 1 || data.empty()) return;
  const int me = r.comm->myrank;
  r.tag = next_internal_tag(*r.comm);
  const auto off = chunk_offsets(static_cast<i64>(data.size()), p);
  // Work in "virtual rank" space where the root is vrank 0.
  const int v = (me - root + p) % p;
  auto vrank_to_rank = [&](int vr) { return (vr + root) % p; };

  // Binomial scatter: the vrank-range root forwards the far half's words.
  int lo = 0, hi = p;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo + 1) / 2;
    const i64 o0 = off[static_cast<std::size_t>(mid)];
    const i64 o1 = off[static_cast<std::size_t>(hi)];
    if (v == lo) {
      r.steps.push_back(
          {Step::Kind::Send, vrank_to_rank(mid), data.data() + o0, o1 - o0,
           {}});
      hi = mid;
    } else if (v == mid) {
      r.steps.push_back(
          {Step::Kind::Recv, vrank_to_rank(lo), data.data() + o0, o1 - o0,
           {}});
      lo = mid;
    } else if (v < mid) {
      hi = mid;
    } else {
      lo = mid;
    }
  }

  // Allgather the scattered chunks (chunk index == vrank).
  build_bruck_allgather(r, data.data(), off, p, v, vrank_to_rank);
}

namespace {

/// dst[0..words) += src[0..words), double-wise: the combine of the fp64
/// allreduce, verbatim (both accumulate sites below reduce to this loop,
/// so the fp64 instantiation of build_allreduce_impl is bit-identical to
/// the historical hand-written schedule).
struct AddWordsF64 {
  void operator()(double* dst, const double* src, i64 words) const {
    for (i64 i = 0; i < words; ++i) dst[i] += src[i];
  }
};

/// Float-wise combine over the same word extent: each 8-byte word carries
/// two fp32 lanes (lin::MatrixF::wire() layout; an odd tail rides a
/// zeroed pad lane, and 0.0f + 0.0f keeps the pad zero through every
/// stage).  Charged words are unchanged -- that is the point.
struct AddWordsF32 {
  void operator()(double* dst, const double* src, i64 words) const {
    float* d = reinterpret_cast<float*>(dst);
    const float* s = reinterpret_cast<const float*>(src);
    const i64 n = 2 * words;
    for (i64 i = 0; i < n; ++i) d[i] += s[i];
  }
};

/// Rabenseifner allreduce schedule, parameterized only on the combine:
/// the peers, payload extents, and step order are precision-independent
/// (words in, words out).
template <class Combine>
void build_allreduce_impl(RequestState& r, std::span<double> data,
                          Combine combine) {
  const int p = static_cast<int>(r.comm->members.size());
  if (p == 1 || data.empty()) return;
  const int me = r.comm->myrank;
  r.tag = next_internal_tag(*r.comm);
  const int p2 = 1 << ilog2(p);  // largest power of two <= p
  const int extras = p - p2;
  const i64 n = static_cast<i64>(data.size());
  double* d = data.data();

  // Fold: ranks [p2, p) ship their vectors to partners [0, extras) and wait
  // for the final result (no reduction scratch needed on their side).
  if (me >= p2) {
    r.steps.push_back({Step::Kind::Send, me - p2, d, n, {}});
    r.steps.push_back({Step::Kind::Recv, me - p2, d, n, {}});
    return;
  }
  r.tmp.resize(data.size());
  double* tmp = r.tmp.data();
  if (me < extras) {
    r.steps.push_back({Step::Kind::Recv, me + p2, tmp, n,
                       [combine, d, tmp, n] { combine(d, tmp, n); }});
  }

  // Recursive-halving reduce-scatter among the pow2 set [0, p2).
  const auto off = chunk_offsets(n, p2);
  int lo = 0, hi = p2;
  while (hi - lo > 1) {
    const int half = (hi - lo) / 2;
    const int mid = lo + half;
    const bool lower = me < mid;
    const int partner = lower ? me + half : me - half;
    // Send the half I am not keeping; receive my half and accumulate.
    const int s0 = lower ? mid : lo;
    const int s1 = lower ? hi : mid;
    const int k0 = lower ? lo : mid;
    const int k1 = lower ? mid : hi;
    const i64 so = off[static_cast<std::size_t>(s0)];
    const i64 sn = off[static_cast<std::size_t>(s1)] - so;
    const i64 ko = off[static_cast<std::size_t>(k0)];
    const i64 kn = off[static_cast<std::size_t>(k1)] - ko;
    r.steps.push_back({Step::Kind::Send, partner, d + so, sn, {}});
    r.steps.push_back(
        {Step::Kind::Recv, partner, tmp, kn,
         [combine, d, tmp, ko, kn] { combine(d + ko, tmp, kn); }});
    if (lower) {
      hi = mid;
    } else {
      lo = mid;
    }
  }

  // Allgather the reduced chunks (chunk index == rank within [0, p2)).
  build_bruck_allgather(r, d, off, p2, me, [](int rr) { return rr; });

  // Unfold: return the finished vector to the folded partner.
  if (me < extras) {
    r.steps.push_back({Step::Kind::Send, me + p2, d, n, {}});
  }
}

}  // namespace

void build_allreduce(RequestState& r, std::span<double> data) {
  build_allreduce_impl(r, data, AddWordsF64{});
}

void build_allreduce_f32(RequestState& r, std::span<double> words) {
  build_allreduce_impl(r, words, AddWordsF32{});
}

void build_allgather(RequestState& r, std::span<const double> mine,
                     std::span<double> all) {
  const int p = static_cast<int>(r.comm->members.size());
  ensure<CommError>(all.size() == mine.size() * static_cast<std::size_t>(p),
                    "allgather: output must be size * input");
  const int me = r.comm->myrank;
  // The caller's contribution lands at start (MPI-style: `mine` may be
  // reused immediately) unless it is already there; the scheduled steps
  // only touch `all`.
  double* slot = all.data() + static_cast<std::ptrdiff_t>(mine.size()) * me;
  if (mine.data() != slot) std::copy(mine.begin(), mine.end(), slot);
  if (p == 1 || mine.empty()) return;
  r.tag = next_internal_tag(*r.comm);
  const auto off = chunk_offsets(static_cast<i64>(all.size()), p);
  build_bruck_allgather(r, all.data(), off, p, me, [](int rr) { return rr; });
}

void build_gather(RequestState& r, std::span<const double> mine,
                  std::span<double> all, int root) {
  const int p = static_cast<int>(r.comm->members.size());
  ensure<CommError>(root >= 0 && root < p, "gather: bad root ", root);
  const int me = r.comm->myrank;
  const i64 n = static_cast<i64>(mine.size());
  if (me == root) {
    ensure<CommError>(all.size() == mine.size() * static_cast<std::size_t>(p),
                      "gather: root output must be size * input");
    double* slot = all.data() + n * root;
    if (mine.data() != slot) std::copy(mine.begin(), mine.end(), slot);
  }
  if (p == 1 || mine.empty()) return;
  r.tag = next_internal_tag(*r.comm);
  // Binomial tree in "virtual rank" space, where the root is vrank 0:
  // vrank v's subtree is vranks [v, v + span), span = min(lowbit(v),
  // p - v) (p for the root), and child v + mask (mask < span) hands up
  // its own subtree, blocks in vrank order, as one message.
  const int v = (me - root + p) % p;
  auto vrank_to_rank = [&](int vr) { return (vr + root) % p; };
  const int span = v == 0 ? p : std::min(v & -v, p - v);
  if (v == 0) {
    // The root receives each subtree straight into `all` at its first
    // rank's slot.  At most one subtree wraps past rank p - 1; it lands
    // in staging and is copied out in two pieces.
    double* dst = all.data();
    for (int mask = 1; mask < span; mask <<= 1) {
      const int first = vrank_to_rank(mask);
      const i64 words = std::min(mask, p - mask) * n;
      const i64 head = (p - first) * n;  // words up to rank p - 1
      if (words <= head) {
        r.steps.push_back(
            {Step::Kind::Recv, first, dst + first * n, words, {}});
        continue;
      }
      r.tmp.resize(static_cast<std::size_t>(words));
      double* tmp = r.tmp.data();
      r.steps.push_back({Step::Kind::Recv, first, tmp, words,
                         [tmp, dst, first, n, words, head] {
                           std::copy_n(tmp, head, dst + first * n);
                           std::copy_n(tmp + head, words - head, dst);
                         }});
    }
    return;
  }
  const int parent = vrank_to_rank(v - (v & -v));
  if (span == 1) {
    // A leaf sends its block as it is, at start (sends are eager; a Send
    // step only reads its pointer).
    r.steps.push_back({Step::Kind::Send, parent,
                       const_cast<double*>(mine.data()), n, {}});
    return;
  }
  r.tmp.resize(static_cast<std::size_t>(span * n));
  double* tmp = r.tmp.data();
  std::copy(mine.begin(), mine.end(), tmp);
  for (int mask = 1; mask < span; mask <<= 1) {
    r.steps.push_back({Step::Kind::Recv, vrank_to_rank(v + mask),
                       tmp + mask * n, std::min(mask, p - v - mask) * n, {}});
  }
  r.steps.push_back({Step::Kind::Send, parent, tmp, span * n, {}});
}

void build_sendrecv_swap(RequestState& r, int partner,
                         std::span<double> data) {
  const int p = static_cast<int>(r.comm->members.size());
  ensure<CommError>(partner >= 0 && partner < p,
                    "sendrecv_swap: bad partner rank ", partner);
  if (partner == r.comm->myrank) return;
  const i64 n = static_cast<i64>(data.size());
  r.steps.push_back({Step::Kind::Send, partner, data.data(), n, {}});
  r.steps.push_back({Step::Kind::Recv, partner, data.data(), n, {}});
}

}  // namespace detail

// --------------------------------------------------------- start_* API

Request Comm::start_bcast(std::span<double> data, int root) const {
  auto st = std::make_unique<detail::RequestState>();
  st->comm = state_;
  detail::build_bcast(*st, data, root);
  detail::trace_stamp_request(*st, "bcast");
  detail::start_request(*st);
  return Request(std::move(st));
}

Request Comm::start_allreduce_sum(std::span<double> data) const {
  auto st = std::make_unique<detail::RequestState>();
  st->comm = state_;
  detail::build_allreduce(*st, data);
  detail::trace_stamp_request(*st, "allreduce");
  detail::start_request(*st);
  return Request(std::move(st));
}

Request Comm::start_allreduce_sum_f32(std::span<double> words) const {
  auto st = std::make_unique<detail::RequestState>();
  st->comm = state_;
  detail::build_allreduce_f32(*st, words);
  detail::trace_stamp_request(*st, "allreduce_f32");
  detail::start_request(*st);
  return Request(std::move(st));
}

Request Comm::start_reduce_sum(std::span<double> data, int root) const {
  ensure<CommError>(root >= 0 && root < size(),
                    "reduce_sum: bad root ", root);
  // The paper's cost table charges Reduce identically to Allreduce
  // (reduce-scatter + gather); delivering the result everywhere costs the
  // same in this model and keeps one code path.
  return start_allreduce_sum(data);
}

Request Comm::start_allgather(std::span<const double> mine,
                              std::span<double> all) const {
  auto st = std::make_unique<detail::RequestState>();
  st->comm = state_;
  detail::build_allgather(*st, mine, all);
  detail::trace_stamp_request(*st, "allgather");
  detail::start_request(*st);
  return Request(std::move(st));
}

Request Comm::start_gather(std::span<const double> mine,
                           std::span<double> all, int root) const {
  auto st = std::make_unique<detail::RequestState>();
  st->comm = state_;
  detail::build_gather(*st, mine, all, root);
  detail::trace_stamp_request(*st, "gather");
  detail::start_request(*st);
  return Request(std::move(st));
}

Request Comm::start_sendrecv_swap(int partner, int tag,
                                  std::span<double> data) const {
  auto st = std::make_unique<detail::RequestState>();
  st->comm = state_;
  st->tag = tag;  // pairwise exchange uses the caller's tag
  detail::build_sendrecv_swap(*st, partner, data);
  detail::trace_stamp_request(*st, "sendrecv_swap");
  detail::start_request(*st);
  return Request(std::move(st));
}

// ----------------------------------------------------- blocking flavors

void Comm::barrier() const {
  const int p = size();
  if (p == 1) return;
  // The dissemination loop is direct blocking p2p, not a request
  // schedule, so it carries its own span (same args as the request
  // engine's collective spans).
  obs::SpanScope span("rt", "barrier");
  const CostCounters* tally = nullptr;
  i64 msgs0 = 0;
  double clock0 = 0.0;
  if (obs::trace_on()) {
    tally = &state_->world->ranks[static_cast<std::size_t>(world_rank())]
                 .tally;
    msgs0 = tally->msgs;
    clock0 = tally->time;
  }
  const int me = rank();
  const int tag = detail::next_internal_tag(*state_);
  for (int s = 1; s < p; s <<= 1) {
    send((me + s) % p, tag, {});
    recv((me - s % p + p) % p, tag, {});
  }
  if (tally != nullptr) {
    span.arg("msgs", static_cast<double>(tally->msgs - msgs0));
    span.arg("mclk0_us", clock0 * 1e6);
    span.arg("mclk1_us", tally->time * 1e6);
  }
}

void Comm::bcast(std::span<double> data, int root) const {
  Request r = start_bcast(data, root);
  r.wait();
}

void Comm::allreduce_sum(std::span<double> data) const {
  Request r = start_allreduce_sum(data);
  r.wait();
}

void Comm::reduce_sum(std::span<double> data, int root) const {
  Request r = start_reduce_sum(data, root);
  r.wait();
}

void Comm::allreduce_sum_f32(std::span<double> words) const {
  Request r = start_allreduce_sum_f32(words);
  r.wait();
}

void Comm::reduce_sum_f32(std::span<double> words, int root) const {
  ensure<CommError>(root >= 0 && root < size(),
                    "reduce_sum_f32: bad root ", root);
  // Reduce == Allreduce in the paper's cost table; see start_reduce_sum.
  Request r = start_allreduce_sum_f32(words);
  r.wait();
}

void Comm::allgather(std::span<const double> mine,
                     std::span<double> all) const {
  Request r = start_allgather(mine, all);
  r.wait();
}

void Comm::gather(std::span<const double> mine, std::span<double> all,
                  int root) const {
  Request r = start_gather(mine, all, root);
  r.wait();
}

void Comm::sync_clock() const {
  // Jumps every member's clock to the member maximum without perturbing the
  // alpha/beta tallies: snapshot my tally, allgather the pre-exchange clock
  // values (each rank reads only its own tally, so there is no race), then
  // restore my tally and apply the max.
  charge_local_flops();
  detail::World& w = *state_->world;
  auto& rank_state = w.ranks[static_cast<std::size_t>(world_rank())];
  // Restoring the snapshot would silently erase charges any other
  // in-flight request makes while the allgather below progresses.
  ensure<CommError>(rank_state.active.empty(),
                    "sync_clock: requests still in flight");
  auto& my_tally = rank_state.tally;
  const CostCounters saved = my_tally;

  std::vector<double> mine = {saved.time};
  std::vector<double> all(state_->members.size());
  allgather(mine, all);

  my_tally = saved;
  const double t = *std::max_element(all.begin(), all.end());
  my_tally.time = std::max(saved.time, t);
}

}  // namespace cacqr::rt
