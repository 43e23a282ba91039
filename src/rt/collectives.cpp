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
/// Every collective is one straight-line sequence of eager sends,
/// blocking receives and local copies/accumulates (DESIGN.md section 5).
/// Each send and receive charges where it executes, so the per-rank
/// msgs/words/flops tallies and the modeled clock follow that sequence
/// exactly, on every transport.

#include <algorithm>

#include "cacqr/obs/trace.hpp"
#include "cacqr/support/uninit.hpp"
#include "internal.hpp"

namespace cacqr::rt {

namespace {

using detail::CommState;
using detail::recv_blocking;
using detail::send_now;

/// Reserves a fresh internal tag for one collective invocation.  Distinct
/// invocations on the same communicator get distinct tags; within one
/// invocation, FIFO ordering per (src, tag) channel keeps stages paired.
int next_internal_tag(CommState& s) {
  return -1 - static_cast<int>(s.op_seq++ & 0x3fffffffULL);
}

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

/// The `rt` span of one collective (obs/trace.hpp): its wall time, with
/// the msgs/words it charged and its modeled-clock window as args
/// (microseconds, to match ts/dur).  Callers open it only once they know
/// the call runs a point-to-point step, so a trivial call (P == 1, an
/// empty payload, a self-swap) records none.
class CollectiveSpan {
 public:
  CollectiveSpan(const CommState& s, const char* name) : span_("rt", name) {
    if (!obs::trace_on()) return;
    tally_ = &s.world->ranks[static_cast<std::size_t>(detail::world_rank_of(s))]
                  .tally;
    msgs0_ = tally_->msgs;
    words0_ = tally_->words;
    clock0_ = tally_->time;
  }
  CollectiveSpan(const CollectiveSpan&) = delete;
  CollectiveSpan& operator=(const CollectiveSpan&) = delete;
  ~CollectiveSpan() {
    if (tally_ == nullptr) return;
    span_.arg("msgs", static_cast<double>(tally_->msgs - msgs0_));
    span_.arg("words", static_cast<double>(tally_->words - words0_));
    span_.arg("mclk0_us", clock0_ * 1e6);
    span_.arg("mclk1_us", tally_->time * 1e6);
  }

 private:
  obs::SpanScope span_;
  const CostCounters* tally_ = nullptr;
  i64 msgs0_ = 0;
  i64 words0_ = 0;
  double clock0_ = 0.0;
};

/// Bruck allgather over the first `nparts` participants of a rotated
/// communicator: participant i is comm rank (i + root) % size, and the
/// caller is participant `my_part`.  On entry data[off[my_part] ..
/// off[my_part + 1]) holds the caller's chunk; on return data holds all
/// chunks.
void bruck_allgather(CommState& s, int tag, double* data,
                     const std::vector<i64>& off, int nparts, int my_part,
                     int root) {
  if (nparts <= 1) return;
  const int p = static_cast<int>(s.members.size());
  // Rotated staging buffer: position q holds chunk (my_part + q) % nparts.
  std::vector<i64> pos(static_cast<std::size_t>(nparts) + 1, 0);
  for (int q = 0; q < nparts; ++q) {
    pos[static_cast<std::size_t>(q) + 1] =
        pos[static_cast<std::size_t>(q)] +
        chunk_size(off, (my_part + q) % nparts);
  }
  UninitVector<double> rot(static_cast<std::size_t>(pos.back()));
  std::copy_n(data + off[static_cast<std::size_t>(my_part)],
              chunk_size(off, my_part), rot.data());

  for (i64 st = 1; st < nparts; st <<= 1) {
    const int blocks = static_cast<int>(std::min<i64>(st, nparts - st));
    const int dst_part =
        static_cast<int>((my_part - st % nparts + nparts) % nparts);
    const int src_part = static_cast<int>((my_part + st) % nparts);
    const i64 send_words = pos[static_cast<std::size_t>(blocks)];
    const i64 recv_at = pos[static_cast<std::size_t>(st)];
    const i64 recv_words = pos[static_cast<std::size_t>(st) + blocks] - recv_at;
    send_now(s, (dst_part + root) % p, tag,
             {rot.data(), static_cast<std::size_t>(send_words)});
    recv_blocking(s, (src_part + root) % p, tag,
                  {rot.data() + recv_at, static_cast<std::size_t>(recv_words)});
  }

  // Un-rotate back into chunk order.
  for (int q = 0; q < nparts; ++q) {
    const int g = (my_part + q) % nparts;
    std::copy_n(rot.data() + pos[static_cast<std::size_t>(q)],
                chunk_size(off, g), data + off[static_cast<std::size_t>(g)]);
  }
}

/// dst[0..words) += src[0..words), double-wise: the combine of the fp64
/// allreduce.
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

/// Rabenseifner allreduce, parameterized only on the combine: the peers,
/// payload extents, and step order are precision-independent (words in,
/// words out).
template <class Combine>
void allreduce_impl(CommState& s, std::span<double> data, const char* name,
                    Combine combine) {
  const int p = static_cast<int>(s.members.size());
  if (p == 1 || data.empty()) return;
  CollectiveSpan span(s, name);
  const int me = s.myrank;
  const int tag = next_internal_tag(s);
  const int p2 = 1 << ilog2(p);  // largest power of two <= p
  const int extras = p - p2;
  const i64 n = static_cast<i64>(data.size());
  double* d = data.data();

  // Fold: ranks [p2, p) ship their vectors to partners [0, extras) and wait
  // for the final result (no reduction scratch needed on their side).
  if (me >= p2) {
    send_now(s, me - p2, tag, data);
    recv_blocking(s, me - p2, tag, data);
    return;
  }
  UninitVector<double> tmp(data.size());
  if (me < extras) {
    recv_blocking(s, me + p2, tag, tmp);
    combine(d, tmp.data(), n);
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
    send_now(s, partner, tag, data.subspan(static_cast<std::size_t>(so),
                                           static_cast<std::size_t>(sn)));
    recv_blocking(s, partner, tag,
                  {tmp.data(), static_cast<std::size_t>(kn)});
    combine(d + ko, tmp.data(), kn);
    if (lower) {
      hi = mid;
    } else {
      lo = mid;
    }
  }

  // Allgather the reduced chunks (chunk index == rank within [0, p2)).
  bruck_allgather(s, tag, d, off, p2, me, 0);

  // Unfold: return the finished vector to the folded partner.
  if (me < extras) send_now(s, me + p2, tag, data);
}

}  // namespace

void Comm::sendrecv_swap(int partner, int tag, std::span<double> data) const {
  ensure<CommError>(partner >= 0 && partner < size(),
                    "sendrecv_swap: bad partner rank ", partner);
  if (partner == rank()) return;
  CollectiveSpan span(*state_, "sendrecv_swap");
  // The pairwise exchange uses the caller's tag.
  send_now(*state_, partner, tag, data);
  recv_blocking(*state_, partner, tag, data);
}

void Comm::barrier() const {
  const int p = size();
  if (p == 1) return;
  CollectiveSpan span(*state_, "barrier");
  const int me = rank();
  const int tag = next_internal_tag(*state_);
  for (int s = 1; s < p; s <<= 1) {
    send((me + s) % p, tag, {});
    recv((me - s % p + p) % p, tag, {});
  }
}

void Comm::bcast(std::span<double> data, int root) const {
  CommState& s = *state_;
  const int p = size();
  ensure<CommError>(root >= 0 && root < p, "bcast: bad root ", root);
  if (p == 1 || data.empty()) return;
  CollectiveSpan span(s, "bcast");
  const int tag = next_internal_tag(s);
  const auto off = chunk_offsets(static_cast<i64>(data.size()), p);
  // Work in "virtual rank" space where the root is vrank 0.
  const int v = (rank() - root + p) % p;

  // Binomial scatter: the vrank-range root forwards the far half's words.
  int lo = 0, hi = p;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo + 1) / 2;
    const i64 o0 = off[static_cast<std::size_t>(mid)];
    const i64 o1 = off[static_cast<std::size_t>(hi)];
    const std::span<double> far = data.subspan(
        static_cast<std::size_t>(o0), static_cast<std::size_t>(o1 - o0));
    if (v == lo) {
      send_now(s, (mid + root) % p, tag, far);
      hi = mid;
    } else if (v == mid) {
      recv_blocking(s, (lo + root) % p, tag, far);
      lo = mid;
    } else if (v < mid) {
      hi = mid;
    } else {
      lo = mid;
    }
  }

  // Allgather the scattered chunks (chunk index == vrank).
  bruck_allgather(s, tag, data.data(), off, p, v, root);
}

void Comm::allreduce_sum(std::span<double> data) const {
  allreduce_impl(*state_, data, "allreduce", AddWordsF64{});
}

void Comm::allreduce_sum_f32(std::span<double> words) const {
  allreduce_impl(*state_, words, "allreduce_f32", AddWordsF32{});
}

void Comm::reduce_sum(std::span<double> data, int root) const {
  ensure<CommError>(root >= 0 && root < size(), "reduce_sum: bad root ", root);
  // The paper's cost table charges Reduce identically to Allreduce
  // (reduce-scatter + gather); delivering the result everywhere costs the
  // same in this model and keeps one code path.
  allreduce_sum(data);
}

void Comm::reduce_sum_f32(std::span<double> words, int root) const {
  ensure<CommError>(root >= 0 && root < size(),
                    "reduce_sum_f32: bad root ", root);
  // Reduce == Allreduce in the paper's cost table; see reduce_sum.
  allreduce_sum_f32(words);
}

void Comm::allgather(std::span<const double> mine,
                     std::span<double> all) const {
  const int p = size();
  ensure<CommError>(all.size() == mine.size() * static_cast<std::size_t>(p),
                    "allgather: output must be size * input");
  const int me = rank();
  // The caller's contribution lands in its slot first unless it is
  // already there; the Bruck stages only touch `all`.
  double* slot = all.data() + static_cast<std::ptrdiff_t>(mine.size()) * me;
  if (mine.data() != slot) std::copy(mine.begin(), mine.end(), slot);
  if (p == 1 || mine.empty()) return;
  CollectiveSpan span(*state_, "allgather");
  const int tag = next_internal_tag(*state_);
  const auto off = chunk_offsets(static_cast<i64>(all.size()), p);
  bruck_allgather(*state_, tag, all.data(), off, p, me, 0);
}

void Comm::gather(std::span<const double> mine, std::span<double> all,
                  int root) const {
  CommState& s = *state_;
  const int p = size();
  ensure<CommError>(root >= 0 && root < p, "gather: bad root ", root);
  const int me = rank();
  const i64 n = static_cast<i64>(mine.size());
  if (me == root) {
    ensure<CommError>(all.size() == mine.size() * static_cast<std::size_t>(p),
                      "gather: root output must be size * input");
    double* slot = all.data() + n * root;
    if (mine.data() != slot) std::copy(mine.begin(), mine.end(), slot);
  }
  if (p == 1 || mine.empty()) return;
  CollectiveSpan span(s, "gather");
  const int tag = next_internal_tag(s);
  // Binomial tree in "virtual rank" space, where the root is vrank 0:
  // vrank v's subtree is vranks [v, v + subtree), subtree = min(lowbit(v),
  // p - v) (p for the root), and child v + mask (mask < subtree) hands up
  // its own subtree, blocks in vrank order, as one message.
  const int v = (me - root + p) % p;
  const int subtree = v == 0 ? p : std::min(v & -v, p - v);
  if (v == 0) {
    // The root receives each subtree straight into `all` at its first
    // rank's slot.  At most one subtree wraps past rank p - 1; it lands
    // in staging and is copied out in two pieces.
    double* dst = all.data();
    for (int mask = 1; mask < subtree; mask <<= 1) {
      const int first = (mask + root) % p;
      const i64 words = std::min(mask, p - mask) * n;
      const i64 head = (p - first) * n;  // words up to rank p - 1
      if (words <= head) {
        recv_blocking(s, first, tag,
                      {dst + first * n, static_cast<std::size_t>(words)});
        continue;
      }
      UninitVector<double> tmp(static_cast<std::size_t>(words));
      recv_blocking(s, first, tag, tmp);
      std::copy_n(tmp.data(), head, dst + first * n);
      std::copy_n(tmp.data() + head, words - head, dst);
    }
    return;
  }
  const int parent = (v - (v & -v) + root) % p;
  if (subtree == 1) {
    send_now(s, parent, tag, mine);  // a leaf sends its block as it is
    return;
  }
  UninitVector<double> tmp(static_cast<std::size_t>(subtree * n));
  std::copy(mine.begin(), mine.end(), tmp.begin());
  for (int mask = 1; mask < subtree; mask <<= 1) {
    recv_blocking(s, (v + mask + root) % p, tag,
                  {tmp.data() + mask * n,
                   static_cast<std::size_t>(std::min(mask, p - v - mask) * n)});
  }
  send_now(s, parent, tag, tmp);
}

}  // namespace cacqr::rt
