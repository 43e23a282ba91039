/// \file test_conformance.cpp
/// \brief Cross-backend conformance: the SAME rank body run under the
///        modeled (threads, in-process mailboxes) and shm (forked
///        processes, shared-memory rings) transports must produce
///        bitwise-identical published payloads AND identical per-rank
///        cost tallies -- msgs, words, flops, and the modeled clock.
///
/// This is the load-bearing guarantee of the transport seam (DESIGN.md
/// section 10): all charging and clock stamping happens in the
/// backend-independent send/recv layer, so switching how bytes move can
/// never move a counter.  Every collective pattern of the tests/rt suite
/// reappears here as a publish-based scenario: collectives, fp32 wire
/// payloads, p2p bursts, and sub-communicator traffic, each at P in
/// {2, 4}.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/matrix.hpp"
#include "cacqr/lin/matrix_f.hpp"
#include "cacqr/rt/comm.hpp"
#include "cacqr/support/rng.hpp"

namespace cacqr::rt {
namespace {

// fork()ing rank children from a process that runs TSan-instrumented
// threads is unsupported (the child inherits the tool's locked state),
// so the shm side of the comparison is skipped under ThreadSanitizer.
#if defined(__SANITIZE_THREAD__)
#define CACQR_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CACQR_TSAN 1
#endif
#endif

bool shm_testable() {
#if defined(CACQR_TSAN)
  return false;
#else
  return transport_available(TransportKind::shm);
#endif
}

/// Distinct alpha/beta/gamma so clock equality is a real constraint.
constexpr Machine kMachine{1e-6, 1e-9, 1e-11};

/// Deterministic per-rank payload.
std::vector<double> payload(int rank, std::size_t n, u64 salt = 0) {
  std::vector<double> v(n);
  Rng rng(static_cast<u64>(rank) * 2166136261ULL + salt + 1);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Runs `body` under both backends and asserts the full RunOutput --
/// published blobs bitwise, every counter field exactly -- agrees.
void expect_conformant(int p, const std::function<void(Comm&)>& body) {
  if (!shm_testable()) GTEST_SKIP() << "shm transport not testable here";
  const RunOutput modeled =
      Runtime::run_collect(p, body, kMachine, 0, TransportKind::modeled);
  const RunOutput shm =
      Runtime::run_collect(p, body, kMachine, 0, TransportKind::shm);
  ASSERT_EQ(modeled.counters.size(), shm.counters.size());
  ASSERT_EQ(modeled.published.size(), shm.published.size());
  for (int r = 0; r < p; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const auto& mb = modeled.published[i];
    const auto& sb = shm.published[i];
    ASSERT_EQ(mb.size(), sb.size()) << "rank " << r;
    EXPECT_EQ(0, std::memcmp(mb.data(), sb.data(),
                             mb.size() * sizeof(double)))
        << "published payload differs on rank " << r;
    EXPECT_EQ(modeled.counters[i].msgs, shm.counters[i].msgs)
        << "rank " << r;
    EXPECT_EQ(modeled.counters[i].words, shm.counters[i].words)
        << "rank " << r;
    EXPECT_EQ(modeled.counters[i].flops, shm.counters[i].flops)
        << "rank " << r;
    // Exact equality: the modeled clock is charged identically on every
    // backend (stamps ride the wire; receives max against them).
    EXPECT_EQ(modeled.counters[i].time, shm.counters[i].time)
        << "rank " << r;
  }
}

class TransportConformance : public ::testing::TestWithParam<int> {};

TEST_P(TransportConformance, BlockingCollectives) {
  expect_conformant(GetParam(), [](Comm& c) {
    std::vector<double> b = payload(c.rank(), 65, 1);
    c.bcast(b, c.size() - 1);
    std::vector<double> r = payload(c.rank(), 33, 2);
    c.allreduce_sum(r);
    std::vector<double> d = payload(c.rank(), 17, 3);
    c.reduce_sum(d, 0);
    std::vector<double> mine = payload(c.rank(), 9, 4);
    std::vector<double> all(mine.size() * static_cast<std::size_t>(c.size()));
    c.allgather(mine, all);
    for (const int root : {0, c.size() - 1}) {
      const std::vector<double> part = payload(c.rank(), 11, 5 + root);
      std::vector<double> at_root(
          c.rank() == root ? part.size() * static_cast<std::size_t>(c.size())
                           : 0);
      c.gather(part, at_root, root);
      c.publish(at_root);
    }
    c.barrier();
    c.publish(b);
    c.publish(r);
    c.publish(d);
    c.publish(all);
  });
}

TEST_P(TransportConformance, F32WirePayloads) {
  expect_conformant(GetParam(), [](Comm& c) {
    lin::MatrixF odd = lin::MatrixF::uninit(21, 1);  // tail-pad lane rides
    for (i64 i = 0; i < odd.rows(); ++i) {
      odd.data()[i] = static_cast<float>((c.rank() + 1) * (i % 13 - 6));
    }
    c.allreduce_sum_f32(odd.wire());
    lin::MatrixF even = lin::MatrixF::uninit(8, 4);
    for (i64 i = 0; i < 32; ++i) {
      even.data()[i] = static_cast<float>((c.rank() + 2) * (i % 7 - 3));
    }
    c.reduce_sum_f32(even.wire(), 0);
    c.publish(odd.wire());
    c.publish(even.wire());
  });
}

TEST_P(TransportConformance, P2pBurstAndTagSelectivity) {
  expect_conformant(GetParam(), [](Comm& c) {
    const int partner = c.rank() ^ 1;
    std::vector<double> swapped = {static_cast<double>(c.rank()) + 0.5};
    c.sendrecv_swap(partner < c.size() ? partner : c.rank(), 3, swapped);
    c.publish(swapped);
    if (c.size() < 2) return;
    // Ring burst with reversed-tag receives: FIFO per channel plus tag
    // matching out of post order.
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    for (int t = 0; t < 8; ++t) {
      std::vector<double> v = {static_cast<double>(c.rank() * 100 + t)};
      c.send(next, t, v);
    }
    std::vector<double> got(8);
    for (int t = 7; t >= 0; --t) {
      std::vector<double> v(1);
      c.recv(prev, t, v);
      got[static_cast<std::size_t>(t)] = v[0];
    }
    c.publish(got);
  });
}

TEST_P(TransportConformance, SubCommunicatorTraffic) {
  expect_conformant(GetParam(), [](Comm& c) {
    Comm sub = c.split(c.rank() % 2, c.rank());
    std::vector<double> v = payload(c.world_rank(), 25, 21);
    sub.allreduce_sum(v);
    std::vector<double> w = {static_cast<double>(c.rank())};
    c.allreduce_sum(w);
    c.publish(v);
    c.publish(w);
  });
}

TEST_P(TransportConformance, KernelFlopsDrainIdentically) {
  // Local gemm flops recorded by lin:: drain into the tally at the next
  // communication call; the drain accounting must not depend on the
  // backend.
  expect_conformant(GetParam(), [](Comm& c) {
    lin::Matrix a(16, 16), b(16, 16), prod(16, 16);
    lin::matmul(a, b, prod);
    std::vector<double> v = payload(c.rank(), 8, 31);
    c.allreduce_sum(v);
    c.publish(v);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, TransportConformance,
                         ::testing::Values(2, 4));

}  // namespace
}  // namespace cacqr::rt
