#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/rt/comm.hpp"
#include "cacqr/support/math.hpp"

namespace cacqr::rt {
namespace {

/// Returns max-over-ranks counters for a body run on p ranks.
CostCounters measure(int p, const std::function<void(Comm&)>& body,
                     Machine m = Machine::counting()) {
  return max_counters(Runtime::run(p, body, m));
}

TEST(CostTest, SendChargesAlphaAndBeta) {
  auto per_rank = Runtime::run(2, [](Comm& c) {
    std::vector<double> v(10);
    if (c.rank() == 0) {
      c.send(1, 0, v);
    } else {
      c.recv(0, 0, v);
    }
  });
  EXPECT_EQ(per_rank[0].msgs, 1);
  EXPECT_EQ(per_rank[0].words, 10);
  EXPECT_EQ(per_rank[1].msgs, 0);  // alpha is charged at the sender
  EXPECT_EQ(per_rank[1].words, 0);
}

/// The paper's butterfly-collective cost formulas (Section II-B): these are
/// what the instrumented runtime must measure, because the model-validation
/// benches rely on the correspondence.
TEST(CostTest, BcastMatchesButterflyFormula) {
  for (const int p : {2, 4, 8, 16}) {
    const i64 n = 1 << 10;
    auto c = measure(p, [&](Comm& comm) {
      std::vector<double> v(static_cast<std::size_t>(n));
      comm.bcast(v, 0);
    });
    // 2 log2(P) messages, <= 2n words on the critical path.
    EXPECT_EQ(c.msgs, 2 * ceil_log2(p)) << "p=" << p;
    EXPECT_LE(c.words, 2 * n);
    EXPECT_GE(c.words, 2 * n - 2 * n / p - 8);
  }
}

TEST(CostTest, AllreduceMatchesRabenseifnerFormula) {
  for (const int p : {2, 4, 8, 16}) {
    const i64 n = 1 << 10;
    auto c = measure(p, [&](Comm& comm) {
      std::vector<double> v(static_cast<std::size_t>(n));
      comm.allreduce_sum(v);
    });
    EXPECT_EQ(c.msgs, 2 * ceil_log2(p)) << "p=" << p;
    EXPECT_LE(c.words, 2 * n);
    EXPECT_GE(c.words, 2 * n - 2 * n / p - 8);
  }
}

TEST(CostTest, AllgatherMatchesBruckFormula) {
  for (const int p : {2, 4, 8, 16}) {
    const i64 n_per = 128;
    auto c = measure(p, [&](Comm& comm) {
      std::vector<double> mine(static_cast<std::size_t>(n_per));
      std::vector<double> all(static_cast<std::size_t>(n_per * p));
      comm.allgather(mine, all);
    });
    const i64 n_total = n_per * p;
    EXPECT_EQ(c.msgs, ceil_log2(p)) << "p=" << p;
    EXPECT_LE(c.words, n_total);
    EXPECT_GE(c.words, n_total - n_per - 8);
  }
}

TEST(CostTest, GatherMatchesBinomialFormula) {
  // The Gather row of comm.hpp's cost table, per rank: the root sends
  // nothing; vrank v = rank - root (mod P) sends its subtree, min(lowbit
  // v, P - v) blocks, in one message.
  for (const int p : {1, 2, 3, 4, 5, 8, 16}) {
    for (const int root : {0, p / 2, p - 1}) {
      const i64 n_per = 128;
      const std::vector<CostCounters> per_rank = Runtime::run(p, [&](Comm& c) {
        const std::vector<double> mine(static_cast<std::size_t>(n_per));
        std::vector<double> all(
            c.rank() == root ? static_cast<std::size_t>(n_per * p) : 0);
        c.gather(mine, all, root);
      });
      for (int r = 0; r < p; ++r) {
        const int v = (r - root + p) % p;
        const i64 blocks = v == 0 ? 0 : std::min(v & -v, p - v);
        EXPECT_EQ(per_rank[static_cast<std::size_t>(r)].msgs, v == 0 ? 0 : 1)
            << "p=" << p << " root=" << root << " rank=" << r;
        EXPECT_EQ(per_rank[static_cast<std::size_t>(r)].words, blocks * n_per)
            << "p=" << p << " root=" << root << " rank=" << r;
      }
    }
  }
}

TEST(CostTest, BarrierIsZeroWords) {
  for (const int p : {2, 3, 8}) {
    auto c = measure(p, [](Comm& comm) { comm.barrier(); });
    EXPECT_EQ(c.words, 0);
    EXPECT_EQ(c.msgs, ceil_log2(p));
  }
}

TEST(CostTest, TransposeSwapIsAlphaPlusN) {
  auto c = measure(4, [](Comm& comm) {
    std::vector<double> v(50);
    comm.sendrecv_swap(comm.rank() ^ 1, 0, v);
  });
  EXPECT_EQ(c.msgs, 1);
  EXPECT_EQ(c.words, 50);
}

TEST(CostTest, FlopsDrainIntoCounters) {
  auto per_rank = Runtime::run(2, [](Comm& c) {
    lin::Matrix a(8, 8), b(8, 8), out(8, 8);
    lin::matmul(a, b, out);  // 2*8^3 = 1024 flops
    c.barrier();             // drains the thread-local tally
  });
  EXPECT_EQ(per_rank[0].flops, 1024);
  EXPECT_EQ(per_rank[1].flops, 1024);
}

TEST(CostTest, ModeledClockAdvancesWithMachine) {
  const Machine m{1e-6, 1e-9, 1e-11};
  auto per_rank = Runtime::run(2,
                               [](Comm& c) {
                                 std::vector<double> v(1000);
                                 if (c.rank() == 0) {
                                   c.send(1, 0, v);
                                 } else {
                                   c.recv(0, 0, v);
                                 }
                               },
                               m);
  // Sender: alpha + 1000 beta = 1e-6 + 1e-6 = 2e-6.
  EXPECT_NEAR(per_rank[0].time, 2e-6, 1e-12);
  // Receiver clock jumps to the arrival stamp.
  EXPECT_NEAR(per_rank[1].time, 2e-6, 1e-12);
}

TEST(CostTest, ModeledClockSerializesDependencies) {
  // Chain: 0 -> 1 -> 2; the final clock must be two hops, not one.
  const Machine m{1.0, 0.0, 0.0};  // 1 second per message, nothing else
  auto per_rank = Runtime::run(3,
                               [](Comm& c) {
                                 std::vector<double> v(1);
                                 if (c.rank() == 0) {
                                   c.send(1, 0, v);
                                 } else if (c.rank() == 1) {
                                   c.recv(0, 0, v);
                                   c.send(2, 0, v);
                                 } else {
                                   c.recv(1, 0, v);
                                 }
                               },
                               m);
  EXPECT_DOUBLE_EQ(per_rank[2].time, 2.0);
}

TEST(CostTest, ComputeEntersClockViaGamma) {
  const Machine m{0.0, 0.0, 1e-9};
  auto per_rank = Runtime::run(1,
                               [](Comm& c) {
                                 lin::Matrix a(10, 10), b(10, 10), out(10, 10);
                                 lin::matmul(a, b, out);
                                 c.charge_local_flops();
                               },
                               m);
  EXPECT_NEAR(per_rank[0].time, 2000.0 * 1e-9, 1e-15);
}

TEST(CostTest, SyncClockEqualizesWithoutCharging) {
  const Machine m{0.0, 0.0, 1.0};  // 1 second per flop
  auto per_rank = Runtime::run(2,
                               [](Comm& c) {
                                 if (c.rank() == 0) {
                                   lin::Matrix a(4, 4), b(4, 4), out(4, 4);
                                   lin::matmul(a, b, out);  // 128 flops
                                 }
                                 c.sync_clock();
                               },
                               m);
  EXPECT_DOUBLE_EQ(per_rank[0].time, 128.0);
  EXPECT_DOUBLE_EQ(per_rank[1].time, 128.0);
  // sync_clock must not add messages or words.
  EXPECT_EQ(per_rank[0].msgs + per_rank[1].msgs, 0);
  EXPECT_EQ(per_rank[0].words + per_rank[1].words, 0);
}

TEST(CostTest, CountersSnapshotDelta) {
  Runtime::run(2, [](Comm& c) {
    const CostCounters before = c.counters();
    std::vector<double> v(64);
    c.allreduce_sum(v);
    const CostCounters delta = c.counters() - before;
    EXPECT_EQ(delta.msgs, 2);  // p=2: 1 reduce-scatter + 1 allgather stage
    // Each stage moves half the vector: n/2 + n/2 = n words at p = 2
    // (the 2n formula is the large-P limit, 2n(P-1)/P).
    EXPECT_EQ(delta.words, 64);
  });
}

}  // namespace
}  // namespace cacqr::rt
