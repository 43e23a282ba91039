#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
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

/// Each rank's msgs, words, flops and modeled clock after every call of a
/// fixed collective sequence on p ranks, one "call rank msgs words flops
/// time" row per (call, rank).
std::string collective_charge_table(int p) {
  // Dyadic machine: every alpha, beta and gamma charge is a binary
  // fraction, so each clock value is exact and prints exactly.
  const Machine m{1.0, 1.0 / 1024, 1.0 / (1 << 20)};
  const char* const calls[] = {
      "bcast@0",  "bcast@P-1", "allreduce", "allreduce_f32", "reduce@1",
      "allgather", "gather@0",  "gather@2",  "swap",          "barrier"};
  const RunOutput out = Runtime::run_collect(
      p,
      [](Comm& c) {
        const int np = c.size();
        const std::size_t n = 37;  // ragged: no rank count here divides it
        std::vector<double> v(n, 1.0);
        std::vector<double> all(n * static_cast<std::size_t>(np));
        const auto at = [&](int root) {
          return c.rank() == root ? std::span<double>(all)
                                  : std::span<double>{};
        };
        // A rank-dependent gemm before each call leaves flops pending,
        // which the call must drain before its first send or receive
        // stamps or maxes the clock.
        const auto step = [&](const std::function<void()>& call) {
          const i64 k = 4 * (1 + c.rank() % 3);
          lin::Matrix a(k, k), b(k, k), prod(k, k);
          lin::matmul(a, b, prod);
          call();
          const CostCounters t = c.counters();
          c.publish(std::vector<double>{static_cast<double>(t.msgs),
                                        static_cast<double>(t.words),
                                        static_cast<double>(t.flops),
                                        t.time});
        };
        step([&] { c.bcast(v, 0); });
        step([&] { c.bcast(v, np - 1); });
        step([&] { c.allreduce_sum(v); });
        step([&] { c.allreduce_sum_f32(v); });
        step([&] { c.reduce_sum(v, 1); });
        step([&] { c.allgather(v, all); });
        step([&] { c.gather(v, at(0), 0); });
        step([&] { c.gather(v, at(2), 2); });  // a subtree wraps at P = 5, 8
        step([&] {
          const int partner = (c.rank() ^ 1) < np ? c.rank() ^ 1 : c.rank();
          c.sendrecv_swap(partner, 7, v);
        });
        step([&] { c.barrier(); });
      },
      m);
  std::string table;
  for (std::size_t call = 0; call < std::size(calls); ++call) {
    for (int r = 0; r < p; ++r) {
      const double* t =
          out.published[static_cast<std::size_t>(r)].data() + 4 * call;
      char row[128];
      std::snprintf(row, sizeof row, "%-13s r%d %3.0f %4.0f %5.0f %.17g\n",
                    calls[call], r, t[0], t[1], t[2], t[3]);
      table += row;
    }
  }
  return table;
}

TEST(CostTest, CollectiveChargesAndClockArePinned) {
  // Literal per-rank tallies of the butterfly/binomial schedules (bcast
  // from both ends, fp64 and fp32 allreduce, reduce, allgather, gather to
  // rank 0 and to rank 2, a neighbour swap -- a self-swap on the last of
  // an odd P -- and barrier) at two P whose allreduce folds and at a
  // power of two.
  EXPECT_EQ("\n" + collective_charge_table(3), R"(
bcast@0       r0   4   50   128 4.0489501953125
bcast@0       r1   2   24  1024 4.0489501953125
bcast@0       r2   2   24  3456 4.0479736328125
bcast@P-1     r0   6   74   256 8.10009765625
bcast@P-1     r1   4   48  2048 8.09912109375
bcast@P-1     r2   6   74  6912 8.10009765625
allreduce     r0   9  148   384 12.2117919921875
allreduce     r1   6   85  3072 11.1756591796875
allreduce     r2   7  111 10368 12.2117919921875
allreduce_f32 r0  12  222   512 16.323486328125
allreduce_f32 r1   8  122  4096 15.287353515625
allreduce_f32 r2   8  148 13824 16.323486328125
reduce@1      r0  15  296   640 20.4351806640625
reduce@1      r1  10  159  5120 19.3990478515625
reduce@1      r2   9  185 17280 20.4351806640625
allgather     r0  17  370   768 22.5107421875
allgather     r1  12  233  6144 22.5107421875
allgather     r2  11  259 20736 22.5107421875
gather@0      r0  17  370   896 23.5501708984375
gather@0      r1  13  270  7168 23.5478515625
gather@0      r2  12  296 24192 23.5501708984375
gather@2      r0  18  407  1024 24.58642578125
gather@2      r1  14  307  8192 24.5849609375
gather@2      r2  12  296 27648 24.58642578125
swap          r0  19  444  1152 25.6226806640625
swap          r1  15  344  9216 25.6226806640625
swap          r2  12  296 31104 24.5897216796875
barrier       r0  21  444  1280 27.6236572265625
barrier       r1  17  344 10240 27.6236572265625
barrier       r2  14  296 34560 27.6236572265625
)");
  EXPECT_EQ("\n" + collective_charge_table(5), R"(
bcast@0       r0   6   61   128 6.0596923828125
bcast@0       r1   3   31  1024 6.0596923828125
bcast@0       r2   3   28  3456 6.0587158203125
bcast@0       r3   4   35   128 6.0587158203125
bcast@0       r4   3   29  1024 6.0587158203125
bcast@P-1     r0   9   92   256 12.1192626953125
bcast@P-1     r1   6   59  2048 12.1182861328125
bcast@P-1     r2   7   63  6912 12.1182861328125
bcast@P-1     r3   7   64   256 12.1182861328125
bcast@P-1     r4   9   90  2048 12.1192626953125
allreduce     r0  14  185   384 18.2471923828125
allreduce     r1  10  114  3072 17.2110595703125
allreduce     r2  11  118 10368 17.2110595703125
allreduce     r3  11  120   384 17.2110595703125
allreduce     r4  10  127  3072 18.2471923828125
allreduce_f32 r0  19  278   512 24.3751220703125
allreduce_f32 r1  14  169  4096 23.3389892578125
allreduce_f32 r2  15  173 13824 23.3389892578125
allreduce_f32 r3  15  176   512 23.3389892578125
allreduce_f32 r4  11  164  4096 24.3751220703125
reduce@1      r0  24  371   640 30.5030517578125
reduce@1      r1  18  224  5120 29.4669189453125
reduce@1      r2  19  228 17280 29.4669189453125
reduce@1      r3  19  232   640 29.4669189453125
reduce@1      r4  12  201  5120 30.5030517578125
allgather     r0  27  519   768 33.6485595703125
allgather     r1  21  372  6144 33.6485595703125
allgather     r2  22  376 20736 33.6485595703125
allgather     r3  22  380   768 33.6485595703125
allgather     r4  15  349  6144 33.6485595703125
gather@0      r0  27  519   896 35.757080078125
gather@0      r1  22  409  7168 34.6856689453125
gather@0      r2  23  450 24192 35.757080078125
gather@0      r3  23  417   896 34.684814453125
gather@0      r4  16  386  7168 34.6856689453125
gather@2      r0  28  556  1024 36.7933349609375
gather@2      r1  23  446  8192 35.7227783203125
gather@2      r2  23  450 27648 37.8656005859375
gather@2      r3  24  454  1024 35.7210693359375
gather@2      r4  17  460  8192 37.8656005859375
swap          r0  29  593  1152 37.82958984375
swap          r1  24  483  9216 37.82958984375
swap          r2  24  487 31104 38.905029296875
swap          r3  25  491  1152 38.905029296875
swap          r4  17  460  9216 37.8665771484375
barrier       r0  32  593  1280 41.9083251953125
barrier       r1  27  483 10240 41.9083251953125
barrier       r2  27  487 34560 41.9083251953125
barrier       r3  28  491  1280 41.9083251953125
barrier       r4  20  460 10240 41.9083251953125
)");
  EXPECT_EQ("\n" + collective_charge_table(8), R"(
bcast@0       r0   6   67   128 6.0655517578125
bcast@0       r1   3   35  1024 6.0655517578125
bcast@0       r2   4   39  3456 6.0645751953125
bcast@0       r3   3   33   128 6.0645751953125
bcast@0       r4   5   43  1024 6.0655517578125
bcast@0       r5   3   29  3456 6.0655517578125
bcast@0       r6   4   34   128 6.0645751953125
bcast@0       r7   3   32  1024 6.0645751953125
bcast@P-1     r0   9  102   256 12.1309814453125
bcast@P-1     r1   7   74  2048 12.1300048828125
bcast@P-1     r2   7   72  6912 12.1300048828125
bcast@P-1     r3   8   76   256 12.1309814453125
bcast@P-1     r4   8   72  2048 12.1309814453125
bcast@P-1     r5   7   63  6912 12.1300048828125
bcast@P-1     r6   7   66   256 12.1300048828125
bcast@P-1     r7   9   99  2048 12.1309814453125
allreduce     r0  15  169   384 18.20166015625
allreduce     r1  13  141  3072 18.20166015625
allreduce     r2  13  138 10368 18.20068359375
allreduce     r3  14  141   384 18.20068359375
allreduce     r4  14  135  3072 18.20166015625
allreduce     r5  13  125 10368 18.20166015625
allreduce     r6  13  129   384 18.20068359375
allreduce     r7  15  164  3072 18.20068359375
allreduce_f32 r0  21  236   512 24.2733154296875
allreduce_f32 r1  19  208  4096 24.2733154296875
allreduce_f32 r2  19  204 13824 24.2723388671875
allreduce_f32 r3  20  206   512 24.2723388671875
allreduce_f32 r4  20  198  4096 24.2733154296875
allreduce_f32 r5  19  187 13824 24.2733154296875
allreduce_f32 r6  19  192   512 24.2723388671875
allreduce_f32 r7  21  229  4096 24.2723388671875
reduce@1      r0  27  303   640 30.344970703125
reduce@1      r1  25  275  5120 30.344970703125
reduce@1      r2  25  270 17280 30.343994140625
reduce@1      r3  26  271   640 30.343994140625
reduce@1      r4  26  261  5120 30.344970703125
reduce@1      r5  25  249 17280 30.344970703125
reduce@1      r6  25  255   640 30.343994140625
reduce@1      r7  27  294  5120 30.343994140625
allgather     r0  30  562   768 33.6011962890625
allgather     r1  28  534  6144 33.6011962890625
allgather     r2  28  529 20736 33.6011962890625
allgather     r3  29  530   768 33.6011962890625
allgather     r4  29  520  6144 33.6011962890625
allgather     r5  28  508 20736 33.6011962890625
allgather     r6  28  514   768 33.6011962890625
allgather     r7  30  553  6144 33.6011962890625
gather@0      r0  30  562   896 36.8551025390625
gather@0      r1  29  571  7168 34.6383056640625
gather@0      r2  29  603 24192 35.709716796875
gather@0      r3  30  567   896 34.637451171875
gather@0      r4  30  668  7168 36.8551025390625
gather@0      r5  29  545 24192 34.640625
gather@0      r6  29  588   896 35.7105712890625
gather@0      r7  31  590  7168 34.6383056640625
gather@2      r0  31  636  1024 37.927490234375
gather@2      r1  30  608  8192 35.6754150390625
gather@2      r2  29  603 27648 39.072021484375
gather@2      r3  31  604  1024 35.6737060546875
gather@2      r4  31  742  8192 37.9283447265625
gather@2      r5  30  582 27648 35.6800537109375
gather@2      r6  30  736  1024 39.072021484375
gather@2      r7  32  627  8192 35.6754150390625
swap          r0  32  673  1152 38.9637451171875
swap          r1  31  645  9216 38.9637451171875
swap          r2  30  640 31104 40.1114501953125
swap          r3  32  641  1152 40.1114501953125
swap          r4  32  779  9216 38.9654541015625
swap          r5  31  619 31104 38.9654541015625
swap          r6  31  773  1152 40.1082763671875
swap          r7  33  664  9216 40.1082763671875
barrier       r0  35  673  1280 43.11474609375
barrier       r1  34  645 10240 43.11474609375
barrier       r2  33  640 34560 43.11474609375
barrier       r3  35  641  1280 43.11474609375
barrier       r4  35  779 10240 43.11474609375
barrier       r5  34  619 34560 43.11474609375
barrier       r6  34  773  1280 43.11474609375
barrier       r7  36  664 10240 43.11474609375
)");
}

}  // namespace
}  // namespace cacqr::rt
