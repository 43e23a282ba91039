#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "cacqr/support/rng.hpp"
#include "cacqr/rt/comm.hpp"

namespace cacqr::rt {
namespace {

/// Deterministic per-rank payload so every rank can compute the expected
/// reduction/concatenation locally.
std::vector<double> payload(int rank, std::size_t n, u64 salt = 0) {
  std::vector<double> v(n);
  Rng rng(static_cast<u64>(rank) * 1315423911ULL + salt + 1);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, BcastDeliversRootData) {
  const int p = GetParam();
  for (const std::size_t n : {std::size_t{1}, std::size_t{17}, std::size_t{256}}) {
    for (const int root : {0, p - 1, p / 2}) {
      Runtime::run(p, [&](Comm& c) {
        std::vector<double> expect = payload(root, n, 11);
        std::vector<double> data = c.rank() == root
                                       ? expect
                                       : std::vector<double>(n, -999.0);
        c.bcast(data, root);
        EXPECT_EQ(data, expect) << "p=" << p << " n=" << n << " root=" << root;
      });
    }
  }
}

TEST_P(CollectiveSweep, AllreduceSumsEverywhere) {
  const int p = GetParam();
  for (const std::size_t n : {std::size_t{1}, std::size_t{13}, std::size_t{200}}) {
    std::vector<double> expect(n, 0.0);
    for (int r = 0; r < p; ++r) {
      auto v = payload(r, n, 22);
      for (std::size_t i = 0; i < n; ++i) expect[i] += v[i];
    }
    Runtime::run(p, [&](Comm& c) {
      std::vector<double> data = payload(c.rank(), n, 22);
      c.allreduce_sum(data);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(data[i], expect[i], 1e-12 * p) << "p=" << p << " n=" << n;
      }
    });
  }
}

TEST_P(CollectiveSweep, ReduceMatchesAllreduceOnRoot) {
  const int p = GetParam();
  const std::size_t n = 37;
  std::vector<double> expect(n, 0.0);
  for (int r = 0; r < p; ++r) {
    auto v = payload(r, n, 33);
    for (std::size_t i = 0; i < n; ++i) expect[i] += v[i];
  }
  Runtime::run(p, [&](Comm& c) {
    std::vector<double> data = payload(c.rank(), n, 33);
    c.reduce_sum(data, p - 1);
    if (c.rank() == p - 1) {
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(data[i], expect[i], 1e-12 * p);
      }
    }
  });
}

TEST_P(CollectiveSweep, AllgatherConcatenatesInRankOrder) {
  const int p = GetParam();
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
    Runtime::run(p, [&](Comm& c) {
      std::vector<double> mine = payload(c.rank(), n, 44);
      std::vector<double> all(n * static_cast<std::size_t>(p));
      c.allgather(mine, all);
      for (int r = 0; r < p; ++r) {
        auto expect = payload(r, n, 44);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(all[static_cast<std::size_t>(r) * n + i], expect[i])
              << "p=" << p << " r=" << r;
        }
      }
    });
  }
}

TEST_P(CollectiveSweep, BarrierCompletes) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& c) {
    for (int i = 0; i < 3; ++i) c.barrier();
  });
}

// Power-of-two and awkward non-power-of-two communicator sizes, including
// primes (exercises the fold paths of every collective).
INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 11, 16));

TEST(CollectiveTest, GatherOnTheRootEqualsAllgather) {
  // Every root, including those whose binomial subtrees wrap past the
  // last rank; the root receiving in place (its block already in `all`)
  // must read the same; empty payloads move nothing.
  for (const int p : {1, 2, 3, 4, 5, 8}) {
    for (int root = 0; root < p; ++root) {
      Runtime::run(p, [&](Comm& c) {
        const std::string cfg =
            "p=" + std::to_string(p) + " root=" + std::to_string(root);
        for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                                    std::size_t{64}}) {
          const std::vector<double> mine = payload(c.rank(), n, 55);
          std::vector<double> expect(n * static_cast<std::size_t>(p));
          c.allgather(mine, expect);
          std::vector<double> all(c.rank() == root ? expect.size() : 0,
                                  -999.0);
          c.gather(mine, all, root);
          if (c.rank() == root) {
            EXPECT_EQ(all, expect) << cfg << " n=" << n;
          }

          std::vector<double> in_place(expect.size(), -999.0);
          std::copy(mine.begin(), mine.end(),
                    in_place.begin() +
                        static_cast<std::ptrdiff_t>(n) * c.rank());
          const std::span<const double> slot{
              in_place.data() + n * static_cast<std::size_t>(c.rank()), n};
          c.gather(slot, c.rank() == root ? std::span<double>(in_place)
                                          : std::span<double>{},
                   root);
          if (c.rank() == root) {
            EXPECT_EQ(in_place, expect) << cfg << " in place n=" << n;
          }
        }
        std::vector<double> none;
        c.gather({}, none, root);
        EXPECT_TRUE(none.empty()) << cfg;
      });
    }
  }
}

TEST(CollectiveTest, BackToBackCollectivesDoNotCrossTalk) {
  // Same comm, same shapes, consecutive ops: sequence tags must keep the
  // butterfly stages of op k separate from op k+1.
  Runtime::run(4, [](Comm& c) {
    for (int round = 0; round < 10; ++round) {
      std::vector<double> v = {static_cast<double>(c.rank() + round)};
      c.allreduce_sum(v);
      const double expect = 4.0 * round + 0.0 + 1.0 + 2.0 + 3.0;
      EXPECT_DOUBLE_EQ(v[0], expect);
    }
  });
}

TEST(CollectiveTest, CollectivesOnSubCommunicators) {
  Runtime::run(8, [](Comm& c) {
    Comm sub = c.split(c.rank() % 2, c.rank());
    std::vector<double> v = {1.0};
    sub.allreduce_sum(v);
    EXPECT_DOUBLE_EQ(v[0], 4.0);
    // Broadcast on the sub-communicator from its last rank.
    std::vector<double> b = {sub.rank() == 3 ? 7.0 : 0.0};
    sub.bcast(b, 3);
    EXPECT_DOUBLE_EQ(b[0], 7.0);
  });
}

TEST(CollectiveTest, LargePayloadStress) {
  Runtime::run(4, [](Comm& c) {
    const std::size_t n = 1 << 15;
    std::vector<double> v(n, 1.0);
    c.allreduce_sum(v);
    for (std::size_t i = 0; i < n; i += 997) EXPECT_DOUBLE_EQ(v[i], 4.0);
  });
}

TEST(CollectiveTest, AllgatherSizeValidation) {
  EXPECT_THROW(Runtime::run(2,
                            [](Comm& c) {
                              std::vector<double> mine(3), all(5);
                              c.allgather(mine, all);
                            }),
               CommError);
}

TEST(CollectiveTest, GatherValidatesRootAndSize) {
  EXPECT_THROW(Runtime::run(2,
                            [](Comm& c) {
                              std::vector<double> mine(3), all(6);
                              c.gather(mine, all, 2);
                            }),
               CommError);
  EXPECT_THROW(Runtime::run(2,
                            [](Comm& c) {
                              std::vector<double> mine(3), all(5);
                              c.gather(mine, all, 0);
                            }),
               CommError);
}

TEST(CollectiveTest, WrongSizeMessageThrowsCommError) {
  // Mismatched bcast payload sizes: the non-root's scatter receive matches
  // a wrong-size message and throws, and the run surfaces that error.
  EXPECT_THROW(Runtime::run(2,
                            [](Comm& c) {
                              std::vector<double> v(c.rank() == 0 ? 8 : 6,
                                                    1.0);
                              c.bcast(v, 0);
                            }),
               CommError);
}

TEST(CollectiveTest, TrivialCallsReturnAtOnceAndChargeNothing) {
  // A P = 1 allreduce, an empty bcast and a self-swap run no
  // point-to-point step: nothing is sent, waited for or charged.
  const Machine m{1e-6, 1e-9, 1e-11};
  const auto expect_uncharged = [](const std::vector<CostCounters>& per_rank) {
    for (const CostCounters& t : per_rank) {
      EXPECT_EQ(t.msgs, 0);
      EXPECT_EQ(t.words, 0);
      EXPECT_EQ(t.flops, 0);
      EXPECT_EQ(t.time, 0.0);
    }
  };
  expect_uncharged(Runtime::run(
      1,
      [](Comm& c) {
        std::vector<double> v = {1.0};
        c.allreduce_sum(v);
        EXPECT_DOUBLE_EQ(v[0], 1.0);
      },
      m));
  expect_uncharged(Runtime::run(
      2,
      [](Comm& c) {
        std::vector<double> empty;
        c.bcast(empty, 0);
        std::vector<double> v = {static_cast<double>(c.rank())};
        c.sendrecv_swap(c.rank(), 3, v);
        EXPECT_DOUBLE_EQ(v[0], c.rank());
      },
      m));
}

TEST(CollectiveTest, MixedCollectiveSequence) {
  // A realistic CholeskyQR-like communication sequence on one comm.
  Runtime::run(8, [](Comm& c) {
    std::vector<double> g = {static_cast<double>(c.rank())};
    c.allreduce_sum(g);  // 0+..+7 = 28
    EXPECT_DOUBLE_EQ(g[0], 28.0);
    std::vector<double> b(4, c.rank() == 2 ? 3.0 : 0.0);
    c.bcast(b, 2);
    EXPECT_DOUBLE_EQ(b[3], 3.0);
    std::vector<double> mine = {g[0] + b[0]};
    std::vector<double> all(8);
    c.allgather(mine, all);
    for (const double x : all) EXPECT_DOUBLE_EQ(x, 31.0);
    c.barrier();
  });
}

}  // namespace
}  // namespace cacqr::rt
