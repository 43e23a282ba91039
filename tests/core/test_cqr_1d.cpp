#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cacqr/core/batched.hpp"
#include "cacqr/core/cqr.hpp"
#include "cacqr/core/cqr_1d.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/support/math.hpp"
#include "cacqr/support/rng.hpp"

namespace cacqr::core {
namespace {

using dist::DistMatrix;

class Cqr1dSweep : public ::testing::TestWithParam<int> {};

TEST_P(Cqr1dSweep, MatchesSequentialCqr2) {
  const int p = GetParam();
  const i64 m = 16 * p;
  const i64 n = 8;
  rt::Runtime::run(p, [&](rt::Comm& world) {
    lin::Matrix a = lin::hashed_matrix(61, m, n);
    auto da = DistMatrix::from_global(a, p, 1, world.rank(), 0);

    auto [q, r] = cqr2_1d(da, world);

    auto seq = cqr2(a);
    EXPECT_LT(lin::max_abs_diff(r, seq.r), 1e-10 * (1.0 + lin::max_abs(seq.r)))
        << "p=" << p;
    // Q is row-distributed: check the local rows against the sequential Q.
    for (i64 lj = 0; lj < n; ++lj) {
      for (i64 li = 0; li < q.layout().local_rows(); ++li) {
        EXPECT_NEAR(q.local()(li, lj), seq.q(q.layout().global_row(li), lj),
                    1e-10)
            << "p=" << p;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, Cqr1dSweep, ::testing::Values(1, 2, 4, 8));

struct OverlapGuard {
  bool saved = rt::overlap_enabled();
  ~OverlapGuard() { rt::set_overlap_enabled(saved); }
};

bool same_bytes(const lin::Matrix& x, const lin::Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), sizeof(double) * x.size()) == 0;
}

TEST(Cqr1dTest, DirectCallsMatchTheirBatchedItemBytewise) {
  // cqr_1d / cqr2_1d on a pre-distributed panel and the same panel as an
  // item of factorize_batched (m a multiple of P, so nothing is padded)
  // must agree byte for byte.  n = 7 gives the fp32 wire an odd tail.
  const OverlapGuard guard;
  for (const int p : {2, 4}) {
    for (const int passes : {1, 2}) {
      for (const bool overlap : {false, true}) {
        for (const Precision precision :
             {Precision::fp64, Precision::mixed, Precision::fp32}) {
          rt::set_overlap_enabled(overlap);
          const std::string cfg =
              "p=" + std::to_string(p) + " passes=" + std::to_string(passes) +
              " overlap=" + std::to_string(overlap) +
              " precision=" + std::string(precision_name(precision));
          rt::Runtime::run(p, [&](rt::Comm& world) {
            const lin::Matrix a0 = lin::hashed_matrix(65, 24 * p, 8);
            const lin::Matrix a1 = lin::hashed_matrix(66, 16 * p, 7);
            const lin::ConstMatrixView panels[2] = {a0, a1};
            const std::vector<BatchedItem> batch = factorize_batched(
                panels, world, {.passes = passes, .precision = precision});
            for (int i = 0; i < 2; ++i) {
              auto da =
                  DistMatrix::from_global(panels[i], p, 1, world.rank(), 0);
              const Cqr1dResult res = passes == 1
                                          ? cqr_1d(da, world, precision)
                                          : cqr2_1d(da, world, precision);
              EXPECT_TRUE(batch[i].ok) << cfg;
              EXPECT_TRUE(same_bytes(gather(res.q, world), batch[i].q))
                  << cfg << " panel " << i;
              EXPECT_TRUE(same_bytes(res.r, batch[i].r))
                  << cfg << " panel " << i;
            }
          });
        }
      }
    }
  }
}

TEST(Cqr1dTest, BreakdownThrowsTheSamePivotOnEveryRank) {
  // kappa 1e11 squares past 1/eps in the Gram, and this panel (the one
  // tests/serve/test_batched.cpp breaks its batch with) fails its
  // Cholesky.  The input is the replicated Allreduce sum, so every rank
  // must throw NotSpdError at the same pivot.
  const int p = 4;
  Rng rng(208);
  const lin::Matrix a = lin::with_cond(rng, 64, 8, 1e11);
  for (const int passes : {1, 2}) {
    rt::Runtime::run(p, [&](rt::Comm& world) {
      auto da = DistMatrix::from_global(a, p, 1, world.rank(), 0);
      std::vector<double> pivot = {-1.0};
      try {
        (void)(passes == 1 ? cqr_1d(da, world) : cqr2_1d(da, world));
      } catch (const NotSpdError& e) {
        pivot[0] = static_cast<double>(e.pivot);
      }
      EXPECT_GE(pivot[0], 0.0) << "passes=" << passes;
      std::vector<double> all(p);
      world.allgather(pivot, all);
      for (int rk = 1; rk < p; ++rk) {
        EXPECT_EQ(all[rk], all[0]) << "passes=" << passes << " rank " << rk;
      }
    });
  }
}

TEST(Cqr1dTest, SinglePassInvariants) {
  const int p = 4;
  rt::Runtime::run(p, [&](rt::Comm& world) {
    lin::Matrix a = lin::hashed_matrix(62, 32, 6);
    auto da = DistMatrix::from_global(a, p, 1, world.rank(), 0);
    auto [q, r] = cqr_1d(da, world);
    EXPECT_TRUE(lin::is_upper_triangular(r));
    lin::Matrix qg = gather(q, world);
    EXPECT_LT(lin::orthogonality_error(qg), 1e-12);
    EXPECT_LT(lin::residual_error(a, qg, r), 1e-13);
  });
}

TEST(Cqr1dTest, RReplicatedOnEveryRank) {
  const int p = 4;
  rt::Runtime::run(p, [&](rt::Comm& world) {
    lin::Matrix a = lin::hashed_matrix(63, 16, 4);
    auto da = DistMatrix::from_global(a, p, 1, world.rank(), 0);
    auto res = cqr2_1d(da, world);
    // Allgather every rank's R and compare bitwise: the redundant
    // factorizations must agree exactly (identical reduced Gram inputs).
    std::vector<double> mine(res.r.data(), res.r.data() + res.r.size());
    std::vector<double> all(mine.size() * p);
    world.allgather(mine, all);
    for (int rk = 1; rk < p; ++rk) {
      for (std::size_t i = 0; i < mine.size(); ++i) {
        EXPECT_EQ(all[rk * mine.size() + i], all[i]);
      }
    }
  });
}

TEST(Cqr1dTest, LayoutValidation) {
  rt::Runtime::run(4, [](rt::Comm& world) {
    // Wrong row_procs.
    DistMatrix bad(16, 4, 2, 1, world.rank() % 2, 0);
    EXPECT_THROW((void)cqr_1d(bad, world), DimensionError);
  });
}

TEST(Cqr1dCostTest, AllreduceDominatedCommunication) {
  // Table I, 1D-CQR: alpha ~ log P, beta ~ n^2 -- independent of m.
  const int p = 8;
  const i64 n = 8;
  for (const i64 m : {i64{64}, i64{256}}) {
    auto per_rank = rt::Runtime::run(p, [&](rt::Comm& world) {
      lin::Matrix a = lin::hashed_matrix(64, m, n);
      auto da = DistMatrix::from_global(a, p, 1, world.rank(), 0);
      (void)cqr2_1d(da, world);
    });
    const auto mc = rt::max_counters(per_rank);
    // Two allreduces of n^2 words: beta <= 2 * 2n^2, alpha = 2 * 2 lg P.
    EXPECT_EQ(mc.msgs, 2 * 2 * ceil_log2(p));
    EXPECT_LE(mc.words, 4 * n * n);
    EXPECT_GT(mc.words, 2 * n * n);
  }
}

}  // namespace
}  // namespace cacqr::core
