#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cacqr/core/factorize.hpp"
#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/qr.hpp"
#include "cacqr/lin/util.hpp"

namespace cacqr::core {
namespace {

TEST(ChooseGridTest, PicksValidShapes) {
  for (const int p : {1, 2, 4, 8, 16, 27, 32, 64, 100}) {
    for (const auto& [m, n] : {std::pair<i64, i64>{1 << 20, 1 << 5},
                               {1 << 12, 1 << 10}, {1 << 8, 1 << 8}}) {
      const auto [c, d] = choose_grid(p, m, n);
      EXPECT_TRUE(grid::TunableGrid::valid_shape(p, c, d))
          << "p=" << p << " m=" << m << " n=" << n << " -> c=" << c
          << " d=" << d;
    }
  }
}

TEST(ChooseGridTest, TallSkinnyPrefersSmallC) {
  // Extremely overdetermined: the 1D layout is optimal.
  const auto [c, d] = choose_grid(64, i64{1} << 26, 64);
  EXPECT_EQ(c, 1);
  EXPECT_EQ(d, 64);
}

TEST(ChooseGridTest, SquarePrefersFullCube) {
  const auto [c, d] = choose_grid(64, 4096, 4096);
  EXPECT_EQ(c, 4);
  EXPECT_EQ(d, 4);
}

TEST(FactorizeTest, ExactDivisibleShape) {
  rt::Runtime::run(8, [](rt::Comm& world) {
    lin::Matrix a = lin::hashed_matrix(81, 32, 8);
    auto res = factorize(a, world, {.c = 2, .d = 2});
    EXPECT_EQ(res.plan.c, 2);
    EXPECT_EQ(res.plan.d, 2);
    EXPECT_FALSE(res.used_shift);
    EXPECT_LT(lin::orthogonality_error(res.q), 1e-11);
    EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-12);
    EXPECT_TRUE(lin::is_upper_triangular(res.r));
  });
}

TEST(FactorizeTest, UnpaddedCallIsItsPublicSteps) {
  // The repository benchmark's per-layer run replays factorize as these
  // public calls and checks their summed msgs/words/flops against one
  // real call.  On shapes that need no padding (the view and move paths;
  // AwkwardShapesArePadded covers the copying one), factorize must
  // return the composed factors bit for bit and charge each rank exactly
  // what the steps charged.
  struct Case {
    int p;
    i64 m, n;
    int c, d;  ///< 0, 0: the heuristic grid
  };
  for (const Case& k : {Case{4, 256, 16, 0, 0}, Case{8, 128, 32, 2, 2}}) {
    const lin::Matrix a = lin::hashed_matrix(90, k.m, k.n);
    rt::Runtime::run(k.p, [&](rt::Comm& world) {
      const FactorizeOptions opts{.c = k.c, .d = k.d};
      const auto [c, d] = k.c != 0 ? std::pair{k.c, k.d}
                                   : choose_grid(k.p, k.m, k.n);
      const rt::CostCounters c0 = world.counters();
      const grid::TunableGrid g(world, c, d);
      const dist::DistMatrix da =
          dist::DistMatrix::from_global_on_tunable(a, g);
      const CaCqrResult fact = ca_cqr2(da, g, {.precision = opts.precision});
      const lin::Matrix q_full = dist::gather(fact.q, g.slice());
      const lin::Matrix r_full = dist::gather(fact.r, g.subcube().slice());
      const lin::Matrix q = lin::materialize(q_full.sub(0, 0, k.m, k.n));
      const lin::Matrix r = lin::materialize(r_full.sub(0, 0, k.n, k.n));
      const rt::CostCounters steps = world.counters() - c0;

      const rt::CostCounters c1 = world.counters();
      const FactorizeResult res = factorize(a, world, opts);
      const rt::CostCounters call = world.counters() - c1;
      EXPECT_EQ(res.plan.c, c);
      EXPECT_EQ(res.plan.d, d);
      EXPECT_EQ(c, k.p == 4 ? 1 : 2);
      ASSERT_EQ(res.q.rows(), k.m);
      ASSERT_EQ(res.q.cols(), k.n);
      ASSERT_EQ(res.r.rows(), k.n);
      const auto bytes = [](const lin::Matrix& x) {
        return static_cast<std::size_t>(x.size()) * sizeof(double);
      };
      EXPECT_EQ(std::memcmp(res.q.data(), q.data(), bytes(q)), 0)
          << "p=" << k.p;
      EXPECT_EQ(std::memcmp(res.r.data(), r.data(), bytes(r)), 0)
          << "p=" << k.p;
      EXPECT_EQ(call.msgs, steps.msgs) << "p=" << k.p;
      EXPECT_EQ(call.words, steps.words) << "p=" << k.p;
      EXPECT_EQ(call.flops, steps.flops) << "p=" << k.p;
    });
  }
}

TEST(FactorizeTest, AwkwardShapesArePadded) {
  // Dimensions with no relation to the grid: 37 x 5 on P = 8 and 16.
  for (const int p : {8, 16}) {
    rt::Runtime::run(p, [&](rt::Comm& world) {
      lin::Matrix a = lin::hashed_matrix(82, 37, 5);
      auto res = factorize(a, world);
      EXPECT_EQ(res.q.rows(), 37);
      EXPECT_EQ(res.q.cols(), 5);
      EXPECT_EQ(res.r.rows(), 5);
      EXPECT_LT(lin::orthogonality_error(res.q), 1e-11) << "p=" << p;
      EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-11) << "p=" << p;
    });
  }
}

TEST(FactorizeTest, PrimeDimensions) {
  rt::Runtime::run(4, [](rt::Comm& world) {
    lin::Matrix a = lin::hashed_matrix(83, 101, 13);
    auto res = factorize(a, world);
    EXPECT_LT(lin::orthogonality_error(res.q), 1e-11);
    EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-11);
  });
}

TEST(FactorizeTest, MatchesHouseholder) {
  rt::Runtime::run(8, [](rt::Comm& world) {
    lin::Matrix a = lin::hashed_matrix(84, 50, 10);
    auto res = factorize(a, world);
    auto hh = lin::householder_qr(a);
    EXPECT_LT(lin::max_abs_diff(res.r, hh.r),
              1e-9 * (1.0 + lin::max_abs(hh.r)));
    EXPECT_LT(lin::max_abs_diff(res.q, hh.q), 1e-9);
  });
}

TEST(FactorizeTest, AutoShiftFallback) {
  Rng rng(86);
  lin::Matrix a = lin::with_cond(rng, 32, 8, 1e13);
  rt::Runtime::run(4, [&](rt::Comm& world) {
    auto res = factorize(a, world);
    EXPECT_TRUE(res.used_shift);
    EXPECT_LT(lin::orthogonality_error(res.q), 1e-10);
    EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-9);
  });
}

TEST(FactorizeTest, AccuracyAndFallbackAcrossKappa) {
  // The numerical contract (DESIGN.md section 9) swept over kappa: Q and
  // R at fp64 level everywhere, CholeskyQR2 alone while the Gram's
  // kappa^2 sits well inside the first pass's precision, and the shifted
  // CholeskyQR3 fallback well past it.  The boundary decades between
  // (fp64 at 1e8 and 1e10, mixed at 1e4) may go either way: accuracy
  // only there.  At 1e10 the fp64 Gram is numerically singular, but
  // whether a pivot goes negative is rounding: built without
  // -march=native, the 4-rank seed-1 panel survives both passes there.
  // At 1e14 the fallback reaches the end of its own range: its shifted
  // pass leaves kappa(Q1) ~ kappa sqrt(11 (mn + n(n+1)) eps) ~ 3e8 at
  // 256x16, past the eps^-1/2 its unshifted passes take, so on some
  // builds and kernel variants a panel fails there -- typed, never with
  // garbage.
  struct Grid {
    int p, c, d;  ///< c = d = 0: the heuristic grid, c = 1 for 256x16
  };
  const double kappas[] = {1e2, 1e4, 1e6, 1e8, 1e10, 1e12, 1e14};
  for (const Grid g : {Grid{4, 0, 0}, Grid{8, 2, 2}}) {
    for (const Precision precision : {Precision::fp64, Precision::mixed}) {
      const bool fp64 = precision == Precision::fp64;
      const double no_shift_up_to = fp64 ? 1e6 : 1e2;
      const double shift_from = fp64 ? 1e12 : 1e6;
      rt::Runtime::run(g.p, [&](rt::Comm& world) {
        for (const double kappa : kappas) {
          for (u64 seed = 1; seed <= 3; ++seed) {
            Rng rng(seed);
            const lin::Matrix a = lin::with_cond(rng, 256, 16, kappa);
            const std::string at =
                "p=" + std::to_string(g.p) + " " + precision_name(precision) +
                " kappa=" + std::to_string(kappa) +
                " seed=" + std::to_string(seed);
            FactorizeResult res;
            try {
              res = factorize(a, world,
                              {.c = g.c, .d = g.d, .precision = precision});
            } catch (const NotSpdError&) {
              EXPECT_GE(kappa, 1e14) << at;
              continue;
            }
            EXPECT_EQ(res.plan.c, g.c == 0 ? 1 : g.c) << at;
            EXPECT_LE(lin::orthogonality_error(res.q), 1e-13) << at;
            EXPECT_LE(lin::residual_error(a, res.q, res.r), 1e-13) << at;
            if (kappa <= no_shift_up_to) {
              EXPECT_FALSE(res.used_shift) << at;
            }
            if (kappa >= shift_from) {
              EXPECT_TRUE(res.used_shift) << at;
            }
          }
        }
      });
    }
  }
}

TEST(FactorizeTest, WideMatrixRejected) {
  rt::Runtime::run(2, [](rt::Comm& world) {
    lin::Matrix a(4, 8);
    EXPECT_THROW((void)factorize(a, world), DimensionError);
  });
}

TEST(FactorizeTest, NonFiniteInputFailsFastWithoutShiftedRetry) {
  // One NaN or Inf makes a Cholesky pivot non-finite.  No shift repairs
  // that, so factorize must not retry: the call throws NonFiniteError
  // and charges each rank exactly what CholeskyQR2 charges up to the
  // failing pivot, with no shifted pass on top.  The literals pin those
  // charges per rank.
  struct Grid {
    int p, c, d;
    std::vector<rt::CostCounters> charge;  ///< per rank: msgs, words, flops
  };
  const Grid grids[] = {
      {4, 1, 4, std::vector<rt::CostCounters>(4, {18, 6186, 2129920})},
      {8, 2, 2,
       {{41, 35162, 2097152}, {40, 18778, 2097152}, {40, 34650, 2097152},
        {39, 18266, 2097152}, {39, 18266, 2097152}, {40, 34650, 2097152},
        {40, 18778, 2097152}, {41, 35162, 2097152}}},
  };
  for (const double bad :
       {std::nan(""), std::numeric_limits<double>::infinity()}) {
    lin::Matrix a = lin::hashed_matrix(90, 2048, 64);
    a(100, 5) = bad;
    for (const Grid& g : grids) {
      const std::string cfg = "value=" + std::to_string(bad) +
                              " c=" + std::to_string(g.c);
      const std::vector<rt::CostCounters> charged =
          rt::Runtime::run(g.p, [&](rt::Comm& world) {
            EXPECT_THROW((void)factorize(a, world, {.c = g.c, .d = g.d}),
                         NonFiniteError)
                << cfg;
          });
      ASSERT_EQ(charged.size(), g.charge.size()) << cfg;
      for (int r = 0; r < g.p; ++r) {
        EXPECT_EQ(charged[r].msgs, g.charge[r].msgs) << cfg << " rank " << r;
        EXPECT_EQ(charged[r].words, g.charge[r].words) << cfg << " rank " << r;
        EXPECT_EQ(charged[r].flops, g.charge[r].flops) << cfg << " rank " << r;
      }
    }
  }
}

TEST(FactorizeTest, SingleRankWorks) {
  rt::Runtime::run(1, [](rt::Comm& world) {
    lin::Matrix a = lin::hashed_matrix(89, 20, 7);
    auto res = factorize(a, world);
    EXPECT_EQ(res.plan.c, 1);
    EXPECT_EQ(res.plan.d, 1);
    EXPECT_LT(lin::orthogonality_error(res.q), 1e-12);
  });
}

}  // namespace
}  // namespace cacqr::core
