/// \file test_mixed_precision.cpp
/// \brief The precision axis of the CholeskyQR drivers: fp64 stays the
///        bit-identical default, `mixed` recovers fp64-level orthogonality
///        on well-conditioned inputs via the fp64 correction pass, `fp32`
///        degrades gracefully, high condition numbers fall back to the
///        full-fp64 shifted CholeskyQR3, and every mode is bitwise
///        deterministic across thread budgets.

#include <gtest/gtest.h>

#include <cstring>
#include <span>

#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/core/cqr_1d.hpp"
#include "cacqr/core/factorize.hpp"
#include "cacqr/core/shifted.hpp"
#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/grid/grid.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/parallel.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/support/rng.hpp"

namespace cacqr::core {
namespace {

namespace parallel = lin::parallel;

struct BudgetGuard {
  int saved = parallel::thread_budget();
  ~BudgetGuard() { parallel::set_thread_budget(saved); }
};

TEST(MixedPrecisionTest, Fp64OptionIsTheBitIdenticalDefault) {
  rt::Runtime::run(4, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(91, 96, 16);
    const FactorizeResult def = factorize(a, world);
    const FactorizeResult f64 =
        factorize(a, world, {.precision = Precision::fp64});
    EXPECT_EQ(lin::max_abs_diff(def.q, f64.q), 0.0);
    EXPECT_EQ(lin::max_abs_diff(def.r, f64.r), 0.0);
  });
}

TEST(MixedPrecisionTest, MixedMeetsFp64TolerancesWhenWellConditioned) {
  // The headline claim: an fp32 first-pass Gram plus the fp64 second
  // pass (CholeskyQR2's correction sweep) lands at fp64-level
  // orthogonality and residual on well-conditioned inputs -- both on the
  // 1D family (c = 1 forces the cqr_1d Gram path) and on a c > 1 CA grid
  // (the gemm-form Gram assembly).
  struct Grid {
    int ranks;
    int c;
    int d;
  };
  for (const Grid g : {Grid{4, 1, 4}, Grid{8, 2, 2}}) {
    rt::Runtime::run(g.ranks, [&](rt::Comm& world) {
      const lin::Matrix a = lin::hashed_matrix(92, 160, 16);
      const FactorizeResult res = factorize(
          a, world, {.c = g.c, .d = g.d, .precision = Precision::mixed});
      EXPECT_FALSE(res.used_shift) << "c=" << g.c;
      EXPECT_LT(lin::orthogonality_error(res.q), 1e-12) << "c=" << g.c;
      EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-12) << "c=" << g.c;
      EXPECT_TRUE(lin::is_upper_triangular(res.r));
    });
  }
}

TEST(MixedPrecisionTest, MixedActuallyTakesTheFp32Lane) {
  // Guard against the precision knob silently degenerating to fp64: the
  // fp32 Gram rounds differently, so the factors cannot be bit-identical
  // to the fp64 run (they agree only to fp64-level tolerance, above).
  rt::Runtime::run(4, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(93, 128, 16);
    const FactorizeResult f64 = factorize(a, world);
    const FactorizeResult mixed =
        factorize(a, world, {.precision = Precision::mixed});
    EXPECT_GT(lin::max_abs_diff(f64.q, mixed.q), 0.0);
  });
}

TEST(MixedPrecisionTest, CaGramFp32LaneHalvesWordsOnTheSameMessages) {
  // ca_gram's fp32 lane runs the fp64 schedule on two floats per wire
  // word: every rank sends exactly the fp64 call's messages and, where
  // every payload holds an even number of floats, exactly half its words.
  // An odd shape rounds payloads up to whole words, so there only the
  // messages must agree.
  struct Case {
    int c;
    int d;
    i64 m;
    i64 n;
    bool even;
  };
  for (const Case k : {Case{1, 4, 256, 16, true}, Case{2, 2, 256, 32, true},
                       Case{2, 2, 250, 30, false}}) {
    const lin::Matrix a = lin::hashed_matrix(97, k.m, k.n);
    // Each rank's (msgs, words) spent inside ca_gram alone.
    auto charges = [&](Precision p) {
      return rt::Runtime::run_collect(k.c * k.c * k.d, [&](rt::Comm& world) {
               const grid::TunableGrid g(world, k.c, k.d);
               const dist::DistMatrix da =
                   dist::DistMatrix::from_global_on_tunable(a, g);
               const rt::CostCounters before = world.counters();
               (void)ca_gram(da, g, p);
               const rt::CostCounters spent = world.counters() - before;
               const double row[] = {static_cast<double>(spent.msgs),
                                     static_cast<double>(spent.words)};
               world.publish(row);
             }).published;
    };
    const auto f64 = charges(Precision::fp64);
    const auto mixed = charges(Precision::mixed);
    ASSERT_EQ(f64.size(), mixed.size());
    for (std::size_t r = 0; r < f64.size(); ++r) {
      EXPECT_GT(f64[r][0], 0.0) << "rank " << r << " c=" << k.c;
      EXPECT_EQ(mixed[r][0], f64[r][0]) << "rank " << r << " c=" << k.c;
      if (k.even) {
        EXPECT_EQ(2.0 * mixed[r][1], f64[r][1]) << "rank " << r
                                                << " c=" << k.c;
      }
    }
  }
}

TEST(MixedPrecisionTest, Fp32ModeDegradesGracefully) {
  // Both passes' Grams in fp32: orthogonality is fp32-level (not fp64),
  // but the residual stays fp64-level -- Q is produced by actually
  // applying the computed R1/R2 in fp64, so A ~= QR holds regardless of
  // how accurate the Gram was.
  rt::Runtime::run(4, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(94, 160, 16);
    const FactorizeResult res =
        factorize(a, world, {.precision = Precision::fp32});
    EXPECT_LT(lin::orthogonality_error(res.q), 1e-4);
    EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-12);
  });
}

TEST(MixedPrecisionTest, HighCondFallsBackToFp64ShiftedCqr3) {
  // kappa ~ 1e6: comfortably inside fp64 CholeskyQR2's range (kappa^2 ~
  // 1e12 << 1/eps64) but far beyond fp32's (kappa^2 >> 1/eps32 ~ 1.7e7),
  // so the fp32 Gram's Cholesky must break down and factorize must
  // rerun the FULL-fp64 shifted CholeskyQR3 -- same quality as the fp64
  // fallback path.
  Rng rng(95);
  const lin::Matrix a = lin::with_cond(rng, 64, 8, 1e6);
  rt::Runtime::run(4, [&](rt::Comm& world) {
    const FactorizeResult f64 = factorize(a, world);
    EXPECT_FALSE(f64.used_shift);  // fp64 handles this kappa directly
    const FactorizeResult mixed =
        factorize(a, world, {.precision = Precision::mixed});
    EXPECT_TRUE(mixed.used_shift);
    EXPECT_LT(lin::orthogonality_error(mixed.q), 1e-10);
    EXPECT_LT(lin::residual_error(a, mixed.q, mixed.r), 1e-9);
  });
}

TEST(MixedPrecisionTest, HighCondWithoutAutoShiftPropagates) {
  // Without factorize's fallback, mixed CA-CQR2 on the heuristic c = 1
  // grid surfaces the fp32 Gram's breakdown as NotSpdError.
  Rng rng(96);
  const lin::Matrix a = lin::with_cond(rng, 64, 8, 1e6);
  rt::Runtime::run(4, [&](rt::Comm& world) {
    const grid::TunableGrid g(world, 1, 4);
    const dist::DistMatrix da = dist::DistMatrix::from_global_on_tunable(a, g);
    EXPECT_THROW((void)ca_cqr2(da, g, {.precision = Precision::mixed}),
                 NotSpdError);
  });
}

TEST(MixedPrecisionTest, ThreePassIgnoresPrecision) {
  // The shifted CholeskyQR3 path is always full fp64; requesting mixed
  // must produce bit-identical factors to plain fp64.
  rt::Runtime::run(4, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(97, 64, 8);
    const grid::TunableGrid g(world, 1, 4);
    const dist::DistMatrix da = dist::DistMatrix::from_global_on_tunable(a, g);
    const CaCqrResult f64 = ca_cqr3(da, g);
    const CaCqrResult mixed = ca_cqr3(da, g, {.precision = Precision::mixed});
    EXPECT_EQ(lin::max_abs_diff(gather(f64.q, g.slice()),
                                gather(mixed.q, g.slice())),
              0.0);
    EXPECT_EQ(lin::max_abs_diff(gather(f64.r, g.subcube().slice()),
                                gather(mixed.r, g.subcube().slice())),
              0.0);
  });
}

TEST(MixedPrecisionTest, BitwiseDeterministicAcrossBudgetsAndOverlap) {
  BudgetGuard bguard;
  for (const Precision prec : {Precision::mixed, Precision::fp32}) {
    parallel::set_thread_budget(1);
    // Rank 0 publishes its reference factors (the body may execute in a
    // forked child, so captured writes would not reach this caller).
    const rt::RunOutput ref_run =
        rt::Runtime::run_collect(4, [&](rt::Comm& world) {
          const lin::Matrix a = lin::hashed_matrix(98, 128, 16);
          const FactorizeResult res =
              factorize(a, world, {.precision = prec});
          if (world.rank() == 0) {
            const double dims[] = {static_cast<double>(res.q.rows()),
                                   static_cast<double>(res.q.cols()),
                                   static_cast<double>(res.r.rows()),
                                   static_cast<double>(res.r.cols())};
            world.publish(dims);
            world.publish(std::span<const double>(
                res.q.data(), static_cast<std::size_t>(res.q.size())));
            world.publish(std::span<const double>(
                res.r.data(), static_cast<std::size_t>(res.r.size())));
          }
        });
    const std::vector<double>& blob = ref_run.published[0];
    ASSERT_GE(blob.size(), 4u);
    std::size_t off = 4;
    auto unpack = [&](i64 rows, i64 cols) {
      lin::Matrix m(rows, cols);
      std::memcpy(m.data(), blob.data() + off,
                  static_cast<std::size_t>(m.size()) * sizeof(double));
      off += static_cast<std::size_t>(m.size());
      return m;
    };
    const lin::Matrix ref_q = unpack(static_cast<i64>(blob[0]),
                                     static_cast<i64>(blob[1]));
    const lin::Matrix ref_r = unpack(static_cast<i64>(blob[2]),
                                     static_cast<i64>(blob[3]));
    for (const int budget : {1, 4}) {
      parallel::set_thread_budget(budget);
      rt::Runtime::run(4, [&](rt::Comm& world) {
        const lin::Matrix a = lin::hashed_matrix(98, 128, 16);
        const FactorizeResult res = factorize(a, world, {.precision = prec});
        EXPECT_EQ(lin::max_abs_diff(res.q, ref_q), 0.0)
            << precision_name(prec) << " t=" << budget;
        EXPECT_EQ(lin::max_abs_diff(res.r, ref_r), 0.0)
            << precision_name(prec) << " t=" << budget;
      });
    }
  }
}

TEST(MixedPrecisionTest, Cqr2_1dDirectMixedPass) {
  // The DistMatrix-level entry point: cqr2_1d's precision parameter maps
  // `mixed` onto the first pass only, and the result still meets fp64
  // tolerances.
  const int p = 4;
  rt::Runtime::run(p, [&](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(99, 64, 8);
    auto da = dist::DistMatrix::from_global(a, p, 1, world.rank(), 0);
    auto [q, r] = cqr2_1d(da, world, Precision::mixed);
    const lin::Matrix qg = gather(q, world);
    EXPECT_LT(lin::orthogonality_error(qg), 1e-12);
    EXPECT_LT(lin::residual_error(a, qg, r), 1e-12);
  });
}

}  // namespace
}  // namespace cacqr::core
