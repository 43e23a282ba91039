/// \file test_end_to_end.cpp
/// \brief End-to-end scenarios: the high-level driver across awkward
///        shapes and conditionings, a least-squares pipeline, repeated
///        factorizations sharing a grid, and failure injection.

#include <gtest/gtest.h>

#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/core/factorize.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/qr.hpp"
#include "cacqr/lin/util.hpp"

namespace cacqr {
namespace {

using dist::DistMatrix;

TEST(EndToEndTest, ShapeSweepThroughDriver) {
  // A grid of awkward shapes x rank counts, all through factorize().
  struct Case {
    i64 m, n;
    int ranks;
  };
  for (const auto& tc :
       {Case{33, 5, 4}, Case{100, 1, 8}, Case{65, 64, 4}, Case{129, 17, 16},
        Case{57, 57, 8}, Case{500, 3, 2}}) {
    lin::Matrix a = lin::hashed_matrix(
        static_cast<u64>(tc.m * 1000 + tc.n * 10 + tc.ranks), tc.m, tc.n);
    rt::Runtime::run(tc.ranks, [&](rt::Comm& world) {
      auto res = core::factorize(a, world);
      if (world.rank() != 0) return;
      EXPECT_LT(lin::orthogonality_error(res.q), 1e-10)
          << tc.m << "x" << tc.n << " on " << tc.ranks;
      EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-10)
          << tc.m << "x" << tc.n << " on " << tc.ranks;
      EXPECT_TRUE(lin::is_upper_triangular(res.r));
    });
  }
}

TEST(EndToEndTest, LeastSquaresPipeline) {
  // Factor, solve, and check the normal equations -- the quickstart and
  // least_squares examples as an automated test.
  Rng rng(31415);
  const i64 m = 96, n = 10;
  lin::Matrix a = lin::with_cond(rng, m, n, 30.0);
  lin::Matrix x_true = lin::gaussian(rng, n, 1);
  lin::Matrix b(m, 1);
  lin::gemv(lin::Trans::N, 1.0, a, x_true, 0.0, b);

  rt::Runtime::run(8, [&](rt::Comm& world) {
    auto fact = core::factorize(a, world);
    if (world.rank() != 0) return;
    lin::Matrix qtb(n, 1);
    lin::gemv(lin::Trans::T, 1.0, fact.q, b, 0.0, qtb);
    lin::trsm(lin::Side::Left, lin::Uplo::Upper, lin::Trans::N,
              lin::Diag::NonUnit, 1.0, fact.r, qtb);
    EXPECT_LT(lin::max_abs_diff(qtb, x_true), 1e-9);
  });
}

TEST(EndToEndTest, RepeatedFactorizationsShareGrid) {
  // A long-lived grid servicing several factorizations (the library-use
  // pattern): no cross-talk between successive runs.
  const int c = 2, d = 2;
  rt::Runtime::run(c * c * d, [&](rt::Comm& world) {
    grid::TunableGrid g(world, c, d);
    for (u64 round = 0; round < 4; ++round) {
      lin::Matrix a = lin::hashed_matrix(round + 1, 16 + 16 * (round % 2), 8);
      auto da = DistMatrix::from_global_on_tunable(a, g);
      auto res = core::ca_cqr2(da, g);
      lin::Matrix q = gather(res.q, g.slice());
      lin::Matrix r = gather(res.r, g.subcube().slice());
      EXPECT_LT(lin::orthogonality_error(q), 1e-11) << "round " << round;
      EXPECT_LT(lin::residual_error(a, q, r), 1e-11) << "round " << round;
    }
  });
}

TEST(EndToEndTest, FailureInjectionRankDeficient) {
  // An exactly rank-deficient matrix: the Gram matrix is singular; the
  // driver must fail cleanly through the shifted path or report the
  // breakdown, never hang or return garbage silently.
  lin::Matrix a(24, 6);
  Rng rng(7);
  for (i64 i = 0; i < 24; ++i) {
    const double v = rng.normal();
    for (i64 j = 0; j < 6; ++j) a(i, j) = v * static_cast<double>(j + 1);
  }  // rank 1
  rt::Runtime::run(4, [&](rt::Comm& world) {
    try {
      auto res = core::factorize(a, world);
      // The shifted fallback may succeed numerically; if it does, the
      // factorization must still reconstruct A.
      EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-8);
      EXPECT_TRUE(res.used_shift);
    } catch (const NotSpdError&) {
      SUCCEED();  // clean, typed failure is acceptable for exact deficiency
    }
  });
}

TEST(EndToEndTest, ZeroMatrixFailsCleanly) {
  lin::Matrix a(16, 4);
  rt::Runtime::run(4, [&](rt::Comm& world) {
    grid::TunableGrid g(world, 1, 4);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    EXPECT_THROW((void)core::ca_cqr2(da, g), NotSpdError);
  });
}

TEST(EndToEndTest, DriverMatchesDirectApi) {
  // factorize() (padding path) and ca_cqr2 (exact path) agree when no
  // padding is needed.
  lin::Matrix a = lin::hashed_matrix(606, 32, 8);
  rt::Runtime::run(8, [&](rt::Comm& world) {
    auto via_driver = core::factorize(a, world, {.c = 2, .d = 2});
    grid::TunableGrid g(world, 2, 2);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto direct = core::ca_cqr2(da, g);
    lin::Matrix q = gather(direct.q, g.slice());
    EXPECT_LT(lin::max_abs_diff(via_driver.q, q), 1e-13);
  });
}

}  // namespace
}  // namespace cacqr
