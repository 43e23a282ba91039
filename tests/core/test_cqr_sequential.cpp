#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>

#include "cacqr/core/cqr.hpp"
#include "cacqr/core/shifted.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/flops.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/qr.hpp"
#include "cacqr/lin/util.hpp"

namespace cacqr::core {
namespace {

TEST(CqrTest, WellConditionedBasics) {
  Rng rng(1);
  lin::Matrix a = lin::gaussian(rng, 50, 10);
  auto [q, r] = cqr(a);
  EXPECT_TRUE(lin::is_upper_triangular(r));
  for (i64 i = 0; i < 10; ++i) EXPECT_GT(r(i, i), 0.0);
  EXPECT_LT(lin::orthogonality_error(q), 1e-12);
  EXPECT_LT(lin::residual_error(a, q, r), 1e-13);
}

TEST(CqrTest, MatchesHouseholderFactors) {
  // With positive diagonals both factorizations are the unique reduced QR.
  Rng rng(2);
  lin::Matrix a = lin::with_cond(rng, 40, 8, 100.0);
  auto chol_fact = cqr(a);
  auto hh = lin::householder_qr(a);
  EXPECT_LT(lin::max_abs_diff(chol_fact.r, hh.r),
            1e-9 * (1.0 + lin::max_abs(hh.r)));
  EXPECT_LT(lin::max_abs_diff(chol_fact.q, hh.q), 1e-9);
}

TEST(CqrTest, OrthogonalityDegradesAsKappaSquared) {
  // The classical CholeskyQR bound: ||Q^T Q - I|| ~ kappa^2 eps.
  Rng rng(3);
  lin::Matrix mild = lin::with_cond(rng, 100, 12, 1e2);
  lin::Matrix hard = lin::with_cond(rng, 100, 12, 1e6);
  const double e_mild = lin::orthogonality_error(cqr(mild).q);
  const double e_hard = lin::orthogonality_error(cqr(hard).q);
  // Four orders of magnitude in kappa -> ~eight orders in error; allow
  // generous slack but insist on strong growth.
  EXPECT_GT(e_hard, 1e4 * e_mild);
  // Residual stays small in both cases (backward stability of the solve).
  EXPECT_LT(lin::residual_error(mild, cqr(mild).q, cqr(mild).r), 1e-12);
  EXPECT_LT(lin::residual_error(hard, cqr(hard).q, cqr(hard).r), 1e-12);
}

TEST(CqrTest, BreaksDownPastInverseSqrtEps) {
  // kappa^2 eps >> 1: the Gram matrix is numerically indefinite.
  Rng rng(4);
  lin::Matrix a = lin::with_cond(rng, 80, 10, 1e13);
  EXPECT_THROW((void)cqr(a), NotSpdError);
}

TEST(Cqr2Test, RestoresOrthogonality) {
  // CholeskyQR2's whole point: kappa <~ eps^{-1/2} gives eps-level Q.
  Rng rng(5);
  for (const double kappa : {1e2, 1e4, 1e6}) {
    lin::Matrix a = lin::with_cond(rng, 100, 12, kappa);
    auto [q, r] = cqr2(a);
    EXPECT_LT(lin::orthogonality_error(q), 1e-13) << "kappa=" << kappa;
    EXPECT_LT(lin::residual_error(a, q, r), 1e-12) << "kappa=" << kappa;
  }
}

TEST(Cqr2Test, MatchesHouseholderAccuracy) {
  Rng rng(6);
  lin::Matrix a = lin::with_cond(rng, 120, 16, 1e5);
  auto chol2 = cqr2(a);
  auto hh = lin::householder_qr(a);
  const double e_chol = lin::orthogonality_error(chol2.q);
  const double e_hh = lin::orthogonality_error(hh.q);
  EXPECT_LT(e_chol, 10.0 * e_hh + 1e-14);
}

TEST(Cqr2Test, RequiresTall) {
  lin::Matrix a(3, 5);
  EXPECT_THROW((void)cqr2(a), DimensionError);
}

TEST(ShiftedCqr3Test, SurvivesExtremeConditioning) {
  // kappa ~ 1e13: CQR2 breaks down, shifted CQR3 matches Householder.
  // Whether a Gram this far past 1/eps comes out indefinite depends on
  // its rounding: of 100 such 100 x 10 draws about 80% break down at
  // kappa 1e10 and 99-100 at 1e13, in every kernel variant, with and
  // without FMA contraction, so the test sits where breakdown does not
  // hinge on the summation order.
  Rng rng(7);
  lin::Matrix a = lin::with_cond(rng, 100, 10, 1e13);
  EXPECT_THROW((void)cqr2(a), NotSpdError);
  auto [q, r] = shifted_cqr3(a);
  EXPECT_LT(lin::orthogonality_error(q), 1e-12);
  EXPECT_LT(lin::residual_error(a, q, r), 1e-11);
}

TEST(ShiftedCqr3Test, WellConditionedStillExact) {
  Rng rng(8);
  lin::Matrix a = lin::gaussian(rng, 60, 8);
  auto [q, r] = shifted_cqr3(a);
  EXPECT_LT(lin::orthogonality_error(q), 1e-13);
  EXPECT_LT(lin::residual_error(a, q, r), 1e-12);
}

TEST(ShiftedCqr3Test, ShiftFormula) {
  // s = 11 (mn + n(n+1)) eps ||A||^2.
  const double s = recommended_shift(100, 10, 4.0);
  EXPECT_NEAR(s, 11.0 * (1000.0 + 110.0) * DBL_EPSILON * 4.0, 1e-18);
}

TEST(Cqr2Test, FlopCountNearPaperFormula) {
  // The paper charges CQR2 4mn^2 + (5/3)n^3 critical-path flops.
  const i64 m = 200, n = 16;
  Rng rng(9);
  lin::Matrix a = lin::gaussian(rng, m, n);
  lin::flops::reset();
  (void)cqr2(a);
  const double measured = static_cast<double>(lin::flops::take());
  const double predicted =
      4.0 * static_cast<double>(m) * static_cast<double>(n * n) +
      5.0 / 3.0 * static_cast<double>(n * n * n);
  EXPECT_NEAR(measured / predicted, 1.0, 0.15);
}

}  // namespace
}  // namespace cacqr::core
