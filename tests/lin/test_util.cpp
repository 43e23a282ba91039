#include <gtest/gtest.h>

#include <cmath>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/qr.hpp"
#include "cacqr/lin/util.hpp"

namespace cacqr::lin {
namespace {

TEST(UtilTest, CopyRespectsStrides) {
  Rng rng(1);
  Matrix a = gaussian(rng, 6, 6);
  Matrix b(3, 3);
  copy(a.sub(1, 1, 3, 3), b);
  for (i64 j = 0; j < 3; ++j) {
    for (i64 i = 0; i < 3; ++i) EXPECT_EQ(b(i, j), a(i + 1, j + 1));
  }
}

TEST(UtilTest, SetAll) {
  Matrix a(3, 4);
  set_all(a, -1.0, 2.0);
  for (i64 j = 0; j < 4; ++j) {
    for (i64 i = 0; i < 3; ++i) {
      EXPECT_EQ(a(i, j), i == j ? 2.0 : -1.0);
    }
  }
}

TEST(UtilTest, TransposedAndInplaceAgree) {
  Rng rng(2);
  Matrix a = gaussian(rng, 5, 5);
  Matrix t = transposed(a);
  Matrix b = materialize(a.view());
  transpose_inplace(b);
  EXPECT_EQ(t, b);
  // Double transpose is identity.
  transpose_inplace(b);
  EXPECT_EQ(a, b);
}

TEST(UtilTest, TransposeRectangular) {
  Matrix a(2, 3);
  a(0, 2) = 5.0;
  a(1, 0) = -2.0;
  Matrix t = transposed(a);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_EQ(t(2, 0), 5.0);
  EXPECT_EQ(t(0, 1), -2.0);
}

TEST(UtilTest, FrobNorm) {
  Matrix a(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(frob_norm(a), 5.0);
}

TEST(UtilTest, MaxAbsDiff) {
  Matrix a(2, 2), b(2, 2);
  b(1, 0) = -0.5;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
  EXPECT_DOUBLE_EQ(max_abs(b), 0.5);
}

TEST(UtilTest, MaxAbsAndMaxAbsDiffPropagateNaN) {
  // A NaN anywhere must surface, so no `max_abs_diff(...) == 0.0` or
  // `< tol` check can pass on a NaN result.  Each entry position is
  // tried, ahead of and behind larger finite values.
  for (i64 k = 0; k < 4; ++k) {
    Matrix a(2, 2), b(2, 2);
    a(0, 0) = 3.0;
    b(1, 1) = -2.0;
    Matrix nan_a = materialize(a.view());
    Matrix nan_b = materialize(b.view());
    nan_a(k % 2, k / 2) = std::nan("");
    nan_b(k % 2, k / 2) = std::nan("");
    EXPECT_TRUE(std::isnan(max_abs(nan_a))) << k;
    EXPECT_TRUE(std::isnan(max_abs_diff(nan_a, b))) << k;
    EXPECT_TRUE(std::isnan(max_abs_diff(a, nan_b))) << k;
    EXPECT_TRUE(std::isnan(max_abs_diff(nan_a, nan_a))) << k;
  }
  Matrix inf(1, 1);
  inf(0, 0) = INFINITY;
  EXPECT_TRUE(std::isnan(max_abs_diff(inf, inf)));
  EXPECT_EQ(max_abs(inf), INFINITY);
}

TEST(UtilTest, OrthogonalityErrorOfExactQ) {
  EXPECT_LT(orthogonality_error(Matrix::identity(5)), 1e-15);
  Rng rng(3);
  Matrix q = random_orthogonal(rng, 12);
  EXPECT_LT(orthogonality_error(q), 1e-13);
  // Breaking a column doubles... breaks it measurably.
  q(0, 0) += 0.1;
  EXPECT_GT(orthogonality_error(q), 0.05);
}

TEST(UtilTest, IsUpperTriangular) {
  Matrix r(3, 3);
  r(0, 1) = 1.0;
  EXPECT_TRUE(is_upper_triangular(r));
  r(2, 0) = 1e-30;
  EXPECT_FALSE(is_upper_triangular(r));
}

TEST(UtilTest, Cond2EstimateMatchesConstruction) {
  Rng rng(4);
  for (const double kappa : {1.0, 10.0, 1e4, 1e8}) {
    Matrix a = with_cond(rng, 80, 10, kappa);
    const double est = cond2_estimate(a);
    EXPECT_GT(est, 0.5 * kappa) << "kappa=" << kappa;
    EXPECT_LT(est, 2.0 * kappa) << "kappa=" << kappa;
  }
}

}  // namespace
}  // namespace cacqr::lin
