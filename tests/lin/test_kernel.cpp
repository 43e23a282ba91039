/// \file test_kernel.cpp
/// \brief Direct tests of the packed micro-kernel driver (kernel.hpp):
///        all four transpose cases, triangle tile filters, awkward shapes
///        around the MR/NR/MC/KC block boundaries, strided sub-views, and
///        exact results for every supported variant at both precisions.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "cacqr/lin/blas_f.hpp"
#include "cacqr/lin/flops.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/util.hpp"

namespace cacqr::lin {
namespace {

/// Reference accumulate: C += alpha * op(A) * op(B).
Matrix naive_accumulate(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                        ConstMatrixView b, ConstMatrixView c0) {
  const i64 m = c0.rows;
  const i64 n = c0.cols;
  const i64 k = ta == Trans::N ? a.cols : a.rows;
  Matrix c = materialize(c0);
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = 0; i < m; ++i) {
      double acc = 0.0;
      for (i64 kk = 0; kk < k; ++kk) {
        const double av = ta == Trans::N ? a(i, kk) : a(kk, i);
        const double bv = tb == Trans::N ? b(kk, j) : b(j, kk);
        acc += av * bv;
      }
      c(i, j) += alpha * acc;
    }
  }
  return c;
}

using AccumParam = std::tuple<int, int, int, int, int>;  // m, n, k, ta, tb

class KernelAccumulateSweep : public ::testing::TestWithParam<AccumParam> {};

TEST_P(KernelAccumulateSweep, MatchesNaive) {
  const auto [m, n, k, tai, tbi] = GetParam();
  const Trans ta = tai ? Trans::T : Trans::N;
  const Trans tb = tbi ? Trans::T : Trans::N;
  Rng rng(static_cast<u64>(7000 + 977 * m + 83 * n + 11 * k + 2 * tai + tbi));
  Matrix a = gaussian(rng, ta == Trans::N ? m : k, ta == Trans::N ? k : m);
  Matrix b = gaussian(rng, tb == Trans::N ? k : n, tb == Trans::N ? n : k);
  Matrix c = gaussian(rng, m, n);
  Matrix expect = naive_accumulate(ta, tb, 1.5, a, b, c);
  kernel::gemm_accumulate(ta, tb, 1.5, a, b, c);
  EXPECT_LT(max_abs_diff(c, expect), 1e-11 * (1.0 + max_abs(expect)))
      << "m=" << m << " n=" << n << " k=" << k << " ta=" << tai
      << " tb=" << tbi;
}

// Shapes chosen to hit every packing edge: below/at/above MR (8) and NR
// (6), straddling MC (144) and KC (256), and one NC-scale column count.
INSTANTIATE_TEST_SUITE_P(
    BlockEdges, KernelAccumulateSweep,
    ::testing::Values(
        AccumParam{1, 1, 1, 0, 0}, AccumParam{8, 6, 16, 0, 0},
        AccumParam{7, 5, 9, 0, 0}, AccumParam{9, 7, 300, 0, 0},
        AccumParam{17, 13, 257, 1, 0}, AccumParam{145, 7, 13, 1, 0},
        AccumParam{143, 149, 255, 0, 1}, AccumParam{16, 300, 16, 0, 1},
        AccumParam{151, 11, 259, 1, 1}, AccumParam{30, 42, 70, 1, 1}));

/// Entries drawn from {-4, ..., 4}: with k <= 385 every partial sum of
/// op(A) * op(B) (and C - 2 * that) stays far below 2^24, so it is exact
/// in fp32 as well as fp64, whatever the summation order.
Matrix small_int_matrix(Rng& rng, i64 m, i64 n) {
  Matrix a(m, n);
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = 0; i < m; ++i) {
      a(i, j) = static_cast<double>(static_cast<int>(rng.next_u64() % 9) - 4);
    }
  }
  return a;
}

/// Restores the entry micro-kernel variant on scope exit.
struct VariantGuard {
  kernel::Variant saved = kernel::active_variant();
  ~VariantGuard() { kernel::set_kernel_variant(saved); }
};

using ExactParam = std::tuple<kernel::Variant, bool, int, int>;  // fp32, ta, tb

class KernelExactSweep : public ::testing::TestWithParam<ExactParam> {};

/// No rounding happens on small-integer data, so every variant's tile,
/// packing and blocking must reproduce the integer reference exactly, at
/// both precisions.
TEST_P(KernelExactSweep, MatchesIntegerReference) {
  const auto [variant, fp32, tai, tbi] = GetParam();
  const Trans ta = tai ? Trans::T : Trans::N;
  const Trans tb = tbi ? Trans::T : Trans::N;
  VariantGuard guard;
  kernel::set_kernel_variant(variant);
  // Shapes straddle MR 8/16/32, NR 6/14, MC 144/160/288/320 and KC
  // 192/256 (and two KC steps of 192).
  for (const auto& [m, n, k] : {std::tuple<i64, i64, i64>{1, 1, 1},
                                {8, 6, 16},
                                {7, 5, 255},
                                {9, 7, 257},
                                {16, 14, 191},
                                {15, 13, 193},
                                {17, 15, 100},
                                {32, 14, 193},
                                {31, 29, 64},
                                {33, 6, 50},
                                {143, 7, 40},
                                {145, 14, 40},
                                {159, 6, 30},
                                {161, 13, 30},
                                {287, 5, 20},
                                {289, 15, 20},
                                {319, 6, 20},
                                {321, 29, 385}}) {
    Rng rng(static_cast<u64>(9000 + 977 * m + 83 * n + 11 * k));
    const Matrix a = small_int_matrix(rng, ta == Trans::N ? m : k,
                                      ta == Trans::N ? k : m);
    const Matrix b = small_int_matrix(rng, tb == Trans::N ? k : n,
                                      tb == Trans::N ? n : k);
    Matrix c = small_int_matrix(rng, m, n);
    const Matrix expect = naive_accumulate(ta, tb, -2.0, a, b, c);
    if (fp32) {
      MatrixF af = MatrixF::uninit(a.rows(), a.cols());
      MatrixF bf = MatrixF::uninit(b.rows(), b.cols());
      MatrixF cf = MatrixF::uninit(m, n);
      narrow(a, af);
      narrow(b, bf);
      narrow(c, cf);
      kernel::gemm_accumulate_f32(ta, tb, -2.0f, af, bf, cf);
      widen(cf, c);
    } else {
      kernel::gemm_accumulate(ta, tb, -2.0, a, b, c);
    }
    EXPECT_EQ(max_abs_diff(c, expect), 0.0)
        << "m=" << m << " n=" << n << " k=" << k;
  }
}

/// Test-name suffix, e.g. "avx512_fp32_TN".
std::string exact_name(const ::testing::TestParamInfo<ExactParam>& info) {
  const auto [variant, fp32, tai, tbi] = info.param;
  return std::string(kernel::variant_name(variant)) +
         (fp32 ? "_fp32_" : "_fp64_") + (tai ? "T" : "N") + (tbi ? "T" : "N");
}

INSTANTIATE_TEST_SUITE_P(
    SupportedVariants, KernelExactSweep,
    ::testing::Combine(::testing::ValuesIn(kernel::supported_variants()),
                       ::testing::Bool(), ::testing::Values(0, 1),
                       ::testing::Values(0, 1)),
    exact_name);

TEST(KernelAccumulateTest, DoesNotScaleCAndChargesNoFlops) {
  Rng rng(42);
  Matrix a = gaussian(rng, 10, 4);
  Matrix b = gaussian(rng, 4, 3);
  Matrix c = gaussian(rng, 10, 3);
  Matrix expect = naive_accumulate(Trans::N, Trans::N, -2.0, a, b, c);
  flops::reset();
  kernel::gemm_accumulate(Trans::N, Trans::N, -2.0, a, b, c);
  EXPECT_EQ(flops::take(), 0);  // accounting lives in the public wrappers
  EXPECT_LT(max_abs_diff(c, expect), 1e-12 * (1.0 + max_abs(expect)));
}

TEST(KernelAccumulateTest, SubViewOperandsRespectLeadingDimensions) {
  Rng rng(43);
  Matrix big = gaussian(rng, 40, 40);
  auto a = big.sub(3, 1, 17, 9);    // ld 40 > rows 17
  auto b = big.sub(5, 11, 9, 13);
  Matrix cbig(30, 30);
  auto c = cbig.sub(2, 2, 17, 13);  // strided output too
  Matrix expect = naive_accumulate(Trans::N, Trans::N, 1.0, a, b, c);
  kernel::gemm_accumulate(Trans::N, Trans::N, 1.0, a, b, c);
  EXPECT_LT(max_abs_diff(materialize(c), expect), 1e-12);
  // Entries of cbig outside the view stay untouched (zero).
  EXPECT_EQ(cbig(0, 0), 0.0);
  EXPECT_EQ(cbig(29, 29), 0.0);
}

TEST(KernelAccumulateTest, DegenerateDimensionsAreNoOps) {
  Matrix a(0, 5), b(5, 0), c(0, 0);
  EXPECT_NO_THROW(kernel::gemm_accumulate(Trans::N, Trans::N, 1.0, a, b, c));
  Matrix a2(4, 0), b2(0, 3), c2(4, 3);
  kernel::gemm_accumulate(Trans::N, Trans::N, 1.0, a2, b2, c2);  // k == 0
  EXPECT_EQ(max_abs(c2), 0.0);
}

/// The triangle filters must produce exact results on the requested
/// triangle; the opposite strict triangle may hold tile spill-over.
TEST(KernelTileFilterTest, LowerFilterCoversLowerTriangle) {
  Rng rng(44);
  const i64 n = 37;  // not a multiple of MR or NR
  Matrix a = gaussian(rng, 50, n);
  Matrix c(n, n), full(n, n);
  kernel::gemm_accumulate(Trans::T, Trans::N, 1.0, a, a, c,
                          kernel::TileFilter::Lower);
  kernel::gemm_accumulate(Trans::T, Trans::N, 1.0, a, a, full);
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = j; i < n; ++i) {
      EXPECT_EQ(c(i, j), full(i, j)) << i << "," << j;
    }
  }
}

TEST(KernelTileFilterTest, UpperFilterCoversUpperTriangle) {
  Rng rng(45);
  const i64 n = 41;
  Matrix a = gaussian(rng, n, 23);
  Matrix c(n, n), full(n, n);
  kernel::gemm_accumulate(Trans::N, Trans::T, 1.0, a, a, c,
                          kernel::TileFilter::Upper);
  kernel::gemm_accumulate(Trans::N, Trans::T, 1.0, a, a, full);
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = 0; i <= j; ++i) {
      EXPECT_EQ(c(i, j), full(i, j)) << i << "," << j;
    }
  }
}

TEST(KernelTileFilterTest, LowerFilterSkipsFarUpperTiles) {
  // Tiles strictly above the diagonal must not be touched at all: with a
  // large enough matrix the (0, n-1) corner sits in a skipped tile.
  Rng rng(46);
  const i64 n = 64;  // corner tile (0, 60..63) is strictly upper
  Matrix a = gaussian(rng, 16, n);
  Matrix c(n, n);
  kernel::gemm_accumulate(Trans::T, Trans::N, 1.0, a, a, c,
                          kernel::TileFilter::Lower);
  EXPECT_EQ(c(0, n - 1), 0.0);
}

}  // namespace
}  // namespace cacqr::lin
