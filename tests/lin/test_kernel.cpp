/// \file test_kernel.cpp
/// \brief Direct tests of the packed micro-kernel driver (kernel.hpp):
///        all four transpose cases, triangle tile filters, awkward shapes
///        around the MR/NR/MC/KC block boundaries, strided sub-views, and
///        exact results for every supported variant at both precisions,
///        for gemm, gram (narrow and packed) and all sixteen trmm cases.

#include <gtest/gtest.h>

#include <limits>
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
      kernel::gemm_accumulate(ta, tb, -2.0f, af, bf, cf);
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

/// Entries where a and b differ.  A NaN never compares equal, whereas
/// max_abs_diff drops NaN differences (std::max keeps its first operand).
i64 mismatches(ConstMatrixView a, ConstMatrixView b) {
  i64 count = 0;
  for (i64 j = 0; j < a.cols; ++j) {
    for (i64 i = 0; i < a.rows; ++i) count += a(i, j) == b(i, j) ? 0 : 1;
  }
  return count;
}

using TrmmExactParam =
    std::tuple<kernel::Variant, int, int, int, int>;  // side, uplo, trans, diag

class TrmmExactSweep : public ::testing::TestWithParam<TrmmExactParam> {};

/// Small-integer T and B round nowhere, so every variant's packed triangle
/// (clipped panels, pad columns, unit diagonal), row and column tails and
/// KC split must reproduce the integer reference exactly.  The triangle
/// trmm must not read -- its other half and a unit diagonal -- holds NaN.
TEST_P(TrmmExactSweep, MatchesIntegerReference) {
  const auto [variant, sidei, uploi, transi, diagi] = GetParam();
  const Side side = sidei ? Side::Right : Side::Left;
  const Uplo uplo = uploi ? Uplo::Upper : Uplo::Lower;
  const Trans trans = transi ? Trans::T : Trans::N;
  const Diag diag = diagi ? Diag::Unit : Diag::NonUnit;
  VariantGuard guard;
  kernel::set_kernel_variant(variant);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // (vectors, n): vectors straddle MR 8/16 (right side: rows of B) and
  // NR 6/14 (left side: columns of B); n straddles NR 6/14, MR 8/16 and
  // KC 192/256.
  for (const auto& [vecs, n] : {std::tuple<i64, i64>{1, 1},
                                {7, 5},
                                {8, 6},
                                {9, 7},
                                {15, 13},
                                {16, 14},
                                {17, 15},
                                {5, 16},
                                {33, 29},
                                {3, 64},
                                {13, 100},
                                {9, 191},
                                {6, 193},
                                {17, 255},
                                {10, 257}}) {
    Rng rng(static_cast<u64>(11000 + 977 * vecs + 83 * n + 8 * sidei +
                             4 * uploi + 2 * transi + diagi));
    Matrix t = small_int_matrix(rng, n, n);
    Matrix op(n, n);  // op(T) as stored values, the reference's operand
    for (i64 j = 0; j < n; ++j) {
      for (i64 i = 0; i < n; ++i) {
        const bool stored = uplo == Uplo::Lower ? i > j : i < j;
        if (i == j && diag == Diag::Unit) {
          t(i, j) = kNaN;
        } else if (!stored && i != j) {
          t(i, j) = kNaN;
        }
      }
    }
    for (i64 j = 0; j < n; ++j) {
      for (i64 i = 0; i < n; ++i) {
        const i64 r = trans == Trans::N ? i : j;
        const i64 c = trans == Trans::N ? j : i;
        const bool stored = uplo == Uplo::Lower ? r > c : r < c;
        op(i, j) = r == c ? (diag == Diag::Unit ? 1.0 : t(r, c))
                          : stored ? t(r, c) : 0.0;
      }
    }
    const i64 rows = side == Side::Left ? n : vecs;
    const i64 cols = side == Side::Left ? vecs : n;
    const Matrix b0 = small_int_matrix(rng, rows, cols);
    for (const double alpha : {1.0, -2.0}) {
      Matrix expect(rows, cols);
      for (i64 j = 0; j < cols; ++j) {
        for (i64 i = 0; i < rows; ++i) {
          double acc = 0.0;
          for (i64 k = 0; k < n; ++k) {
            acc += side == Side::Left ? op(i, k) * b0(k, j)
                                      : b0(i, k) * op(k, j);
          }
          expect(i, j) = alpha * acc;
        }
      }
      Matrix b = b0;
      trmm(side, uplo, trans, diag, alpha, t, b);
      EXPECT_EQ(mismatches(b, expect), 0)
          << "vecs=" << vecs << " n=" << n << " alpha=" << alpha;
    }
  }
}

/// Test-name suffix, e.g. "avx512_RightUpperTUnit".
std::string trmm_exact_name(
    const ::testing::TestParamInfo<TrmmExactParam>& info) {
  const auto [variant, sidei, uploi, transi, diagi] = info.param;
  return std::string(kernel::variant_name(variant)) + "_" +
         (sidei ? "Right" : "Left") + (uploi ? "Upper" : "Lower") +
         (transi ? "T" : "N") + (diagi ? "Unit" : "NonUnit");
}

INSTANTIATE_TEST_SUITE_P(
    SupportedVariants, TrmmExactSweep,
    ::testing::Combine(::testing::ValuesIn(kernel::supported_variants()),
                       ::testing::Values(0, 1), ::testing::Values(0, 1),
                       ::testing::Values(0, 1), ::testing::Values(0, 1)),
    trmm_exact_name);

using GramExactParam = std::tuple<kernel::Variant, bool>;  // fp32

class GramExactSweep : public ::testing::TestWithParam<GramExactParam> {};

/// C = -2 A^T A + 3 C on small-integer data, exact in fp32 too: every
/// variant's narrow dot blocks (column tails of the 3 x 3 and 4 x 4
/// blocks, scalar row tails, m below one vector) and the packed sweep past
/// the 64-column width rule must give the integer reference bit for bit.
TEST_P(GramExactSweep, MatchesIntegerReference) {
  const auto [variant, fp32] = GetParam();
  VariantGuard guard;
  kernel::set_kernel_variant(variant);
  // (m, n): m straddles the vector widths 2..16 and the packed path's KC
  // 192/256 (its contraction); n straddles the Gram blocks 3/4, NR 6/14,
  // MR 8/16 and the width rule at 64.
  for (const auto& [m, n] : {std::tuple<i64, i64>{1, 1},
                             {5, 3},
                             {7, 4},
                             {8, 5},
                             {9, 6},
                             {15, 7},
                             {16, 13},
                             {17, 14},
                             {31, 15},
                             {33, 16},
                             {100, 17},
                             {191, 29},
                             {193, 31},
                             {255, 33},
                             {257, 61},
                             {300, 64},
                             {513, 10},
                             {1100, 19},
                             {2051, 5},
                             {129, 65},
                             {201, 80},
                             {257, 100},
                             {70, 130}}) {
    Rng rng(static_cast<u64>(12000 + 977 * m + 83 * n));
    const Matrix a = small_int_matrix(rng, m, n);
    const Matrix c0 = small_int_matrix(rng, n, n);
    Matrix expect(n, n);
    for (i64 j = 0; j < n; ++j) {
      for (i64 i = j; i < n; ++i) {
        double acc = 0.0;
        for (i64 k = 0; k < m; ++k) acc += a(k, i) * a(k, j);
        expect(i, j) = -2.0 * acc + 3.0 * c0(i, j);
        expect(j, i) = expect(i, j);
      }
    }
    Matrix c = c0;
    if (fp32) {
      MatrixF af = MatrixF::uninit(m, n);
      MatrixF cf = MatrixF::uninit(n, n);
      narrow(a, af);
      narrow(c0, cf);
      gram_f32(-2.0f, af, 3.0f, cf);
      widen(cf, c);
    } else {
      gram(-2.0, a, 3.0, c);
    }
    EXPECT_EQ(mismatches(c, expect), 0) << "m=" << m << " n=" << n;
  }
}

/// Test-name suffix, e.g. "avx2_fp32".
std::string gram_exact_name(
    const ::testing::TestParamInfo<GramExactParam>& info) {
  const auto [variant, fp32] = info.param;
  return std::string(kernel::variant_name(variant)) +
         (fp32 ? "_fp32" : "_fp64");
}

INSTANTIATE_TEST_SUITE_P(
    SupportedVariants, GramExactSweep,
    ::testing::Combine(::testing::ValuesIn(kernel::supported_variants()),
                       ::testing::Bool()),
    gram_exact_name);

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
