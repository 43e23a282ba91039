/// \file test_kernel_f32.cpp
/// \brief The fp32 micro-kernel lane: narrow/widen conversions, per-variant
///        bitwise determinism across thread budgets, cross-variant
///        numerical agreement, and agreement with the fp64 kernels to the
///        fp32 backward-error envelope.
///
/// Same determinism contract as the fp64 lane (test_kernel_variants.cpp):
/// for a FIXED variant the fp32 kernels are bitwise deterministic across
/// budgets; ACROSS variants (and against the fp64 reference)
/// only O(eps32)-scaled agreement is promised.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/blas_f.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/parallel.hpp"

namespace {

using namespace cacqr;
using lin::Matrix;
using lin::MatrixF;
namespace kernel = lin::kernel;
namespace parallel = lin::parallel;

struct VariantGuard {
  kernel::Variant saved = kernel::active_variant();
  ~VariantGuard() { kernel::set_kernel_variant(saved); }
};

struct BudgetGuard {
  int saved = parallel::thread_budget();
  ~BudgetGuard() { parallel::set_thread_budget(saved); }
};

bool bytes_equal(const MatrixF& a, const MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

MatrixF narrowed(const Matrix& a) {
  MatrixF f = MatrixF::uninit(a.rows(), a.cols());
  lin::narrow(a, f);
  return f;
}

// ----------------------------------------------------- narrow / widen

TEST(NarrowWiden, RoundTripIsExactFp32Rounding) {
  const Matrix a = lin::hashed_matrix(71, 53, 9);
  MatrixF f = MatrixF::uninit(53, 9);
  lin::narrow(a, f);
  Matrix back(53, 9);
  lin::widen(f, back);
  for (i64 j = 0; j < a.cols(); ++j) {
    for (i64 i = 0; i < a.rows(); ++i) {
      // narrow is the elementwise fp32 rounding; widen is exact.
      EXPECT_EQ(back(i, j), static_cast<double>(static_cast<float>(a(i, j))))
          << i << "," << j;
    }
  }
}

TEST(NarrowWiden, BitwiseAcrossBudgets) {
  BudgetGuard guard;
  const Matrix a = lin::hashed_matrix(72, 400, 40);
  parallel::set_thread_budget(1);
  const MatrixF ref = narrowed(a);
  for (const int budget : {2, 4}) {
    parallel::set_thread_budget(budget);
    EXPECT_TRUE(bytes_equal(narrowed(a), ref)) << "t=" << budget;
  }
}

// ------------------------------------------------ the fp32 kernel lane

/// One representative of each packed fp32 entry path, big enough to
/// engage the threaded driver and straddle every variant's blocking.
struct KernelOutputsF32 {
  MatrixF gemm_tn;  // C = 1.25 A^T B   (the c > 1 Gram-assembly path)
  MatrixF gemm_nn;  // C = A X
  MatrixF gram;     // G = A^T A
};

KernelOutputsF32 run_kernels_f32() {
  const i64 m = 700;
  const i64 n = 90;
  const MatrixF a = narrowed(lin::hashed_matrix(41, m, n));
  const MatrixF b = narrowed(lin::hashed_matrix(43, m, n));
  const MatrixF xs = narrowed(lin::hashed_matrix(47, n, n));
  KernelOutputsF32 out{MatrixF(n, n), MatrixF(m, n), MatrixF(n, n)};
  lin::gemm_f32(lin::Trans::T, lin::Trans::N, 1.25f, a, b, 0.0f,
                out.gemm_tn);
  lin::gemm_f32(lin::Trans::N, lin::Trans::N, 1.0f, a, xs, 0.0f,
                out.gemm_nn);
  lin::gram_f32(1.0f, a, 0.0f, out.gram);
  return out;
}

TEST(KernelF32Determinism, BitwiseAcrossBudgetsAndOverlap) {
  VariantGuard vguard;
  BudgetGuard bguard;
  for (const kernel::Variant v : kernel::supported_variants()) {
    kernel::set_kernel_variant(v);
    parallel::set_thread_budget(1);
    const KernelOutputsF32 ref = run_kernels_f32();
    for (const int budget : {1, 4}) {
      parallel::set_thread_budget(budget);
      const KernelOutputsF32 got = run_kernels_f32();
      EXPECT_TRUE(bytes_equal(got.gemm_tn, ref.gemm_tn))
          << kernel::variant_name(v) << " gemm_tn t=" << budget;
      EXPECT_TRUE(bytes_equal(got.gemm_nn, ref.gemm_nn))
          << kernel::variant_name(v) << " gemm_nn t=" << budget;
      EXPECT_TRUE(bytes_equal(got.gram, ref.gram))
          << kernel::variant_name(v) << " gram t=" << budget;
    }
  }
}

/// Componentwise relative agreement under the k-scaled fp32 backward-
/// error envelope: |x - y| <= tol_k (|x| + |y| + 1), tol_k = 8 k eps32.
void expect_componentwise_close_f32(const MatrixF& x, const MatrixF& y,
                                    i64 k, const char* tag) {
  ASSERT_EQ(x.rows(), y.rows());
  ASSERT_EQ(x.cols(), y.cols());
  const double tol =
      8.0 * static_cast<double>(k) *
      static_cast<double>(std::numeric_limits<float>::epsilon());
  for (i64 j = 0; j < x.cols(); ++j) {
    for (i64 i = 0; i < x.rows(); ++i) {
      const double xv = x(i, j);
      const double yv = y(i, j);
      const double d = std::abs(xv - yv);
      ASSERT_LE(d, tol * (std::abs(xv) + std::abs(yv) + 1.0))
          << tag << " (" << i << ", " << j << ")";
    }
  }
}

TEST(KernelF32Agreement, AllVariantsMatchGenericToTolerance) {
  VariantGuard vguard;
  kernel::set_kernel_variant(kernel::Variant::generic);
  const KernelOutputsF32 ref = run_kernels_f32();
  const i64 k = 700;  // reduction length of gemm_tn/gram
  for (const kernel::Variant v : kernel::supported_variants()) {
    if (v == kernel::Variant::generic) continue;
    kernel::set_kernel_variant(v);
    const KernelOutputsF32 got = run_kernels_f32();
    expect_componentwise_close_f32(got.gemm_tn, ref.gemm_tn, k,
                                   kernel::variant_name(v));
    expect_componentwise_close_f32(got.gemm_nn, ref.gemm_nn, 90,
                                   kernel::variant_name(v));
    expect_componentwise_close_f32(got.gram, ref.gram, k,
                                   kernel::variant_name(v));
  }
}

TEST(KernelF32Agreement, GramF32MatchesFp64Gram) {
  // The fp32 Gram must agree with the fp64 Gram of the same matrix to
  // the fp32 envelope -- the accuracy claim the mixed-precision driver's
  // first pass is built on.
  const i64 m = 700;
  const i64 n = 90;
  const Matrix a = lin::hashed_matrix(41, m, n);
  Matrix g64(n, n);
  lin::gram(1.0, a, 0.0, g64);
  MatrixF gf = MatrixF(n, n);
  lin::gram_f32(1.0f, narrowed(a), 0.0f, gf);
  Matrix g32(n, n);
  lin::widen(gf, g32);
  const double tol =
      8.0 * static_cast<double>(m) *
      static_cast<double>(std::numeric_limits<float>::epsilon());
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = 0; i < n; ++i) {
      const double d = std::abs(g32(i, j) - g64(i, j));
      EXPECT_LE(d, tol * (std::abs(g64(i, j)) + 1.0)) << i << "," << j;
    }
  }
}

TEST(KernelF32Agreement, GramF32ResultIsSymmetric) {
  // gram_f32 computes the lower triangle through the kernel lane and
  // mirrors it; the mirrored result must be exactly symmetric.
  const MatrixF a = narrowed(lin::hashed_matrix(49, 300, 37));
  MatrixF g(37, 37);
  lin::gram_f32(1.0f, a, 0.0f, g);
  for (i64 j = 0; j < 37; ++j) {
    for (i64 i = 0; i < j; ++i) {
      EXPECT_EQ(g(i, j), g(j, i)) << i << "," << j;
    }
  }
}

}  // namespace
