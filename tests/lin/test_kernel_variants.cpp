/// \file test_kernel_variants.cpp
/// \brief The SIMD micro-kernel variant family: CACQR_KERNEL parsing,
///        dispatch-probe consistency, loud refusal of unsupported forced
///        variants, per-variant bitwise determinism across thread budgets,
///        and cross-variant numerical agreement.
///
/// Determinism contract (DESIGN.md section 2): for a FIXED variant the
/// kernels are bitwise deterministic across thread budgets -- the one-owner
/// tile schedule never splits a k-reduction.  ACROSS variants only O(eps)
/// agreement is promised: a variant with a different micro-tile (avx512's
/// 16x14) or different cache blocking changes the pc-loop accumulation
/// splits, which reorders floating-point additions.  The componentwise
/// relative tolerance below scales with the reduction length k, the
/// standard backward-error envelope.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/parallel.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/support/error.hpp"

namespace {

using namespace cacqr;
using lin::Matrix;
namespace kernel = lin::kernel;
namespace parallel = lin::parallel;

/// Restores the entry micro-kernel variant on scope exit, so a test
/// forcing avx2 cannot leak it into the rest of the suite.
struct VariantGuard {
  kernel::Variant saved = kernel::active_variant();
  ~VariantGuard() { kernel::set_kernel_variant(saved); }
};

/// Restores the worker budget on scope exit (same idiom as
/// test_parallel.cpp).
struct BudgetGuard {
  int saved = parallel::thread_budget();
  ~BudgetGuard() { parallel::set_thread_budget(saved); }
};

bool bytes_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(double)) == 0;
}

bool contains(const std::vector<kernel::Variant>& vs, kernel::Variant v) {
  for (const kernel::Variant x : vs) {
    if (x == v) return true;
  }
  return false;
}

// --------------------------------------------------- CACQR_KERNEL parsing

TEST(ParseKernelVariant, AutoSpellings) {
  EXPECT_EQ(kernel::parse_kernel_variant(nullptr),
            kernel::VariantChoice::automatic);
  EXPECT_EQ(kernel::parse_kernel_variant(""),
            kernel::VariantChoice::automatic);
  EXPECT_EQ(kernel::parse_kernel_variant("auto"),
            kernel::VariantChoice::automatic);
}

TEST(ParseKernelVariant, NamedVariants) {
  EXPECT_EQ(kernel::parse_kernel_variant("generic"),
            kernel::VariantChoice::generic);
  EXPECT_EQ(kernel::parse_kernel_variant("avx2"),
            kernel::VariantChoice::avx2);
  EXPECT_EQ(kernel::parse_kernel_variant("avx512"),
            kernel::VariantChoice::avx512);
  EXPECT_EQ(kernel::parse_kernel_variant("neon"),
            kernel::VariantChoice::neon);
}

TEST(ParseKernelVariant, RejectsEverythingElse) {
  for (const char* bad : {"AVX2", "avx-512", "sse2", "generic ", " neon",
                          "0", "best", "Auto"}) {
    EXPECT_EQ(kernel::parse_kernel_variant(bad),
              kernel::VariantChoice::invalid)
        << "accepted: '" << bad << "'";
  }
}

TEST(ParseKernelVariant, RoundTripsVariantNames) {
  // Every name variant_name produces must parse back to the same variant
  // -- keeps the env-var surface and the diagnostics in sync.
  for (const kernel::Variant v : kernel::kVariants) {
    const kernel::VariantChoice c =
        kernel::parse_kernel_variant(kernel::variant_name(v));
    EXPECT_EQ(static_cast<int>(c),
              static_cast<int>(v) + 1);  // choice order: automatic first
  }
}

// ----------------------------------------------------- dispatch probing

TEST(KernelDispatch, GenericIsAlwaysSupported) {
  EXPECT_TRUE(kernel::variant_supported(kernel::Variant::generic));
  EXPECT_TRUE(contains(kernel::supported_variants(),
                       kernel::Variant::generic));
}

TEST(KernelDispatch, SupportedSetIsConsistent) {
  const std::vector<kernel::Variant> vs = kernel::supported_variants();
  EXPECT_FALSE(vs.empty());
  for (const kernel::Variant v : kernel::kVariants) {
    EXPECT_EQ(kernel::variant_supported(v), contains(vs, v))
        << kernel::variant_name(v);
  }
  // The SIMD families are per-architecture: a host can never execute
  // both the x86 and the aarch64 lanes.
  EXPECT_FALSE(kernel::variant_supported(kernel::Variant::avx2) &&
               kernel::variant_supported(kernel::Variant::neon));
}

TEST(KernelDispatch, ActiveVariantIsSupported) {
  EXPECT_TRUE(kernel::variant_supported(kernel::active_variant()));
}

TEST(KernelDispatch, SetVariantReturnsPreviousAndSticks) {
  VariantGuard guard;
  const kernel::Variant entry = kernel::active_variant();
  const kernel::Variant prev =
      kernel::set_kernel_variant(kernel::Variant::generic);
  EXPECT_EQ(prev, entry);
  EXPECT_EQ(kernel::active_variant(), kernel::Variant::generic);
  EXPECT_EQ(kernel::set_kernel_variant(entry), kernel::Variant::generic);
}

TEST(KernelDispatch, ForcingUnsupportedVariantThrows) {
  bool any_unsupported = false;
  for (const kernel::Variant v :
       {kernel::Variant::avx2, kernel::Variant::avx512,
        kernel::Variant::neon}) {
    if (kernel::variant_supported(v)) continue;
    any_unsupported = true;
    EXPECT_THROW(kernel::set_kernel_variant(v), Error)
        << kernel::variant_name(v);
  }
  // Impossible by the per-architecture argument above, but keep the test
  // honest if it ever runs on an exotic host.
  if (!any_unsupported) GTEST_SKIP() << "host executes every variant";
}

// ------------------------------------- per-variant bitwise determinism

/// One representative of each packed-kernel entry path, big enough to
/// engage the threaded driver and straddle every variant's blocking.
struct KernelOutputs {
  Matrix gemm_tn;  // C = 1.3 A^T B        (the Gram-like path)
  Matrix gemm_nn;  // C = A X              (panel x square)
  Matrix gram;     // G = A^T A            (triangular filter)
};

KernelOutputs run_kernels() {
  const i64 m = 700;
  const i64 n = 90;
  Matrix a = lin::hashed_matrix(41, m, n);
  Matrix b = lin::hashed_matrix(43, m, n);
  Matrix xs = lin::hashed_matrix(47, n, n);
  KernelOutputs out{Matrix(n, n), Matrix(m, n), Matrix(n, n)};
  lin::gemm(lin::Trans::T, lin::Trans::N, 1.3, a, b, 0.0, out.gemm_tn);
  lin::matmul(a, xs, out.gemm_nn);
  lin::gram(1.0, a, 0.0, out.gram);
  return out;
}

TEST(KernelVariantDeterminism, BitwiseAcrossBudgetsAndOverlap) {
  VariantGuard vguard;
  BudgetGuard bguard;
  for (const kernel::Variant v : kernel::supported_variants()) {
    kernel::set_kernel_variant(v);
    parallel::set_thread_budget(1);
    const KernelOutputs ref = run_kernels();
    for (const int budget : {1, 4}) {
      parallel::set_thread_budget(budget);
      const KernelOutputs got = run_kernels();
      EXPECT_TRUE(bytes_equal(got.gemm_tn, ref.gemm_tn))
          << kernel::variant_name(v) << " gemm_tn t=" << budget;
      EXPECT_TRUE(bytes_equal(got.gemm_nn, ref.gemm_nn))
          << kernel::variant_name(v) << " gemm_nn t=" << budget;
      EXPECT_TRUE(bytes_equal(got.gram, ref.gram))
          << kernel::variant_name(v) << " gram t=" << budget;
    }
  }
}

// --------------------------------------- cross-variant numerical agreement

/// Componentwise relative agreement under the k-scaled backward-error
/// envelope: |x - y| <= tol_k * (|x| + |y| + 1), tol_k = 8 k eps.  The
/// "+1" absorbs entries near zero, where relative error is meaningless
/// for a dot product of O(1) terms.
void expect_componentwise_close(const Matrix& x, const Matrix& y, i64 k,
                                const char* tag) {
  ASSERT_EQ(x.rows(), y.rows());
  ASSERT_EQ(x.cols(), y.cols());
  const double tol =
      8.0 * static_cast<double>(k) * std::numeric_limits<double>::epsilon();
  for (i64 j = 0; j < x.cols(); ++j) {
    for (i64 i = 0; i < x.rows(); ++i) {
      const double d = std::abs(x(i, j) - y(i, j));
      ASSERT_LE(d, tol * (std::abs(x(i, j)) + std::abs(y(i, j)) + 1.0))
          << tag << " (" << i << ", " << j << ")";
    }
  }
}

TEST(KernelVariantAgreement, AllVariantsMatchGenericToTolerance) {
  VariantGuard vguard;
  kernel::set_kernel_variant(kernel::Variant::generic);
  const KernelOutputs ref = run_kernels();
  const i64 k = 700;  // reduction length of run_kernels' gemm_tn/gram
  for (const kernel::Variant v : kernel::supported_variants()) {
    if (v == kernel::Variant::generic) continue;
    kernel::set_kernel_variant(v);
    const KernelOutputs got = run_kernels();
    expect_componentwise_close(got.gemm_tn, ref.gemm_tn, k,
                               kernel::variant_name(v));
    expect_componentwise_close(got.gemm_nn, ref.gemm_nn, 90,
                               kernel::variant_name(v));
    expect_componentwise_close(got.gram, ref.gram, k,
                               kernel::variant_name(v));
  }
}

}  // namespace
