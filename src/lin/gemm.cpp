/// \file gemm.cpp
/// \brief gemm/gram/syrk_nt, their fp32 lane (gemm_f32, gram_f32) and the
///        narrow/widen conversions: the BLAS-semantics scale and mirror
///        passes around the packed micro-kernel driver, one body per
///        operation for both element types.

#include <algorithm>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/blas_f.hpp"
#include "cacqr/lin/flops.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/parallel.hpp"

namespace cacqr::lin {

namespace {

/// The scale/mirror passes below split at column granularity with ~32K
/// element touches per chunk (parallel_for_cols); columns are the unit so
/// every column has exactly one owner (writes stay disjoint and
/// column-contiguous -- no false sharing and bitwise-deterministic results
/// at any thread count).
constexpr i64 kScaleChunkElems = i64{1} << 15;

/// Scales C by beta with BLAS semantics: beta == 0 overwrites (even NaN),
/// beta == 1 leaves C untouched.
template <class T>
void scale_full(T beta, BasicView<T> c) {
  if (beta == T(1)) return;
  parallel::parallel_for_cols(c.rows, c.cols, kScaleChunkElems,
                              [&](i64 j0, i64 j1) {
    for (i64 j = j0; j < j1; ++j) {
      T* cc = c.data + j * c.ld;
      if (beta == T(0)) {
        for (i64 i = 0; i < c.rows; ++i) cc[i] = T(0);
      } else {
        for (i64 i = 0; i < c.rows; ++i) cc[i] *= beta;
      }
    }
  });
}

/// Scales one triangle (diagonal included) of C by beta, same semantics.
template <class T>
void scale_triangle(T beta, BasicView<T> c, Uplo uplo) {
  if (beta == T(1)) return;
  parallel::parallel_for_cols(c.rows, c.cols, kScaleChunkElems,
                              [&](i64 j0, i64 j1) {
    for (i64 j = j0; j < j1; ++j) {
      const i64 ibegin = uplo == Uplo::Lower ? j : 0;
      const i64 iend = uplo == Uplo::Lower ? c.rows : j + 1;
      T* cc = c.data + j * c.ld;
      if (beta == T(0)) {
        for (i64 i = ibegin; i < iend; ++i) cc[i] = T(0);
      } else {
        for (i64 i = ibegin; i < iend; ++i) cc[i] *= beta;
      }
    }
  });
}

/// Copies the uplo triangle of C onto the opposite one, making C exactly
/// symmetric.  The distributed algorithms reduce and broadcast the full
/// n^2 block, as the paper's word counts assume.  Iterates destination
/// columns (contiguous writes, strided reads) so the column split above
/// applies here too.
template <class T>
void mirror_triangle(BasicView<T> c, Uplo from) {
  parallel::parallel_for_cols(c.rows, c.cols, kScaleChunkElems,
                              [&](i64 j0, i64 j1) {
    for (i64 j = j0; j < j1; ++j) {
      T* cj = c.data + j * c.ld;
      if (from == Uplo::Lower) {
        // Destination column j above the diagonal: c(i, j) = c(j, i), i < j.
        for (i64 i = 0; i < j; ++i) cj[i] = c(j, i);
      } else {
        for (i64 i = j + 1; i < c.rows; ++i) cj[i] = c(j, i);
      }
    }
  });
}

/// C = alpha * op(A) * op(B) + beta * C at either width; `who` names the
/// entry point in shape errors.
template <class T>
void gemm_body(const char* who, Trans ta, Trans tb, T alpha,
               BasicConstView<T> a, BasicConstView<T> b, T beta,
               BasicView<T> c) {
  const i64 m = ta == Trans::N ? a.rows : a.cols;
  const i64 ka = ta == Trans::N ? a.cols : a.rows;
  const i64 kb_dim = tb == Trans::N ? b.rows : b.cols;
  const i64 n = tb == Trans::N ? b.cols : b.rows;
  ensure_dim(ka == kb_dim, who, ": inner dimensions differ (", ka, " vs ",
             kb_dim, ")");
  ensure_dim(c.rows == m && c.cols == n, who, ": output shape mismatch");
  const i64 k = ka;

  scale_full(beta, c);
  // Fast path does no multiplies, so it charges no flops (the beta scaling
  // is not charged on the full path either).
  if (k == 0 || m == 0 || n == 0 || alpha == T(0)) return;

  kernel::gemm_accumulate(ta, tb, alpha, a, b, c);
  flops::add(2 * m * n * k);
}

/// C = alpha * A^T A + beta * C at either width.
template <class T>
void gram_body(const char* who, T alpha, BasicConstView<T> a, T beta,
               BasicView<T> c) {
  const i64 n = a.cols;
  const i64 m = a.rows;
  ensure_dim(c.rows == n && c.cols == n, who, ": C must be n x n");
  // Lower triangle through the kernel layer, then mirror -- the upper
  // triangle of C is always overwritten by the mirrored lower result.
  scale_triangle(beta, c, Uplo::Lower);
  if (alpha != T(0)) kernel::gram_accumulate(alpha, a, c);
  mirror_triangle(c, Uplo::Lower);
  flops::add(m * n * (n + 1));  // m * n^2 multiply-adds (half of gemm)
}

/// b = a elementwise at b's width (shapes must match): narrow rounds,
/// widen is exact.  Column-split under the one-owner rule, so bitwise
/// deterministic at any budget.
template <class S, class D>
void convert(const char* who, BasicConstView<S> a, BasicView<D> b) {
  ensure_dim(a.rows == b.rows && a.cols == b.cols, who, ": shape mismatch");
  parallel::parallel_for_cols(a.rows, a.cols, parallel::kMemoryBoundGrain,
                              [&](i64 j0, i64 j1) {
    for (i64 j = j0; j < j1; ++j) {
      const S* src = a.data + j * a.ld;
      D* dst = b.data + j * b.ld;
      for (i64 i = 0; i < a.rows; ++i) dst[i] = static_cast<D>(src[i]);
    }
  });
}

}  // namespace

void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c) {
  gemm_body("gemm", ta, tb, alpha, a, b, beta, c);
}

void gemm_f32(Trans ta, Trans tb, float alpha, ConstMatrixFView a,
              ConstMatrixFView b, float beta, MatrixFView c) {
  gemm_body("gemm_f32", ta, tb, alpha, a, b, beta, c);
}

void matmul(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  gemm(Trans::N, Trans::N, 1.0, a, b, 0.0, c);
}

void gram(double alpha, ConstMatrixView a, double beta, MatrixView c) {
  gram_body("gram", alpha, a, beta, c);
}

void gram_f32(float alpha, ConstMatrixFView a, float beta, MatrixFView c) {
  gram_body("gram_f32", alpha, a, beta, c);
}

void syrk_nt(double alpha, ConstMatrixView a, double beta, MatrixView c,
             Uplo uplo) {
  const i64 n = a.rows;
  const i64 k = a.cols;
  ensure_dim(c.rows == n && c.cols == n, "syrk_nt: C must be n x n");
  scale_triangle(beta, c, uplo);
  if (alpha != 0.0) {
    kernel::gemm_accumulate(Trans::N, Trans::T, alpha, a, a, c,
                            uplo == Uplo::Lower ? kernel::TileFilter::Lower
                                                : kernel::TileFilter::Upper);
  }
  // Mirror so callers can treat the result as a full symmetric matrix.
  mirror_triangle(c, uplo);
  flops::add(n * (n + 1) * k);
}

void narrow(ConstMatrixView a, MatrixFView b) { convert("narrow", a, b); }

void widen(ConstMatrixFView a, MatrixView b) { convert("widen", a, b); }

}  // namespace cacqr::lin
