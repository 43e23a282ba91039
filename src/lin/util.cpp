#include <algorithm>
#include <cmath>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/parallel.hpp"
#include "cacqr/lin/qr.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/support/rng.hpp"

namespace cacqr::lin {

Matrix materialize(ConstMatrixView a) {
  Matrix out = Matrix::uninit(a.rows, a.cols);
  copy(a, out);
  return out;
}

void copy(ConstMatrixView a, MatrixView b) {
  ensure_dim(a.rows == b.rows && a.cols == b.cols, "copy: shape mismatch");
  parallel::parallel_for_cols(a.rows, a.cols, [&](i64 j0, i64 j1) {
    for (i64 j = j0; j < j1; ++j) {
      const double* src = a.data + j * a.ld;
      double* dst = b.data + j * b.ld;
      std::copy(src, src + a.rows, dst);
    }
  });
}

void set_all(MatrixView a, double offdiag, double diag) {
  for (i64 j = 0; j < a.cols; ++j) {
    for (i64 i = 0; i < a.rows; ++i) a(i, j) = i == j ? diag : offdiag;
  }
}

Matrix transposed(ConstMatrixView a) {
  Matrix t(a.cols, a.rows);
  for (i64 j = 0; j < a.cols; ++j) {
    for (i64 i = 0; i < a.rows; ++i) t(j, i) = a(i, j);
  }
  return t;
}

void transpose_inplace(MatrixView a) {
  ensure_dim(a.rows == a.cols, "transpose_inplace: matrix must be square");
  for (i64 j = 0; j < a.cols; ++j) {
    for (i64 i = j + 1; i < a.rows; ++i) std::swap(a(i, j), a(j, i));
  }
}

double frob_norm(ConstMatrixView a) {
  double acc = 0.0;
  for (i64 j = 0; j < a.cols; ++j) {
    const double* col = a.data + j * a.ld;
    for (i64 i = 0; i < a.rows; ++i) acc += col[i] * col[i];
  }
  return std::sqrt(acc);
}

double max_abs(ConstMatrixView a) {
  double m = 0.0;
  for (i64 j = 0; j < a.cols; ++j) {
    for (i64 i = 0; i < a.rows; ++i) {
      const double v = std::fabs(a(i, j));
      if (std::isnan(v)) return v;  // std::max would drop it
      m = std::max(m, v);
    }
  }
  return m;
}

double max_abs_diff(ConstMatrixView a, ConstMatrixView b) {
  ensure_dim(a.rows == b.rows && a.cols == b.cols,
             "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (i64 j = 0; j < a.cols; ++j) {
    for (i64 i = 0; i < a.rows; ++i) {
      const double v = std::fabs(a(i, j) - b(i, j));
      if (std::isnan(v)) return v;  // std::max would drop it
      m = std::max(m, v);
    }
  }
  return m;
}

double orthogonality_error(ConstMatrixView q) {
  Matrix g(q.cols, q.cols);
  gram(1.0, q, 0.0, g);
  for (i64 i = 0; i < q.cols; ++i) g(i, i) -= 1.0;
  return frob_norm(g);
}

double residual_error(ConstMatrixView a, ConstMatrixView q,
                      ConstMatrixView r) {
  Matrix qr(a.rows, a.cols);
  gemm(Trans::N, Trans::N, 1.0, q, r, 0.0, qr);
  for (i64 j = 0; j < a.cols; ++j) {
    for (i64 i = 0; i < a.rows; ++i) qr(i, j) -= a(i, j);
  }
  const double denom = frob_norm(a);
  return denom == 0.0 ? frob_norm(qr) : frob_norm(qr) / denom;
}

bool is_upper_triangular(ConstMatrixView a) {
  for (i64 j = 0; j < a.cols; ++j) {
    for (i64 i = j + 1; i < a.rows; ++i) {
      if (a(i, j) != 0.0) return false;
    }
  }
  return true;
}

double cond2_estimate(ConstMatrixView a, int iterations) {
  const i64 n = a.cols;
  ensure_dim(a.rows >= n && n > 0, "cond2_estimate: need tall full-rank A");
  Rng rng(0x5eedULL);

  // sigma_max via power iteration on A^T A.
  Matrix x(n, 1);
  for (i64 i = 0; i < n; ++i) x(i, 0) = rng.normal();
  {
    const double norm0 = nrm2(x);
    for (i64 i = 0; i < n; ++i) x(i, 0) /= norm0;
  }
  Matrix ax(a.rows, 1), y(n, 1);
  double sigma_max = 0.0;
  for (int it = 0; it < iterations; ++it) {
    gemv(Trans::N, 1.0, a, x, 0.0, ax);
    gemv(Trans::T, 1.0, a, ax, 0.0, y);
    // With ||x|| = 1 the iterate norm converges to sigma_max^2.
    const double norm = nrm2(y);
    if (norm == 0.0) break;
    sigma_max = std::sqrt(norm);
    for (i64 i = 0; i < n; ++i) x(i, 0) = y(i, 0) / norm;
  }

  // sigma_min via inverse power iteration: solve (A^T A) y = x through the
  // R factor of a QR factorization (R^T R = A^T A).
  Matrix packed = materialize(a);
  auto tau = geqrf(packed);
  auto r_view = packed.sub(0, 0, n, n);
  for (i64 i = 0; i < n; ++i) x(i, 0) = rng.normal();
  double inv_sigma_min_sq = 1.0;
  for (int it = 0; it < iterations; ++it) {
    Matrix z = materialize(x.view());
    trsm(Side::Left, Uplo::Upper, Trans::T, Diag::NonUnit, 1.0, r_view, z);
    trsm(Side::Left, Uplo::Upper, Trans::N, Diag::NonUnit, 1.0, r_view, z);
    const double norm = nrm2(z);
    if (norm == 0.0 || !std::isfinite(norm)) break;
    inv_sigma_min_sq = norm;
    for (i64 i = 0; i < n; ++i) x(i, 0) = z(i, 0) / norm;
  }
  const double sigma_min = 1.0 / std::sqrt(inv_sigma_min_sq);
  return sigma_max / sigma_min;
}

}  // namespace cacqr::lin
