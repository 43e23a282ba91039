#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/flops.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/parallel.hpp"

namespace cacqr::lin {

namespace {

/// Base-case size for the blocked triangular solve.  Diagonal blocks up to
/// this order run the O(n^2)-per-column scalar substitution loops;
/// everything off-diagonal is a packed-kernel gemm (which threads itself).
constexpr i64 kTriBlock = 32;

inline double tri_at(ConstMatrixView t, Trans trans, i64 i, i64 k) noexcept {
  return trans == Trans::N ? t(i, k) : t(k, i);
}

/// Chunk size giving each base-case parallel_for chunk ~32K scalar madds;
/// rounded to a multiple of 8 (one cache line of doubles) for row splits so
/// adjacent chunks never share a line.
inline i64 tri_grain(i64 n_tri) noexcept {
  const i64 work = std::max<i64>(1, n_tri * n_tri / 2);
  return round_up(std::max<i64>(8, (i64{1} << 15) / work), 8);
}

/// Unblocked forward/backward substitution, alpha pre-applied, no flop
/// accounting.
///
/// Left side: each B column is independent, so the base case splits
/// columns across the team.  Right side: columns mix, but every B *row*
/// runs the identical update sequence independently, so rows split
/// instead.  Either way each output element keeps one owner and its exact
/// operation order, preserving bitwise identity across thread counts.
void trsm_base_seq(Side side, Uplo uplo, Trans trans, Diag diag,
                   ConstMatrixView t, MatrixView b) {
  const i64 n_tri = t.rows;
  const bool lower_op = (uplo == Uplo::Lower) == (trans == Trans::N);
  if (side == Side::Left) {
    for (i64 j = 0; j < b.cols; ++j) {
      double* col = b.data + j * b.ld;
      if (lower_op) {
        for (i64 i = 0; i < n_tri; ++i) {
          double acc = col[i];
          for (i64 k = 0; k < i; ++k) acc -= tri_at(t, trans, i, k) * col[k];
          col[i] = diag == Diag::Unit ? acc : acc / tri_at(t, trans, i, i);
        }
      } else {
        for (i64 i = n_tri - 1; i >= 0; --i) {
          double acc = col[i];
          for (i64 k = i + 1; k < n_tri; ++k) {
            acc -= tri_at(t, trans, i, k) * col[k];
          }
          col[i] = diag == Diag::Unit ? acc : acc / tri_at(t, trans, i, i);
        }
      }
    }
  } else if (lower_op) {
    // X(:,j) = (B(:,j) - sum_{k>j} X(:,k) T(k,j)) / T(j,j): right-to-left.
    for (i64 j = n_tri - 1; j >= 0; --j) {
      double* cj = b.data + j * b.ld;
      for (i64 k = j + 1; k < n_tri; ++k) {
        const double tkj = tri_at(t, trans, k, j);
        if (tkj == 0.0) continue;
        const double* ck = b.data + k * b.ld;
        for (i64 i = 0; i < b.rows; ++i) cj[i] -= tkj * ck[i];
      }
      if (diag == Diag::NonUnit) {
        const double djj = tri_at(t, trans, j, j);
        for (i64 i = 0; i < b.rows; ++i) cj[i] /= djj;
      }
    }
  } else {
    for (i64 j = 0; j < n_tri; ++j) {
      double* cj = b.data + j * b.ld;
      for (i64 k = 0; k < j; ++k) {
        const double tkj = tri_at(t, trans, k, j);
        if (tkj == 0.0) continue;
        const double* ck = b.data + k * b.ld;
        for (i64 i = 0; i < b.rows; ++i) cj[i] -= tkj * ck[i];
      }
      if (diag == Diag::NonUnit) {
        const double djj = tri_at(t, trans, j, j);
        for (i64 i = 0; i < b.rows; ++i) cj[i] /= djj;
      }
    }
  }
}

/// Thread-parallel base-case dispatch: splits the independent dimension
/// (columns on the left, rows on the right) and runs the sequential loops
/// on each sub-view.
void trsm_base(Side side, Uplo uplo, Trans trans, Diag diag,
               ConstMatrixView t, MatrixView b) {
  const i64 grain = tri_grain(t.rows);
  if (side == Side::Left) {
    parallel::parallel_for(b.cols, grain, [&](i64 j0, i64 j1) {
      trsm_base_seq(side, uplo, trans, diag, t,
                    b.sub(0, j0, b.rows, j1 - j0));
    });
  } else {
    parallel::parallel_for(b.rows, grain, [&](i64 r0, i64 r1) {
      trsm_base_seq(side, uplo, trans, diag, t,
                    b.sub(r0, 0, r1 - r0, b.cols));
    });
  }
}

/// The off-diagonal block of op(T) below the diagonal (lower_op) or above
/// it (upper op), expressed as (stored block, transpose flag) so it can be
/// fed straight to the packing layer.  With T split at h:
///   lower storage:  T21 = t(h:, :h);   upper storage: T12 = t(:h, h:).
struct OffDiag {
  ConstMatrixView block;
  Trans trans;
};

inline OffDiag off_diag_low(ConstMatrixView t, Trans trans, i64 h) {
  // op(T)(2,1), an (n-h) x h block.
  return trans == Trans::N
             ? OffDiag{t.sub(h, 0, t.rows - h, h), Trans::N}
             : OffDiag{t.sub(0, h, h, t.rows - h), Trans::T};
}

inline OffDiag off_diag_up(ConstMatrixView t, Trans trans, i64 h) {
  // op(T)(1,2), an h x (n-h) block.
  return trans == Trans::N
             ? OffDiag{t.sub(0, h, h, t.rows - h), Trans::N}
             : OffDiag{t.sub(h, 0, t.rows - h, h), Trans::T};
}

/// Blocked B := op(T)^{-1} B / B op(T)^{-1} (alpha pre-applied, no
/// accounting): diagonal blocks recurse, off-diagonal updates are
/// packed-kernel gemms.
void trsm_rec(Side side, Uplo uplo, Trans trans, Diag diag, ConstMatrixView t,
              MatrixView b) {
  const i64 n_tri = t.rows;
  if (n_tri <= kTriBlock) {
    trsm_base(side, uplo, trans, diag, t, b);
    return;
  }
  const i64 h = n_tri / 2;
  auto t11 = t.sub(0, 0, h, h);
  auto t22 = t.sub(h, h, n_tri - h, n_tri - h);
  const bool lower_op = (uplo == Uplo::Lower) == (trans == Trans::N);
  if (side == Side::Left) {
    auto b1 = b.sub(0, 0, h, b.cols);
    auto b2 = b.sub(h, 0, b.rows - h, b.cols);
    if (lower_op) {
      // Forward: X1 = op11^{-1} B1; B2 -= op21 X1; X2 = op22^{-1} B2.
      trsm_rec(side, uplo, trans, diag, t11, b1);
      const OffDiag od = off_diag_low(t, trans, h);
      kernel::gemm_accumulate(od.trans, Trans::N, -1.0, od.block, b1, b2);
      trsm_rec(side, uplo, trans, diag, t22, b2);
    } else {
      trsm_rec(side, uplo, trans, diag, t22, b2);
      const OffDiag od = off_diag_up(t, trans, h);
      kernel::gemm_accumulate(od.trans, Trans::N, -1.0, od.block, b2, b1);
      trsm_rec(side, uplo, trans, diag, t11, b1);
    }
  } else {
    auto b1 = b.sub(0, 0, b.rows, h);
    auto b2 = b.sub(0, h, b.rows, b.cols - h);
    if (lower_op) {
      // X2 op22 = B2; B1 -= X2 op21; X1 op11 = B1.
      trsm_rec(side, uplo, trans, diag, t22, b2);
      const OffDiag od = off_diag_low(t, trans, h);
      kernel::gemm_accumulate(Trans::N, od.trans, -1.0, b2, od.block, b1);
      trsm_rec(side, uplo, trans, diag, t11, b1);
    } else {
      trsm_rec(side, uplo, trans, diag, t11, b1);
      const OffDiag od = off_diag_up(t, trans, h);
      kernel::gemm_accumulate(Trans::N, od.trans, -1.0, b1, od.block, b2);
      trsm_rec(side, uplo, trans, diag, t22, b2);
    }
  }
}

}  // namespace

void trmm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b) {
  ensure_dim(t.rows == t.cols, "trmm: T must be square");
  const i64 n_tri = t.rows;
  ensure_dim(side == Side::Left ? b.rows == n_tri : b.cols == n_tri,
             "trmm: ", side == Side::Left ? "left" : "right",
             " operand size mismatch");

  // The zeroing pass splits like gemm.cpp's: ~32K element touches per
  // chunk, and never adjacent columns of a tiny B to separate threads.
  constexpr i64 kScaleChunkElems = i64{1} << 15;
  if (alpha == 0.0) {
    parallel::parallel_for_cols(b.rows, b.cols, kScaleChunkElems,
                                [&](i64 j0, i64 j1) {
      for (i64 j = j0; j < j1; ++j) {
        double* cj = b.data + j * b.ld;
        for (i64 i = 0; i < b.rows; ++i) cj[i] = 0.0;
      }
    });
  } else {
    kernel::trmm_packed(side, uplo, trans, diag, alpha, t, b);
  }
  // Dense triangular-multiply count: n(n-1)/2 off-diagonal madds plus n
  // diagonal multiplies per vector, for cols (left) / rows (right) vectors.
  const i64 vecs = side == Side::Left ? b.cols : b.rows;
  const i64 madds = vecs * (n_tri * (n_tri - 1) / 2 + n_tri);
  flops::add(2 * madds);
}

void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b) {
  ensure_dim(t.rows == t.cols, "trsm: T must be square");
  const i64 n_tri = t.rows;
  ensure_dim(side == Side::Left ? b.rows == n_tri : b.cols == n_tri,
             "trsm: ", side == Side::Left ? "left" : "right",
             " operand size mismatch");

  if (alpha != 1.0) scal(alpha, b);
  trsm_rec(side, uplo, trans, diag, t, b);

  // Substitution count: n(n-1)/2 off-diagonal madds per vector, plus the
  // diagonal term -- charged unconditionally on the left (the accumulator
  // write), only for NonUnit divisions on the right.
  i64 madds;
  if (side == Side::Left) {
    madds = b.cols * (n_tri * (n_tri - 1) / 2 + n_tri);
  } else {
    madds = b.rows * (n_tri * (n_tri - 1) / 2) +
            (diag == Diag::NonUnit ? b.rows * n_tri : 0);
  }
  flops::add(2 * madds);
}

}  // namespace cacqr::lin
