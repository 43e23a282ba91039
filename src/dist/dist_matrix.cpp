#include "cacqr/dist/dist_matrix.hpp"

#include <utility>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/parallel.hpp"
#include "cacqr/lin/util.hpp"

namespace cacqr::dist {

namespace parallel = lin::parallel;

namespace {

/// Message tag for the transpose pairwise exchange (the only p2p traffic
/// in this translation unit).
constexpr int kTransposeTag = 0x7452;  // 'tr'

void check_layout_positive(const Layout& lay) {
  ensure_dim(lay.rows >= 0 && lay.cols >= 0, "DistMatrix: negative shape");
  ensure_dim(lay.row_procs >= 1 && lay.col_procs >= 1,
             "DistMatrix: processor counts must be positive");
  ensure_dim(lay.my_row >= 0 && lay.my_row < lay.row_procs &&
                 lay.my_col >= 0 && lay.my_col < lay.col_procs,
             "DistMatrix: rank coordinates outside the processor grid");
}

void check_same_distribution(const Layout& a, const Layout& b,
                             const char* who) {
  ensure_dim(a.rows == b.rows && a.cols == b.cols &&
                 a.row_procs == b.row_procs && a.col_procs == b.col_procs &&
                 a.my_row == b.my_row && a.my_col == b.my_col,
             who, ": operands are not identically distributed");
}

void check_on_cube(const DistMatrix& a, const grid::CubeGrid& g,
                   const char* who) {
  const auto& lay = a.layout();
  ensure_dim(lay.row_procs == g.g() && lay.col_procs == g.g() &&
                 lay.my_row == g.coords().y && lay.my_col == g.coords().x,
             who, ": operand not distributed over this cube grid");
}

}  // namespace

DistMatrix::DistMatrix(i64 rows, i64 cols, int row_procs, int col_procs,
                       int my_row, int my_col) {
  layout_ = {rows, cols, row_procs, col_procs, my_row, my_col};
  check_layout_positive(layout_);
  local_ = lin::Matrix(layout_.local_rows(), layout_.local_cols());
}

DistMatrix DistMatrix::uninit(i64 rows, i64 cols, int row_procs,
                              int col_procs, int my_row, int my_col) {
  DistMatrix out;
  out.layout_ = {rows, cols, row_procs, col_procs, my_row, my_col};
  check_layout_positive(out.layout_);
  out.local_ = lin::Matrix::uninit(out.layout_.local_rows(),
                                   out.layout_.local_cols());
  return out;
}

DistMatrix DistMatrix::from_global(lin::ConstMatrixView a, int row_procs,
                                   int col_procs, int my_row, int my_col) {
  // Uninitialized: the pack below writes every local element.
  DistMatrix out = uninit(a.rows, a.cols, row_procs, col_procs, my_row,
                          my_col);
  const Layout& lay = out.layout_;
  // Local pack stage: each local column is written by exactly one team
  // member, so extraction is bitwise identical at any thread budget.
  parallel::parallel_for_cols(
      out.local_.rows(), out.local_.cols(), [&](i64 j0, i64 j1) {
        for (i64 lj = j0; lj < j1; ++lj) {
          const i64 gj = lay.global_col(lj);
          for (i64 li = 0; li < out.local_.rows(); ++li) {
            out.local_(li, lj) = a(lay.global_row(li), gj);
          }
        }
      });
  return out;
}

DistMatrix DistMatrix::from_global_on_cube(lin::ConstMatrixView a,
                                           const grid::CubeGrid& g) {
  return from_global(a, g.g(), g.g(), g.coords().y, g.coords().x);
}

DistMatrix DistMatrix::from_global_on_tunable(lin::ConstMatrixView a,
                                              const grid::TunableGrid& g) {
  return from_global(a, g.d(), g.c(), g.coords().y, g.coords().x);
}

DistMatrix DistMatrix::on_cube(i64 rows, i64 cols, const grid::CubeGrid& g) {
  return DistMatrix(rows, cols, g.g(), g.g(), g.coords().y, g.coords().x);
}

DistMatrix DistMatrix::sub_block(i64 i0, i64 j0, i64 h, i64 w) const {
  const int rp = layout_.row_procs;
  const int cp = layout_.col_procs;
  ensure_dim(i0 >= 0 && j0 >= 0 && h >= 0 && w >= 0 && i0 + h <= rows() &&
                 j0 + w <= cols(),
             "DistMatrix::sub_block out of range");
  ensure_dim(i0 % rp == 0 && h % rp == 0 && j0 % cp == 0 && w % cp == 0,
             "DistMatrix::sub_block: offsets/extents must be divisible by "
             "the processor counts to stay cyclic");
  DistMatrix out(h, w, rp, cp, layout_.my_row, layout_.my_col);
  lin::copy(local_.sub(i0 / rp, j0 / cp, h / rp, w / cp), out.local_);
  return out;
}

void DistMatrix::set_sub_block(i64 i0, i64 j0, const DistMatrix& src) {
  const int rp = layout_.row_procs;
  const int cp = layout_.col_procs;
  const i64 h = src.rows();
  const i64 w = src.cols();
  ensure_dim(i0 >= 0 && j0 >= 0 && i0 + h <= rows() && j0 + w <= cols(),
             "DistMatrix::set_sub_block out of range");
  ensure_dim(i0 % rp == 0 && h % rp == 0 && j0 % cp == 0 && w % cp == 0,
             "DistMatrix::set_sub_block: offsets/extents must be divisible "
             "by the processor counts");
  ensure_dim(src.layout_.row_procs == rp && src.layout_.col_procs == cp &&
                 src.layout_.my_row == layout_.my_row &&
                 src.layout_.my_col == layout_.my_col,
             "DistMatrix::set_sub_block: source layout mismatch");
  lin::copy(src.local_, local_.sub(i0 / rp, j0 / cp, h / rp, w / cp));
}

DistMatrix DistMatrix::quadrant(int qi, int qj) const {
  ensure_dim(rows() % 2 == 0 && cols() % 2 == 0,
             "DistMatrix::quadrant: odd dimensions");
  const i64 h = rows() / 2;
  const i64 w = cols() / 2;
  return sub_block(qi * h, qj * w, h, w);
}

void DistMatrix::set_quadrant(int qi, int qj, const DistMatrix& src) {
  ensure_dim(rows() % 2 == 0 && cols() % 2 == 0,
             "DistMatrix::set_quadrant: odd dimensions");
  set_sub_block(qi * (rows() / 2), qj * (cols() / 2), src);
}

DistMatrix DistMatrix::reinterpret_layout(i64 rows, i64 cols, int row_procs,
                                          int col_procs, int my_row,
                                          int my_col) const {
  DistMatrix out;
  out.layout_ = {rows, cols, row_procs, col_procs, my_row, my_col};
  check_layout_positive(out.layout_);
  ensure_dim(out.layout_.local_rows() == local_.rows() &&
                 out.layout_.local_cols() == local_.cols(),
             "DistMatrix::reinterpret_layout: local block shape changes");
  out.local_ = local_;
  return out;
}

lin::Matrix gather(const DistMatrix& a, const rt::Comm& comm) {
  const Layout& lay = a.layout();
  const int p = lay.row_procs * lay.col_procs;
  ensure_dim(comm.size() == p,
             "gather: communicator size differs from the processor grid");
  ensure_dim(lay.rows % lay.row_procs == 0 && lay.cols % lay.col_procs == 0,
             "gather: dimensions must be divisible by the processor counts");
  const i64 lr = lay.local_rows();
  const i64 lc = lay.local_cols();
  const std::size_t blk = static_cast<std::size_t>(lr * lc);
  // Uninitialized: the allgather writes every rank's block.
  lin::Matrix all = lin::Matrix::uninit(lr * lc, p);
  comm.allgather({a.local().data(), blk}, all.wire());

  // Unpack stage: split over local column index lj.  One lj covers the
  // col_procs global columns {x + lj*col_procs : x in ranks}, disjoint
  // across lj, so every element of `full` has exactly one owner and the
  // scatter is bitwise identical at any thread budget.  Uninitialized
  // staging: the owners collectively write every element.
  lin::Matrix full = lin::Matrix::uninit(lay.rows, lay.cols);
  parallel::parallel_for_cols(
      lay.rows * lay.col_procs, lc, [&](i64 j0, i64 j1) {
        for (int r = 0; r < p; ++r) {
          // Slice convention: comm rank == x + col_procs * y.
          const int x = r % lay.col_procs;
          const int y = r / lay.col_procs;
          const double* data = all.data() + static_cast<std::size_t>(r) * blk;
          for (i64 lj = j0; lj < j1; ++lj) {
            const i64 gj = x + lj * lay.col_procs;
            for (i64 li = 0; li < lr; ++li) {
              full(y + li * lay.row_procs, gj) = data[li + lj * lr];
            }
          }
        }
      });
  return full;
}

DistMatrix transpose3d(const DistMatrix& a, const grid::CubeGrid& g) {
  check_on_cube(a, g, "transpose3d");
  ensure_dim(a.rows() == a.cols(), "transpose3d: matrix must be square");
  ensure_dim(a.rows() % g.g() == 0,
             "transpose3d: dimension must be divisible by the grid");
  const auto [x, y, z] = g.coords();
  (void)z;

  // Entry (i, j) of A^T is A(j, i): my block of the result is exactly the
  // local block of the mirrored rank (x' = y, y' = x), locally transposed.
  lin::Matrix buf = materialize(a.local().view());
  g.slice().sendrecv_swap(g.slice_rank(y, x), kTransposeTag, buf.wire());

  // The local permute: uninitialized result (every element written
  // below), each output column owned by exactly one team member (rows of
  // `buf` are read shared, which is safe).
  DistMatrix out = DistMatrix::uninit(a.rows(), a.cols(),
                                      a.layout().row_procs,
                                      a.layout().col_procs, y, x);
  parallel::parallel_for_cols(
      out.local().rows(), out.local().cols(), [&](i64 j0, i64 j1) {
        for (i64 lj = j0; lj < j1; ++lj) {
          for (i64 li = 0; li < out.local().rows(); ++li) {
            out.local()(li, lj) = buf(lj, li);
          }
        }
      });
  return out;
}

std::pair<DistMatrix, DistMatrix> transpose3d_pair(const DistMatrix& a,
                                                   const DistMatrix& b,
                                                   const grid::CubeGrid& g) {
  return {transpose3d(a, g), transpose3d(b, g)};
}

DistMatrix mm3d(const DistMatrix& a, const DistMatrix& b,
                const grid::CubeGrid& g, double alpha) {
  check_on_cube(a, g, "mm3d");
  check_on_cube(b, g, "mm3d");
  ensure_dim(a.cols() == b.rows(), "mm3d: inner dimensions differ");
  const int gg = g.g();
  const i64 m = a.rows();
  const i64 k = a.cols();
  const i64 n = b.cols();
  ensure_dim(m % gg == 0 && k % gg == 0 && n % gg == 0,
             "mm3d: dimensions must be divisible by the grid");
  const auto [x, y, z] = g.coords();

  // Depth layer z owns the k-classes congruent to z: the A block for
  // (row class y, k class z) lives at x == z in my slice row, the B block
  // for (k class z, column class x) at y == z in my slice column.
  // Staging buffers are uninitialized on non-roots (the Bcast overwrites
  // every word).
  lin::Matrix abuf = x == z ? materialize(a.local().view())
                            : lin::Matrix::uninit(m / gg, k / gg);
  g.row().bcast(abuf.wire(), z);
  lin::Matrix bbuf = y == z ? materialize(b.local().view())
                            : lin::Matrix::uninit(k / gg, n / gg);
  g.col().bcast(bbuf.wire(), z);

  // Partial product over my depth layer's k-classes, then sum the g
  // layers along depth.  Consistent k mapping: local index lk on both
  // sides is global k = z + lk * g.  The output is uninitialized: gemm's
  // beta == 0 scale pass overwrites every element before accumulating.
  DistMatrix out = DistMatrix::uninit(m, n, gg, gg, y, x);
  lin::gemm(lin::Trans::N, lin::Trans::N, alpha, abuf, bbuf, 0.0,
            out.local());
  g.depth().allreduce_sum(out.local().wire());
  return out;
}

void add_scaled(DistMatrix& z, double alpha, const DistMatrix& u) {
  check_same_distribution(z.layout(), u.layout(), "add_scaled");
  lin::axpy(alpha, u.local(), z.local());
}

DistMatrix block_backsolve(const DistMatrix& b, const DistMatrix& r,
                           const DistMatrix& r_inv, i64 nblocks,
                           const grid::CubeGrid& g) {
  const i64 n = r.rows();
  ensure_dim(r.cols() == n && r_inv.rows() == n && r_inv.cols() == n,
             "block_backsolve: R and R^{-1} must be square and same size");
  ensure_dim(b.cols() == n, "block_backsolve: B column count differs");
  ensure_dim(nblocks >= 1 && n % nblocks == 0,
             "block_backsolve: nblocks must divide n");
  if (nblocks == 1) return mm3d(b, r_inv, g);

  const i64 bs = n / nblocks;
  const i64 mp = b.rows();
  DistMatrix x(mp, n, b.layout().row_procs, b.layout().col_procs,
               b.layout().my_row, b.layout().my_col);

  for (i64 j = 0; j < nblocks; ++j) {
    // T_j = B_j - sum_{i<j} X_i R_ij, then X_j = T_j Rinv_jj.
    DistMatrix t = b.sub_block(0, j * bs, mp, bs);
    for (i64 i = 0; i < j; ++i) {
      DistMatrix xi = x.sub_block(0, i * bs, mp, bs);
      DistMatrix rij = r.sub_block(i * bs, j * bs, bs, bs);
      DistMatrix u = mm3d(xi, rij, g);
      add_scaled(t, -1.0, u);
    }
    DistMatrix rinv_jj = r_inv.sub_block(j * bs, j * bs, bs, bs);
    x.set_sub_block(0, j * bs, mm3d(t, rinv_jj, g));
  }
  return x;
}

}  // namespace cacqr::dist
