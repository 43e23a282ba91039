#pragma once
/// \file dist_matrix.hpp
/// \brief Cyclically distributed dense matrices and the distributed
///        primitives (Gather, Transpose, MM3D, block back-substitution)
///        the paper's algorithms are assembled from.
///
/// Convention (see grid.hpp): a matrix is distributed over the (x, y)
/// dimensions of each z-slice of a grid -- matrix rows cycle over the y
/// processors, matrix columns over the x processors -- and is replicated
/// across the depth dimension.  Global entry (i, j) lives on the rank with
/// y == i mod row_procs and x == j mod col_procs, at local index
/// (i / row_procs, j / col_procs).  The cyclic layout is what makes every
/// recursion quadrant of CFR3D again perfectly cyclic on the same grid.
///
/// The collectives charge exactly the costs the model in model/costs.hpp
/// attributes to them (the validation tests tie the two together):
///   transpose3d = one pairwise exchange of the local block;
///   mm3d        = Bcast(A row comm) + Bcast(B column comm) + local gemm
///                 + Allreduce(C depth comm);
///   gather      = one Allgather over the given communicator.
///
/// Threading: every *local* stage in this file (the from_global pack, the
/// gather unpack, the transpose3d staging copy and permute, the mm3d
/// staging copies, add_scaled, and the sub_block copies block_backsolve is
/// built from) is split over the calling rank's worker team
/// (lin/parallel.hpp) at whole-column granularity, so each output element
/// has exactly one owner and results are bitwise identical at every
/// per-rank thread budget (DESIGN.md section 4; asserted by tests/dist/).
/// Collective schedules are fixed and never threaded.  Cost-model charges
/// (alpha/beta from the collectives, gamma from lin/) are independent of
/// the thread budget.

#include <utility>

#include "cacqr/grid/grid.hpp"
#include "cacqr/lin/matrix.hpp"
#include "cacqr/lin/util.hpp"

namespace cacqr::dist {

/// Cyclic layout descriptor: global shape + processor shape + this rank's
/// coordinates within the distribution.
struct Layout {
  i64 rows = 0;
  i64 cols = 0;
  int row_procs = 1;  ///< processors over matrix rows (the grid's y extent)
  int col_procs = 1;  ///< processors over matrix columns (the x extent)
  int my_row = 0;     ///< this rank's y coordinate
  int my_col = 0;     ///< this rank's x coordinate

  [[nodiscard]] i64 local_rows() const noexcept {
    const i64 p = row_procs;
    return rows <= my_row ? 0 : (rows - my_row + p - 1) / p;
  }
  [[nodiscard]] i64 local_cols() const noexcept {
    const i64 p = col_procs;
    return cols <= my_col ? 0 : (cols - my_col + p - 1) / p;
  }
  /// Global row index of local row li (and the column analogue).
  [[nodiscard]] i64 global_row(i64 li) const noexcept {
    return my_row + li * row_procs;
  }
  [[nodiscard]] i64 global_col(i64 lj) const noexcept {
    return my_col + lj * col_procs;
  }
};

/// One rank's piece of a cyclically distributed matrix.  Pure data holder:
/// all communication happens in the free functions below, which take the
/// communicator or grid explicitly (SPMD style).
class DistMatrix {
 public:
  DistMatrix() = default;

  /// Zero matrix of the given global shape and layout.
  DistMatrix(i64 rows, i64 cols, int row_procs, int col_procs, int my_row,
             int my_col);

  /// Like the shape constructor but with UNINITIALIZED local storage (no
  /// zero pass): only for results whose every local element is written
  /// before being read — a permute/copy target, a gemm output with
  /// beta == 0.  Same audit rule as lin::Matrix::uninit.
  [[nodiscard]] static DistMatrix uninit(i64 rows, i64 cols, int row_procs,
                                         int col_procs, int my_row,
                                         int my_col);

  /// Local piece of a replicated global matrix (each rank extracts its
  /// cyclic entries; no communication).
  [[nodiscard]] static DistMatrix from_global(lin::ConstMatrixView a,
                                              int row_procs, int col_procs,
                                              int my_row, int my_col);
  /// from_global over a cube-grid slice: rows cycle over y, columns over x.
  [[nodiscard]] static DistMatrix from_global_on_cube(lin::ConstMatrixView a,
                                                      const grid::CubeGrid& g);
  /// from_global over a tunable-grid slice: rows over d, columns over c.
  [[nodiscard]] static DistMatrix from_global_on_tunable(
      lin::ConstMatrixView a, const grid::TunableGrid& g);
  /// Zero matrix distributed over a cube-grid slice.
  [[nodiscard]] static DistMatrix on_cube(i64 rows, i64 cols,
                                          const grid::CubeGrid& g);

  [[nodiscard]] const Layout& layout() const noexcept { return layout_; }
  [[nodiscard]] i64 rows() const noexcept { return layout_.rows; }
  [[nodiscard]] i64 cols() const noexcept { return layout_.cols; }
  [[nodiscard]] i64 global_row(i64 li) const noexcept {
    return layout_.global_row(li);
  }
  [[nodiscard]] i64 global_col(i64 lj) const noexcept {
    return layout_.global_col(lj);
  }

  [[nodiscard]] lin::Matrix& local() noexcept { return local_; }
  [[nodiscard]] const lin::Matrix& local() const noexcept { return local_; }

  /// The h x w sub-matrix at global offset (i0, j0) as a new DistMatrix
  /// (copied local data).  All of i0, j0, h, w must be divisible by the
  /// processor counts so the sub-matrix is again perfectly cyclic.
  [[nodiscard]] DistMatrix sub_block(i64 i0, i64 j0, i64 h, i64 w) const;
  /// Writes `src` (shaped like the matching sub_block) back at (i0, j0).
  void set_sub_block(i64 i0, i64 j0, const DistMatrix& src);

  /// Half-size quadrant (qi, qj) of a square matrix, as sub_block does.
  [[nodiscard]] DistMatrix quadrant(int qi, int qj) const;
  void set_quadrant(int qi, int qj, const DistMatrix& src);

  /// Reinterprets the same local data under a different global shape and
  /// layout (local dimensions must be preserved).  Used to re-index a
  /// slice-distributed panel in subcube coordinates and back -- a pure
  /// renaming, no data motion.
  [[nodiscard]] DistMatrix reinterpret_layout(i64 rows, i64 cols,
                                              int row_procs, int col_procs,
                                              int my_row, int my_col) const;

 private:
  Layout layout_;
  lin::Matrix local_;
};

/// Allgathers the distributed matrix over `comm` and returns the full
/// global matrix (replicated on every caller).  comm must contain exactly
/// the row_procs * col_procs ranks of the distribution, ordered
/// rank == x + col_procs * y (the slice convention of grid.hpp).
/// Collective; requires the global dimensions divisible by the processor
/// counts.  Charge: one Allgather of the local block over P ranks,
/// ceil(lg P) alpha + (m n / P)(P - 1) beta; the unpack is a threaded
/// local stage.
[[nodiscard]] lin::Matrix gather(const DistMatrix& a, const rt::Comm& comm);

/// The Transpose collective on a cube-grid slice: returns A^T in the same
/// cyclic distribution via one pairwise block exchange between ranks
/// (x, y) and (y, x).  A must be square with dimension divisible by g.
/// Collective over the slice.  Charge: alpha + (n^2 / g^2) beta (the
/// paper's Transpose primitive); the staging copy and the local permute
/// are threaded local stages.
[[nodiscard]] DistMatrix transpose3d(const DistMatrix& a,
                                     const grid::CubeGrid& g);

/// The back-to-back R / R^{-1} transposes of CA-CQR and the CFR3D
/// recursion: {transpose3d(a, g), transpose3d(b, g)}, one blocking
/// exchange after the other.
[[nodiscard]] std::pair<DistMatrix, DistMatrix> transpose3d_pair(
    const DistMatrix& a, const DistMatrix& b, const grid::CubeGrid& g);

/// MM3D: C = alpha * A * B on the cube.  Each depth layer z multiplies the
/// k-classes congruent to z (Bcast of A along the row comm from x == z and
/// of B along the column comm from y == z), then an Allreduce along depth
/// sums the g partial products -- the paper's O(n^2 / g^2)-word multiply.
/// All of m, k, n must be divisible by g.  Collective over the cube.
/// Charge: Bcast(m k / g^2, g) + Bcast(k n / g^2, g) +
/// Allreduce(m n / g^2, g) plus the local gemm's 2 m n k / g^3 gamma
/// (model/costs.hpp `cost_mm3d`); staging copies and the gemm are
/// threaded.
[[nodiscard]] DistMatrix mm3d(const DistMatrix& a, const DistMatrix& b,
                              const grid::CubeGrid& g, double alpha = 1.0);

/// z += alpha * u, elementwise on identically distributed operands.
/// Purely local (no communication); charges 2 * local-elements gamma via
/// lin::axpy, whose column loop is threaded.
void add_scaled(DistMatrix& z, double alpha, const DistMatrix& u);

/// Block back-substitution solve X R = B for X = B R^{-1}, where R is
/// upper triangular and `r_inv` holds (at least) the `nblocks` inverted
/// diagonal blocks of R (the InverseDepth strategy, paper Section III-A):
///   X_j = (B_j - sum_{i<j} X_i R_ij) Rinv_jj,
/// every product an MM3D on the cube.  n must be divisible by nblocks and
/// the block size by g.  nblocks == 1 degenerates to one MM3D with the
/// full inverse.  Collective; charge: nblocks (nblocks + 1) / 2 MM3D
/// calls at block granularity -- roughly half the multiply gamma of the
/// full-inverse path at the cost of ~nblocks x more synchronization.
[[nodiscard]] DistMatrix block_backsolve(const DistMatrix& b,
                                         const DistMatrix& r,
                                         const DistMatrix& r_inv, i64 nblocks,
                                         const grid::CubeGrid& g);

}  // namespace cacqr::dist
