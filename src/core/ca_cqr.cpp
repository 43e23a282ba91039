#include "cacqr/core/ca_cqr.hpp"

#include <type_traits>

#include "cacqr/chol/cfr3d.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/blas_f.hpp"
#include "internal.hpp"

namespace cacqr::core {

using dist::DistMatrix;

namespace {

void check_tunable_layout(const DistMatrix& a, const grid::TunableGrid& g) {
  ensure_dim(a.layout().row_procs == g.d() && a.layout().col_procs == g.c() &&
                 a.layout().my_row == g.coords().y &&
                 a.layout().my_col == g.coords().x,
             "ca_cqr: matrix must be distributed over the tunable grid "
             "(rows over d, columns over c)");
  ensure_dim(a.rows() >= a.cols(), "ca_cqr: requires m >= n");
}

/// b = a at b's element type: the Gram lanes' staging steps (an exact
/// copy at fp64; at fp32 a rounding narrow in, an exact widen out).
void convert(lin::ConstMatrixView a, lin::MatrixView b) { lin::copy(a, b); }
void convert(lin::ConstMatrixView a, lin::MatrixFView b) { lin::narrow(a, b); }
void convert(lin::ConstMatrixFView a, lin::MatrixView b) { lin::widen(a, b); }

/// Lines 1-5 on the Gram lane of element type T: double at fp64, float at
/// mixed and fp32.  Both lanes run this one schedule -- the same
/// collectives on the same peers, each moving a matrix's wire() words --
/// so the fp32 lane moves half the words (two floats per word).  That
/// lane narrows the fp64 panel and returns the widened image of its sum,
/// so everything downstream runs fp64 on fp32-rounded data -- the
/// CholeskyQR2 second pass absorbs that rounding.
template <class T>
DistMatrix gram_lane(const DistMatrix& a, const grid::TunableGrid& g) {
  constexpr bool f32 = std::is_same_v<T, float>;
  const int c = g.c();
  const auto [x, y, z] = g.coords();
  const i64 n = a.cols();
  const lin::Matrix& al = a.local();

  // Line 1: Bcast(A -> W, root x == z, Pi[:, y, z]).  Only the root
  // stages its panel (a threaded copy, or narrow); everyone else receives
  // into uninitialized storage the Bcast fully overwrites.
  auto w = lin::BasicMatrix<T>::uninit(al.rows(), al.cols());
  if (x == z) convert(al, w);
  g.row().bcast(w.wire(), z);

  // Line 2: X = W^T * A_local, the (l = z mod c, j = x mod c) block of the
  // Gram matrix partially summed over this rank's row class.  With c == 1
  // W coincides with A_local (the bcast above was the size-1 no-op) and
  // the product is a symmetric rank-k update (Algorithm 6 line 1), at half
  // the flops.  beta == 0 either way, so the block is uninitialized
  // staging too.
  auto xbuf = lin::BasicMatrix<T>::uninit(n / c, n / c);
  if constexpr (f32) {
    if (c == 1) {
      lin::gram_f32(1.0f, w, 0.0f, xbuf);
    } else {
      lin::MatrixF af = lin::MatrixF::uninit(al.rows(), al.cols());
      convert(al, af);
      lin::gemm_f32(lin::Trans::T, lin::Trans::N, 1.0f, w, af, 0.0f, xbuf);
    }
  } else if (c == 1) {
    lin::gram(1.0, w, 0.0, xbuf);
  } else {
    lin::gemm(lin::Trans::T, lin::Trans::N, 1.0, w, al, 0.0, xbuf);
  }

  // Line 3: Reduce within the contiguous y-group onto the member with
  // y mod c == z (group-comm rank z).  Line 4: Allreduce across the
  // strided y-group completes the sum over all d row classes (meaningful
  // on the group roots; the next broadcast overwrites everyone else).
  const int root = z % g.ygroup_contig().size();
  if constexpr (f32) {
    g.ygroup_contig().reduce_sum_f32(xbuf.wire(), root);
    g.ygroup_strided().allreduce_sum_f32(xbuf.wire());
  } else {
    g.ygroup_contig().reduce_sum(xbuf.wire(), root);
    g.ygroup_strided().allreduce_sum(xbuf.wire());
  }

  // Line 5: Bcast along depth from root z == y mod c, after which every
  // rank holds the Gram block for (row class y mod c, column class x):
  // Z distributed over the subcube slice, replicated over depth.
  g.depth().bcast(xbuf.wire(), y % c);

  // Uninitialized: the conversion overwrites every element.
  const auto& sub = g.subcube();
  DistMatrix zmat = DistMatrix::uninit(n, n, sub.g(), sub.g(),
                                       sub.coords().y, sub.coords().x);
  convert(xbuf, zmat.local());
  return zmat;
}

}  // namespace

DistMatrix ca_gram(const DistMatrix& a, const grid::TunableGrid& g,
                   Precision gram_precision) {
  check_tunable_layout(a, g);
  return gram_precision == Precision::fp64 ? gram_lane<double>(a, g)
                                           : gram_lane<float>(a, g);
}

CaCqrResult detail::ca_cqr_1d(const DistMatrix& a, const grid::TunableGrid& g,
                              int passes, const CaCqrOptions& opts) {
  check_tunable_layout(a, g);
  DistMatrix q = DistMatrix::uninit(a.rows(), a.cols(), a.layout().row_procs,
                                    1, a.layout().my_row, 0);
  const Sweep1dPanel panel{a.rows(), a.local(), q.local()};
  std::vector<Sweep1dItem> items =
      cqr_1d_sweep({&panel, 1}, g.col(), passes, opts.precision, opts.shift);
  if (items[0].error) std::rethrow_exception(items[0].error);
  // R is replicated: the 1 x 1 subcube slice holds all of it.
  return {std::move(q), DistMatrix::from_global(items[0].r, 1, 1, 0, 0)};
}

CaCqrResult ca_cqr(const DistMatrix& a, const grid::TunableGrid& g,
                   CaCqrOptions opts) {
  if (g.c() == 1) return detail::ca_cqr_1d(a, g, 1, opts);
  check_tunable_layout(a, g);
  const int c = g.c();
  const int d = g.d();
  const auto [x, y, z] = g.coords();
  (void)z;
  const i64 m = a.rows();
  const i64 n = a.cols();

  // Lines 1-5: Gram matrix on the subcube slice (fp32 lane when this
  // pass's options ask for it; Cholesky and the Q update below are
  // always fp64).
  DistMatrix zmat = ca_gram(a, g, opts.precision);

  // Optional diagonal shift (shifted CholeskyQR): global entry (i, i)
  // lives on the subcube rank with row class == column class.
  if (opts.shift != 0.0) {
    const auto& lay = zmat.layout();
    if (lay.my_row == lay.my_col) {
      for (i64 li = 0; li < lay.local_rows(); ++li) {
        zmat.local()(li, li) += opts.shift;
      }
    }
  }

  // Lines 6-7: CFR3D on the subcube gives R^T and R^{-T} (block diagonal
  // when inverse_depth > 0).
  auto [rt_factor, rinv_t] = chol::cfr3d(
      zmat, g.subcube(),
      {.base_case = opts.base_case, .inverse_depth = opts.inverse_depth});

  // Materialize R and R^{-1} via the Transpose collective.
  auto [r, rinv] = dist::transpose3d_pair(rt_factor, rinv_t, g.subcube());

  // Line 8: Q = A R^{-1}.  Present this subcube's (m c/d) x n row-panel
  // of A in subcube coordinates; with a full inverse this is one MM3D,
  // with a partial inverse the block back-substitution sweep (the
  // InverseDepth strategy) -- either way no communication crosses
  // subcubes.
  const DistMatrix a_panel =
      a.reinterpret_layout(m * c / d, n, c, c, y % c, x);
  // Match the depth CFR3D actually used after clamping.
  const i64 nblocks = i64(1) << chol::effective_inverse_depth(
                          n, c, opts.base_case, opts.inverse_depth);
  const DistMatrix q_panel =
      dist::block_backsolve(a_panel, r, rinv, nblocks, g.subcube());
  return {q_panel.reinterpret_layout(m, n, d, c, y, x), std::move(r)};
}

DistMatrix compose_r(const DistMatrix& r2, const DistMatrix& r1,
                     const grid::TunableGrid& g) {
  return dist::mm3d(r2, r1, g.subcube());
}

CaCqrResult ca_cqr2(const DistMatrix& a, const grid::TunableGrid& g,
                    CaCqrOptions opts) {
  if (g.c() == 1) return detail::ca_cqr_1d(a, g, 2, opts);
  // Lines 1-2: two CA-CQR passes (the shift, if any, applies to the first
  // pass only; the second factors an already well-conditioned Q1).  An
  // fp32 Gram follows the same pattern: `mixed` confines it to the first
  // pass -- the fp64 second pass is the correction sweep that restores
  // fp64-level orthogonality -- while `fp32` keeps it for both.
  CaCqrResult first = ca_cqr(a, g, opts);
  CaCqrResult second =
      ca_cqr(first.q, g,
             {.base_case = opts.base_case, .shift = 0.0,
              .inverse_depth = opts.inverse_depth,
              .precision = opts.precision == Precision::fp32
                               ? Precision::fp32
                               : Precision::fp64});
  // Line 4: R = R2 * R1.
  CaCqrResult out;
  out.q = std::move(second.q);
  out.r = compose_r(second.r, first.r, g);
  return out;
}

}  // namespace cacqr::core
