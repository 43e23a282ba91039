#include <algorithm>

#include "cacqr/chol/cfr3d.hpp"
#include "cacqr/lin/factor.hpp"

namespace cacqr::chol {

using dist::DistMatrix;

i64 effective_base_case(i64 n, int g, i64 requested) {
  const i64 gg = static_cast<i64>(g);
  i64 target = requested > 0 ? requested : std::max<i64>(gg, n / (gg * gg));
  target = std::max(target, gg);
  i64 n0 = n;
  while (n0 > target && n0 % 2 == 0 && (n0 / 2) % gg == 0) n0 /= 2;
  return n0;
}

int effective_inverse_depth(i64 n, int g, i64 base_case, int inverse_depth) {
  const i64 n0 = effective_base_case(n, g, base_case);
  int levels = 0;
  for (i64 lv = n; lv > n0; lv /= 2) ++levels;
  return std::min(inverse_depth, levels);
}

namespace {

Cfr3dResult cfr3d_rec(const DistMatrix& a, const grid::CubeGrid& grid,
                      i64 n0, int inverse_depth) {
  const i64 n = a.rows();

  if (n <= n0) {
    // Base case (Algorithm 3 lines 2-3): allgather the submatrix over the
    // slice, factor redundantly, keep the local cyclic pieces.
    lin::Matrix t = dist::gather(a, grid.slice());
    auto seq = lin::cholinv(t);
    return {DistMatrix::from_global_on_cube(seq.l, grid),
            DistMatrix::from_global_on_cube(seq.l_inv, grid)};
  }

  // Lines 5-14, with the transposes materialized by the Transpose
  // collective exactly as the paper's cost table charges them.
  DistMatrix a11 = a.quadrant(0, 0);
  DistMatrix a21 = a.quadrant(1, 0);

  const int child_depth = inverse_depth > 0 ? inverse_depth - 1 : 0;
  Cfr3dResult top = cfr3d_rec(a11, grid, n0, child_depth);

  // Line 6-7: W = Y11^T;  L21 = A21 * W.  With a partial inverse Y11 is
  // block diagonal, so L21 = A21 L11^{-T} is recovered by the generic
  // block back-substitution against R11 = L11^T instead.
  DistMatrix l21;
  if (child_depth > 0) {
    auto [r11, y11t] = dist::transpose3d_pair(top.l, top.l_inv, grid);
    l21 = dist::block_backsolve(a21, r11, y11t, i64(1) << child_depth, grid);
  } else {
    DistMatrix w = dist::transpose3d(top.l_inv, grid);
    l21 = dist::mm3d(a21, w, grid);
  }

  // Line 8-10: X = L21^T;  Z = A22 - L21 * X.
  DistMatrix x = dist::transpose3d(l21, grid);
  DistMatrix z = a.quadrant(1, 1);
  {
    DistMatrix u = dist::mm3d(l21, x, grid);
    dist::add_scaled(z, -1.0, u);
  }

  // Line 11: recurse on the Schur complement.
  Cfr3dResult bottom = cfr3d_rec(z, grid, n0, child_depth);

  // Assemble [L11 0; L21 L22]; Y gets its off-diagonal block (lines
  // 12-14) only below the requested inverse depth.
  const auto& lay = a.layout();
  Cfr3dResult out{
      DistMatrix(n, n, lay.row_procs, lay.col_procs, lay.my_row, lay.my_col),
      DistMatrix(n, n, lay.row_procs, lay.col_procs, lay.my_row, lay.my_col)};
  out.l.set_quadrant(0, 0, top.l);
  out.l.set_quadrant(1, 0, l21);
  out.l.set_quadrant(1, 1, bottom.l);
  out.l_inv.set_quadrant(0, 0, top.l_inv);
  out.l_inv.set_quadrant(1, 1, bottom.l_inv);
  if (inverse_depth == 0) {
    // Lines 12-14: Y21 = -Y22 * (L21 * Y11).
    DistMatrix u2 = dist::mm3d(l21, top.l_inv, grid);
    DistMatrix y21 = dist::mm3d(bottom.l_inv, u2, grid, -1.0);
    out.l_inv.set_quadrant(1, 0, y21);
  }
  return out;
}

}  // namespace

Cfr3dResult cfr3d(const DistMatrix& a, const grid::CubeGrid& g,
                  Cfr3dOptions opts) {
  ensure_dim(a.rows() == a.cols(), "cfr3d: matrix must be square");
  ensure_dim(a.layout().row_procs == g.g() && a.layout().col_procs == g.g(),
             "cfr3d: operand not distributed over this grid");
  ensure_dim(opts.inverse_depth >= 0, "cfr3d: negative inverse_depth");
  return cfr3d_rec(
      a, g, effective_base_case(a.rows(), g.g(), opts.base_case),
      effective_inverse_depth(a.rows(), g.g(), opts.base_case,
                              opts.inverse_depth));
}

}  // namespace cacqr::chol
