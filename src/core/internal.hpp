#pragma once
/// \file internal.hpp
/// \brief Pieces shared by the core TUs: the padding helpers and the
///        one 1D-CholeskyQR sweep.
///
/// The padding contract is part of the bitwise-determinism story: the
/// standalone driver (factorize.cpp) and the batched driver (batched.cpp)
/// must produce byte-identical padded inputs for the same panel, so the
/// helpers live here instead of being duplicated per TU.  The same goes
/// for the code that consumes them: cqr_1d, cqr2_1d, factorize_batched
/// (shifted reruns included) and ca_cqr / ca_cqr2 / ca_cqr3 on a c = 1
/// grid all run cqr_1d_sweep (cqr_1d.cpp).

#include <algorithm>
#include <cmath>
#include <exception>
#include <span>
#include <utility>
#include <vector>

#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/lin/matrix.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/support/math.hpp"

namespace cacqr::core::detail {

/// The padded matrix (see factorize.hpp): a view of the caller's matrix
/// when its shape already fits, else of `owned`, the padded copy.
/// Move-only: a move keeps `owned`'s buffer and so `a`; a copy would not.
struct Padded {
  lin::Matrix owned;
  lin::ConstMatrixView a;
  i64 m = 0;  ///< original rows
  i64 n = 0;  ///< original cols

  Padded(lin::ConstMatrixView view, i64 rows, i64 cols)
      : a(view), m(rows), n(cols) {}
  Padded(lin::Matrix padded, i64 rows, i64 cols)
      : owned(std::move(padded)), a(owned.view()), m(rows), n(cols) {}
  Padded(Padded&&) noexcept = default;
};

/// Pads columns to a multiple of `col_mult` (delta-scaled identity) and
/// rows to a multiple of `row_mult` (zero rows), keeping m_pad >= n_pad.
/// Copies only when it pads.
inline Padded pad_to_multiples(lin::ConstMatrixView a, i64 row_mult,
                               i64 col_mult) {
  const i64 m = a.rows;
  const i64 n = a.cols;
  const i64 n_pad = round_up(n, col_mult);
  const i64 m_pad = round_up(std::max(m + (n_pad - n), n_pad), row_mult);
  if (m_pad == m && n_pad == n) return {a, m, n};
  const double fro = lin::frob_norm(a);
  const double delta =
      fro > 0.0 ? fro / std::sqrt(static_cast<double>(n)) : 1.0;
  lin::Matrix padded(m_pad, n_pad);
  lin::copy(a, padded.sub(0, 0, m, n));
  for (i64 j = n; j < n_pad; ++j) {
    padded(m + (j - n), j) = delta;
  }
  return {std::move(padded), m, n};
}

/// The leading rows x cols block of a gathered factor: `full` itself when
/// nothing was padded, else a copy.
inline lin::Matrix strip(lin::Matrix full, i64 rows, i64 cols) {
  if (full.rows() == rows && full.cols() == cols) return full;
  return lin::materialize(full.sub(0, 0, rows, cols));
}

inline Padded pad_for_grid(lin::ConstMatrixView a, int c, int d) {
  return pad_to_multiples(a, d, c);
}

/// One panel's outcome of cqr_1d_sweep: Q distributed like the panel and
/// R replicated, or (error set) the panel's NotSpdError.
struct Sweep1dItem {
  dist::DistMatrix q;
  lin::Matrix r;
  std::exception_ptr error;
};

/// The 1D-CholeskyQR sweep (paper Algorithms 6-7): `passes` passes over
/// row-distributed panels (col_procs == 1, row_procs == comm.size(),
/// m >= n), each pass fusing the per-panel Gram Allreduces into one
/// collective.  passes == 3 is shifted CholeskyQR3 in fp64: pass 1 adds
/// each panel's recommended_shifts entry to its Gram diagonal, then R =
/// (R3 R2) R1 (ca_cqr3's order); otherwise pass 1 adds `shift` (0 = none),
/// R = R2 R1, and `precision` maps onto the passes as cqr2_1d documents.
/// A panel whose Cholesky breaks down keeps its NotSpdError and sits out
/// the later passes; every rank records the same failures, since the
/// factored input is replicated by the Allreduce.  Other errors
/// propagate.  Collective.
[[nodiscard]] std::vector<Sweep1dItem> cqr_1d_sweep(
    std::span<const dist::DistMatrix> panels, const rt::Comm& comm,
    int passes, Precision precision, double shift = 0.0);

/// CA-CQR over `passes` passes on a c = 1 grid: cqr_1d_sweep on g.col()
/// as a batch of one (ca_cqr.cpp).  There x = z = 0 and y is the world
/// rank, so g.col() spans the whole grid in world order.
[[nodiscard]] CaCqrResult ca_cqr_1d(const dist::DistMatrix& a,
                                    const grid::TunableGrid& g, int passes,
                                    const CaCqrOptions& opts);

/// recommended_shift per panel over ||A||_F^2: one Allreduce over `comm`
/// (whose ranks hold disjoint pieces of each panel) sums every panel's
/// local sum of squares (shifted.cpp).  Collective.
[[nodiscard]] std::vector<double> recommended_shifts(
    std::span<const dist::DistMatrix> panels, const rt::Comm& comm);

}  // namespace cacqr::core::detail
