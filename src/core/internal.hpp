#pragma once
/// \file internal.hpp
/// \brief Pieces shared by the core TUs: the padding helpers, the
///        one 1D-CholeskyQR sweep, and the CA-CQR grid path.
///
/// The padding contract is part of the bitwise-determinism story: the
/// standalone driver (factorize.cpp) and the batched driver (batched.cpp)
/// must produce byte-identical padded inputs for the same panel, so the
/// helpers live here instead of being duplicated per TU.  The same goes
/// for the code that consumes them: cqr_1d, cqr2_1d and factorize_batched
/// all run cqr_1d_sweep (cqr_1d.cpp), and factorize's CA-CQR grid path
/// doubles as factorize_batched's shifted rerun.

#include <algorithm>
#include <cmath>
#include <exception>
#include <span>
#include <utility>
#include <vector>

#include "cacqr/core/factorize.hpp"
#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/lin/matrix.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/support/math.hpp"

namespace cacqr::core::detail {

/// Padded dimensions and the padded matrix itself (see factorize.hpp).
struct Padded {
  lin::Matrix a;
  i64 m = 0;  ///< original rows
  i64 n = 0;  ///< original cols
};

/// Pads columns to a multiple of `col_mult` (delta-scaled identity) and
/// rows to a multiple of `row_mult` (zero rows), keeping m_pad >= n_pad.
inline Padded pad_to_multiples(lin::ConstMatrixView a, i64 row_mult,
                               i64 col_mult) {
  const i64 m = a.rows;
  const i64 n = a.cols;
  const i64 n_pad = round_up(n, col_mult);
  const i64 m_pad = round_up(std::max(m + (n_pad - n), n_pad), row_mult);
  if (m_pad == m && n_pad == n) {
    return {lin::materialize(a), m, n};
  }
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

/// The 1D-CholeskyQR sweep (paper Algorithms 6-7): `passes` (1 or 2)
/// passes over row-distributed panels (col_procs == 1, row_procs ==
/// comm.size(), m >= n), each pass fusing the per-panel Gram Allreduces
/// into one collective, then R = R2 * R1 per panel.  `precision` maps
/// onto the passes as cqr2_1d documents.  A panel whose Cholesky breaks
/// down keeps its NotSpdError and sits out the later pass; every rank
/// records the same failures, since the factored input is replicated by
/// the Allreduce.  Other errors propagate.  Collective.
[[nodiscard]] std::vector<Sweep1dItem> cqr_1d_sweep(
    std::span<const dist::DistMatrix> panels, const rt::Comm& comm,
    int passes, Precision precision);

/// factorize's CA-CQR path on a (c, d) grid for a panel already padded by
/// pad_for_grid(a, c, d): scatter, ca_cqr / ca_cqr2 / ca_cqr3 by
/// opts.passes (with the auto_shift fallback to ca_cqr3), gather, strip.
[[nodiscard]] FactorizeResult run_ca_cqr(const Padded& padded,
                                         const rt::Comm& world,
                                         const FactorizeOptions& opts, int c,
                                         int d);

}  // namespace cacqr::core::detail
