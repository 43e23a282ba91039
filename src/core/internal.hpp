#pragma once
/// \file internal.hpp
/// \brief Pieces shared by the core TUs: the one 1D-CholeskyQR sweep.
///
/// cqr_1d, cqr2_1d, factorize_batched (shifted reruns included) and
/// ca_cqr / ca_cqr2 / ca_cqr3 on a c = 1 grid all run cqr_1d_sweep
/// (cqr_1d.cpp), so their bitwise agreement holds by construction.

#include <exception>
#include <span>
#include <vector>

#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/lin/matrix.hpp"
#include "cacqr/support/math.hpp"

namespace cacqr::core::detail {

/// One panel of cqr_1d_sweep on the calling rank: its rows of A (row
/// cyclic over the communicator, as DistMatrix lays out col_procs == 1)
/// and where its rows of Q go.
struct Sweep1dPanel {
  i64 rows = 0;             ///< global m (the shift's scale)
  lin::ConstMatrixView a;   ///< this rank's rows of A
  lin::MatrixView q;        ///< this rank's rows of Q: `a`'s shape, and
                            ///< `a` itself to factor in place
};

/// One panel's outcome of cqr_1d_sweep: R replicated, or (error set) the
/// panel's NotSpdError.
struct Sweep1dItem {
  lin::Matrix r;
  std::exception_ptr error;
};

/// The 1D-CholeskyQR sweep (paper Algorithms 6-7): `passes` passes over
/// row-distributed panels (m >= n), each pass fusing the per-panel Gram
/// Allreduces into one collective.  Pass 1 reads each panel's `a` and
/// copies it into `q` when they differ (after the Gram Allreduce); every
/// pass then multiplies `q` in place.  passes == 3 is shifted CholeskyQR3
/// in fp64: pass 1 adds each panel's recommended_shifts entry to its Gram
/// diagonal, then R = (R3 R2) R1 (ca_cqr3's order); otherwise pass 1 adds
/// `shift` (0 = none), R = R2 R1, and `precision` maps onto the passes as
/// cqr2_1d documents.  A panel whose Cholesky breaks down keeps its
/// NotSpdError and sits out the later passes, its `q` holding whatever the
/// last finished pass left there; every rank records the same failures,
/// since the factored input is replicated by the Allreduce.  Other errors
/// propagate.  Collective.
[[nodiscard]] std::vector<Sweep1dItem> cqr_1d_sweep(
    std::span<const Sweep1dPanel> panels, const rt::Comm& comm, int passes,
    Precision precision, double shift = 0.0);

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
    std::span<const Sweep1dPanel> panels, const rt::Comm& comm);

}  // namespace cacqr::core::detail
