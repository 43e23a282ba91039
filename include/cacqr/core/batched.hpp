#pragma once
/// \file batched.hpp
/// \brief Stacked 1D-CholeskyQR2 sweep over a micro-batch of tall-skinny
///        panels: one Gram Allreduce per pass for the whole batch.
///
/// The serving scheduler (serve/) runs every small factorize job of a
/// round whose heuristic grid is 1D through one call of this entry point,
/// so the per-message alpha of the Gram Allreduce is paid once per batch
/// instead of once per job -- the same aggregation argument the paper
/// applies to panel latency, lifted to whole requests.  Each panel's
/// local Gram contribution is written into a slab at a fixed offset and a
/// single Allreduce sums the concatenation.
///
/// Bitwise contract: every panel's Q/R are byte-identical to the same
/// panel run standalone through `factorize` on the cqr_1d plan or on a
/// c = 1 grid (the heuristic grid whenever `choose_grid` gives c = 1).
/// This holds because the Allreduce schedule (recursive-halving
/// reduce-scatter + Bruck allgather, src/rt/collectives.cpp) pairs RANKS,
/// not elements: the per-element summation tree has the same shape at
/// every offset of any payload, the keeper/sender role swap only commutes
/// IEEE additions (bitwise-safe), and everything outside the Allreduce is
/// per-panel local arithmetic executed by the same thread at the same
/// budget.  The sweep itself is the one in cqr_1d.cpp: cqr_1d, cqr2_1d,
/// factorize on the cqr_1d plan and ca_cqr / ca_cqr2 / ca_cqr3 on a c = 1
/// grid all run it on a batch of one, so the paths are literally the same
/// code; tests/serve/test_batched.cpp asserts the byte-equality across
/// budgets x precision.  Broken panels rerun shifted CholeskyQR3 as one
/// more fused sweep of the same code.
///
/// Data motion: each rank scatters its rows of every panel (zero rows pad
/// m to a multiple of P, as factorize pads at c = 1) straight into one
/// workspace, stacked in panel order, and the sweep factors them there in
/// place.  The workspace is the rank thread's grow-only
/// lin::kernel::workspace() arena, so a warm rank thread (a serving
/// lane) allocates no staging for a batch it has seen the size of.  ONE
/// collective per batch then moves every Q: an Allgather of the whole
/// workspace (ResultShape::replicated) or a binomial Gather of it to
/// rank 0, which receives in place (ResultShape::root).  One unpack
/// writes each result's first m rows.

#include <exception>
#include <span>
#include <vector>

#include "cacqr/lin/matrix.hpp"
#include "cacqr/rt/comm.hpp"
#include "cacqr/support/precision.hpp"

namespace cacqr::core {

/// Which ranks receive each panel's Q.  R is n x n and replicated on
/// every rank either way.
enum class ResultShape {
  replicated,  ///< every rank: one Allgather of the workspace per batch
  root,        ///< rank 0 alone: one Gather per batch; other ranks' items
               ///< carry an empty q
};

/// Options shared by every panel of one batched sweep.
struct BatchedOptions {
  Precision precision = Precision::fp64;  ///< as FactorizeOptions::precision
  ResultShape result = ResultShape::replicated;
};

/// Per-panel outcome of a batched sweep.
struct BatchedItem {
  lin::Matrix q;  ///< m x n; empty off rank 0 under ResultShape::root
  lin::Matrix r;
  bool ok = true;           ///< false: `error` holds the panel's failure
  bool used_shift = false;  ///< panel fell back to shifted CholeskyQR3
  std::exception_ptr error;
};

/// Factors each panel (m_i x n_i, m_i >= n_i >= 1) with CholeskyQR2 over
/// the full communicator exactly like `factorize` on the cqr_1d plan, but
/// with the per-pass Gram Allreduces of the whole batch fused into one
/// collective.  Panels may differ in shape; they share `opts`.
/// Collective: every rank passes the same panel sequence.  A panel whose
/// Cholesky breaks down (NotSpdError) is isolated: it reruns shifted
/// CholeskyQR3 after the sweep (used_shift = true), in one fused sweep
/// with the batch's other breakdowns.  Its item carries the error (ok =
/// false) when the rerun breaks down too, or when a pivot was NaN or Inf
/// (NonFiniteError, never rerun).  The other panels of the batch are
/// unaffected either way.  Non-NotSpd errors propagate by throwing, as
/// standalone.  Charge beyond the sweeps: one Allgather
/// (replicated) or Gather to rank 0 (root) of each rank's workspace block,
/// sum over panels of ceil(m_i / P) n_i words (rt/comm.hpp's cost table).
[[nodiscard]] std::vector<BatchedItem> factorize_batched(
    std::span<const lin::ConstMatrixView> panels, const rt::Comm& world,
    const BatchedOptions& opts = {});

}  // namespace cacqr::core
