#include "cacqr/core/batched.hpp"

#include <cstddef>
#include <utility>

#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/parallel.hpp"
#include "cacqr/obs/trace.hpp"
#include "internal.hpp"

namespace cacqr::core {

namespace {

/// Whether a shifted rerun can repair this breakdown: a NaN or Inf pivot
/// (NonFiniteError) it cannot.
bool shift_can_repair(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const NonFiniteError&) {
    return false;
  } catch (...) {
    return true;
  }
}

/// Rank `me`'s rows of `a` over `p` ranks into `out`: local row li is
/// global row me + li p, and rows past a's last are zero -- the block
/// DistMatrix::from_global cuts from pad_for_grid(a, 1, p).  Each column
/// has one writer, as in from_global.
void scatter_rows(lin::ConstMatrixView a, int p, int me, lin::MatrixView out) {
  lin::parallel::parallel_for_cols(out.rows, out.cols, [&](i64 j0, i64 j1) {
    for (i64 j = j0; j < j1; ++j) {
      for (i64 li = 0; li < out.rows; ++li) {
        const i64 i = me + li * p;
        out(li, j) = i < a.rows ? a(i, j) : 0.0;
      }
    }
  });
}

/// The first a.rows rows of the panel whose row-cyclic blocks sit in
/// `all`, one per rank, `stride` words apart: the inverse of scatter_rows
/// without its zero rows.  Each column has one writer.
lin::Matrix unpack_rows(const double* all, std::size_t stride, int p,
                        i64 lr, i64 m, i64 n) {
  lin::Matrix q = lin::Matrix::uninit(m, n);
  lin::parallel::parallel_for_cols(m, n, [&](i64 j0, i64 j1) {
    for (int r = 0; r < p; ++r) {
      const double* block = all + static_cast<std::size_t>(r) * stride;
      for (i64 j = j0; j < j1; ++j) {
        for (i64 li = 0; r + li * p < m; ++li) {
          q(r + li * p, j) = block[li + j * lr];
        }
      }
    }
  });
  return q;
}

}  // namespace

std::vector<BatchedItem> factorize_batched(
    std::span<const lin::ConstMatrixView> panels, const rt::Comm& world,
    const BatchedOptions& opts) {
  const int p = world.size();
  const int me = world.rank();
  const std::size_t b = panels.size();
  std::vector<BatchedItem> out(b);
  if (b == 0) return out;

  obs::SpanScope batch_span("core", "factorize_batched");
  batch_span.arg("b", static_cast<double>(b));

  // Panel i's rows on this rank: lr[i] = ceil(m_i / p) rows, at word
  // off[i] of this rank's block of the workspace.
  std::vector<i64> lr(b);
  std::vector<std::size_t> off(b + 1, 0);
  for (std::size_t i = 0; i < b; ++i) {
    const lin::ConstMatrixView& a = panels[i];
    ensure_dim(a.rows >= a.cols && a.cols >= 1,
               "factorize_batched: requires m >= n >= 1");
    lr[i] = ceil_div(a.rows, p);
    off[i + 1] = off[i] + static_cast<std::size_t>(lr[i] * a.cols);
  }
  // The ranks that receive Q hold all p blocks, theirs at its rank slot;
  // under `root` the others hold only their own.
  const std::size_t w = off[b];
  const bool receives = opts.result == ResultShape::replicated || me == 0;
  const std::span<double> ws =
      lin::kernel::workspace(receives ? w * static_cast<std::size_t>(p) : w);
  const std::span<double> mine =
      ws.subspan(receives ? w * static_cast<std::size_t>(me) : 0, w);

  std::vector<detail::Sweep1dPanel> sweep(b);
  for (std::size_t i = 0; i < b; ++i) {
    const lin::MatrixView block{mine.data() + off[i], lr[i], panels[i].cols,
                                lr[i]};
    scatter_rows(panels[i], p, me, block);
    sweep[i] = {lr[i] * p, block, block};
  }
  std::vector<detail::Sweep1dItem> swept =
      detail::cqr_1d_sweep(sweep, world, 2, opts.precision);

  // The breakdowns a shift can repair (not a NaN or Inf pivot) rerun
  // shifted CholeskyQR3 as one more fused sweep over just those panels,
  // scattered afresh (an earlier pass may have multiplied them); a panel
  // that breaks down again keeps that error.
  std::vector<std::size_t> rerun;
  for (std::size_t i = 0; i < b; ++i) {
    if (swept[i].error && shift_can_repair(swept[i].error)) {
      rerun.push_back(i);
    }
  }
  if (!rerun.empty()) {
    obs::SpanScope span("core", "shifted_rerun");
    span.arg("b", static_cast<double>(rerun.size()));
    std::vector<detail::Sweep1dPanel> broken;
    broken.reserve(rerun.size());
    for (const std::size_t i : rerun) {
      scatter_rows(panels[i], p, me, sweep[i].q);
      broken.push_back(sweep[i]);
    }
    std::vector<detail::Sweep1dItem> shifted =
        detail::cqr_1d_sweep(broken, world, 3, opts.precision);
    for (std::size_t j = 0; j < rerun.size(); ++j) {
      swept[rerun[j]] = std::move(shifted[j]);
      out[rerun[j]].used_shift = true;
    }
  }

  // One collective moves every panel's Q to the receiving ranks.
  if (opts.result == ResultShape::replicated) {
    world.allgather(mine, ws);
  } else {
    world.gather(mine, receives ? ws : std::span<double>{}, 0);
  }
  for (std::size_t i = 0; i < b; ++i) {
    if (swept[i].error) {
      out[i].ok = false;
      out[i].error = swept[i].error;
      continue;
    }
    if (receives) {
      out[i].q = unpack_rows(ws.data() + off[i], w, p, lr[i], panels[i].rows,
                             panels[i].cols);
    }
    out[i].r = std::move(swept[i].r);
  }
  return out;
}

}  // namespace cacqr::core
