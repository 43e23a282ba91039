#include "cacqr/core/batched.hpp"

#include <cstddef>
#include <utility>

#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/obs/trace.hpp"
#include "internal.hpp"

namespace cacqr::core {

using dist::DistMatrix;

std::vector<BatchedItem> factorize_batched(
    std::span<const lin::ConstMatrixView> panels, const rt::Comm& world,
    const BatchedOptions& opts) {
  ensure(opts.passes >= 1 && opts.passes <= 3,
         "factorize_batched: passes must be 1, 2 or 3");
  const int p = world.size();
  const std::size_t b = panels.size();
  std::vector<BatchedItem> out(b);
  if (b == 0) return out;

  obs::SpanScope batch_span("core", "factorize_batched");
  batch_span.arg("b", static_cast<double>(b));
  batch_span.arg("passes", opts.passes);

  // Pad + scatter every panel exactly as the standalone driver does.
  std::vector<detail::Padded> padded;
  std::vector<DistMatrix> da;
  padded.reserve(b);
  da.reserve(b);
  for (const lin::ConstMatrixView& a : panels) {
    ensure_dim(a.rows >= a.cols && a.cols >= 1,
               "factorize_batched: requires m >= n >= 1");
    padded.push_back(detail::pad_for_grid(a, 1, p));
    da.push_back(
        DistMatrix::from_global(padded.back().a, p, 1, world.rank(), 0));
  }

  // Panels that rerun shifted CholeskyQR3 after the sweep: every panel at
  // passes == 3, otherwise the sweep's breakdowns when auto_shift is on.
  std::vector<bool> shift(b, opts.passes == 3);
  if (opts.passes < 3) {
    std::vector<detail::Sweep1dItem> swept =
        detail::cqr_1d_sweep(da, world, opts.passes, opts.precision);
    // Gather the sweep's survivors and strip the padding, in panel order.
    for (std::size_t i = 0; i < b; ++i) {
      if (swept[i].error && opts.auto_shift) {
        shift[i] = true;
      } else if (swept[i].error) {
        out[i].ok = false;
        out[i].error = swept[i].error;
      } else {
        lin::Matrix q_full = dist::gather(swept[i].q, world);
        out[i].q =
            lin::materialize(q_full.sub(0, 0, padded[i].m, padded[i].n));
        out[i].r = std::move(swept[i].r);
      }
    }
  }

  // Shifted reruns through factorize's c = 1 CA-CQR path, one panel at a
  // time (collective, the same order on every rank): the broken panels
  // pay their own full-fp64 CQR3 without touching the batch's fast path.
  for (std::size_t i = 0; i < b; ++i) {
    if (!shift[i]) continue;
    obs::SpanScope span("core", "shifted_rerun");
    span.arg("n", static_cast<double>(padded[i].n));
    FactorizeResult fact = detail::run_ca_cqr(
        padded[i], world,
        {.base_case = opts.base_case, .passes = 3,
         .precision = opts.precision},
        1, p);
    out[i].q = std::move(fact.q);
    out[i].r = std::move(fact.r);
    out[i].used_shift = true;
  }
  return out;
}

}  // namespace cacqr::core
