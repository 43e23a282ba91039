#include "cacqr/core/batched.hpp"

#include <cstddef>
#include <utility>

#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/obs/trace.hpp"
#include "internal.hpp"

namespace cacqr::core {

using dist::DistMatrix;

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

}  // namespace

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

  std::vector<detail::Sweep1dItem> swept =
      detail::cqr_1d_sweep(da, world, opts.passes, opts.precision);

  // With auto_shift, the breakdowns a shift can repair (not a NaN or Inf
  // pivot) rerun shifted CholeskyQR3 as one more fused sweep over just
  // those panels; a panel that breaks down again keeps that error.
  std::vector<std::size_t> rerun;
  if (opts.auto_shift && opts.passes < 3) {
    for (std::size_t i = 0; i < b; ++i) {
      if (swept[i].error && shift_can_repair(swept[i].error)) {
        rerun.push_back(i);
      }
    }
  }
  if (!rerun.empty()) {
    obs::SpanScope span("core", "shifted_rerun");
    span.arg("b", static_cast<double>(rerun.size()));
    std::vector<DistMatrix> broken;
    broken.reserve(rerun.size());
    for (const std::size_t i : rerun) broken.push_back(std::move(da[i]));
    std::vector<detail::Sweep1dItem> shifted =
        detail::cqr_1d_sweep(broken, world, 3, opts.precision);
    for (std::size_t j = 0; j < rerun.size(); ++j) {
      swept[rerun[j]] = std::move(shifted[j]);
      out[rerun[j]].used_shift = true;
    }
  }

  // Gather the survivors and strip the padding, in panel order.
  for (std::size_t i = 0; i < b; ++i) {
    if (opts.passes == 3) out[i].used_shift = true;
    if (swept[i].error) {
      out[i].ok = false;
      out[i].error = swept[i].error;
      continue;
    }
    out[i].q = detail::strip(dist::gather(swept[i].q, world), padded[i].m,
                             padded[i].n);
    out[i].r = std::move(swept[i].r);
  }
  return out;
}

}  // namespace cacqr::core
