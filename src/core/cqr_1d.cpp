#include "cacqr/core/cqr_1d.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/blas_f.hpp"
#include "cacqr/lin/factor.hpp"
#include "cacqr/lin/matrix_f.hpp"
#include "cacqr/obs/trace.hpp"
#include "internal.hpp"

namespace cacqr::core {

using dist::DistMatrix;

namespace {

void check_1d_layout(const DistMatrix& a, const rt::Comm& comm) {
  ensure_dim(a.layout().col_procs == 1 &&
                 a.layout().row_procs == comm.size() &&
                 a.layout().my_row == comm.rank(),
             "cqr_1d: matrix must be row-distributed over the communicator");
  ensure_dim(a.rows() >= a.cols(), "cqr_1d: requires m >= n");
}

/// cqr_1d / cqr2_1d: the sweep over a batch of one.
Cqr1dResult sweep_one(const DistMatrix& a, const rt::Comm& comm, int passes,
                      Precision precision) {
  check_1d_layout(a, comm);
  std::vector<detail::Sweep1dItem> items =
      detail::cqr_1d_sweep({&a, 1}, comm, passes, precision);
  if (items[0].error) std::rethrow_exception(items[0].error);
  return {std::move(items[0].q), std::move(items[0].r)};
}

}  // namespace

namespace detail {

std::vector<Sweep1dItem> cqr_1d_sweep(std::span<const DistMatrix> panels,
                                      const rt::Comm& comm, int passes,
                                      Precision precision) {
  std::vector<Sweep1dItem> out(panels.size());
  for (int pass = 1; pass <= passes; ++pass) {
    // The panels still standing (pass 2 skips pass 1's breakdowns); the
    // set is the same on every rank, so an empty one runs no collective
    // anywhere.
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (!out[i].error) live.push_back(i);
    }
    const std::size_t k = live.size();
    if (k == 0) break;
    // mixed runs only the first Gram in fp32 (the fp64 second pass is the
    // correction sweep); fp32 keeps both Grams in fp32.
    const bool f32_gram = pass == 1 ? precision != Precision::fp64
                                    : precision == Precision::fp32;
    // Pass 1 reads the caller's panels; pass 2 multiplies pass 1's Q.
    auto input = [&](std::size_t i) -> const DistMatrix& {
      return pass == 1 ? panels[i] : out[i].q;
    };

    obs::SpanScope pass_span("core", "cqr_pass");
    pass_span.arg("pass", pass);
    pass_span.arg("batch", static_cast<double>(k));

    // Slab offsets: live panel j's Gram occupies [off[j], off[j + 1])
    // doubles -- n^2 on the fp64 lane, MatrixF::wire's word count (two
    // floats per word, odd tail padded) on the fp32 lane.
    std::vector<std::size_t> off(k + 1, 0);
    for (std::size_t j = 0; j < k; ++j) {
      const i64 n = input(live[j]).cols();
      off[j + 1] = off[j] + static_cast<std::size_t>(
                                f32_gram ? (n * n + 1) / 2 : n * n);
    }

    // Line 1 per panel: local symmetric rank-(m/P) update X = A_p^T A_p
    // into the slab (beta == 0 overwrites, so the slab is uninitialized).
    // The fp32 lane narrows the panel, forms the Gram through the fp32
    // micro-kernel and copies its wire words, zeroed pad lane included.
    lin::Matrix slab = lin::Matrix::uninit(static_cast<i64>(off[k]), 1);
    std::vector<lin::MatrixF> zf(f32_gram ? k : 0);
    for (std::size_t j = 0; j < k; ++j) {
      const DistMatrix& a = input(live[j]);
      const i64 n = a.cols();
      obs::SpanScope span("core", "gram");
      span.arg("item", static_cast<double>(live[j]));
      span.arg("n", static_cast<double>(n));
      if (f32_gram) {
        lin::MatrixF af = lin::MatrixF::uninit(a.local().rows(), n);
        lin::narrow(a.local(), af);
        zf[j] = lin::MatrixF::uninit(n, n);
        lin::gram_f32(1.0f, af, 0.0f, zf[j]);
        const std::span<double> w = zf[j].wire();
        std::copy(w.begin(), w.end(), slab.data() + off[j]);
      } else {
        lin::gram(1.0, a.local(), 0.0,
                  lin::MatrixView{slab.data() + off[j], n, n, n});
      }
    }

    // Line 2: ONE Allreduce for the whole batch -- 2 ceil(lg P) alpha in
    // total instead of per panel.  Per-element sums do not depend on the
    // concatenation (the schedule pairs ranks, never elements -- see
    // batched.hpp), so each panel's sum is the one it would get alone.
    const std::span<double> words{slab.data(),
                                  static_cast<std::size_t>(slab.size())};
    rt::Request gram_sum = f32_gram ? comm.start_allreduce_sum_f32(words)
                                    : comm.start_allreduce_sum(words);
    // Line 4 multiplies Q in place, so pass 1 stages a copy of each
    // caller panel: with overlap on while the sum flies, the copy chunks
    // polling progress; overlap off completes the sum first, the blocking
    // order.  Pass 2 owns its input and multiplies it directly.
    if (pass == 1 && rt::overlap_enabled()) {
      rt::ProgressScope scope(comm);
      for (const std::size_t i : live) {
        out[i].q = DistMatrix::uninit(panels[i].rows(), panels[i].cols(),
                                      comm.size(), 1, comm.rank(), 0);
        lin::copy(panels[i].local(), out[i].q.local());
      }
    } else if (pass == 1) {
      gram_sum.wait();
      for (const std::size_t i : live) out[i].q = panels[i];
    }
    gram_sum.wait();

    // Lines 3-4 per panel: redundant CholInv R^T = chol(Z), R^{-T} =
    // L^{-1}, and the local triangular multiply Q_p = A_p R^{-1}.
    for (std::size_t j = 0; j < k; ++j) {
      Sweep1dItem& item = out[live[j]];
      const i64 n = item.q.cols();
      try {
        obs::SpanScope chol_span("core", "chol");
        chol_span.arg("item", static_cast<double>(live[j]));
        chol_span.arg("n", static_cast<double>(n));
        lin::Matrix z;
        lin::ConstMatrixView zv{slab.data() + off[j], n, n, n};
        if (f32_gram) {
          const std::span<double> w = zf[j].wire();
          std::copy(slab.data() + off[j], slab.data() + off[j] + w.size(),
                    w.data());
          z = lin::Matrix::uninit(n, n);
          lin::widen(zf[j], z);
          zv = z;
        }
        const lin::CholInvResult li = lin::cholinv(zv);
        chol_span.close();

        obs::SpanScope trsm_span("core", "trsm");
        trsm_span.arg("item", static_cast<double>(live[j]));
        trsm_span.arg("n", static_cast<double>(n));
        lin::trmm(lin::Side::Right, lin::Uplo::Lower, lin::Trans::T,
                  lin::Diag::NonUnit, 1.0, li.l_inv, item.q.local());
        trsm_span.close();

        // Transpose L into this pass's upper-triangular R (sequential:
        // the n^2/2 extraction is noise next to the n^3/3 cholinv), and
        // compose R = R2 * R1 on every rank after pass 2 (Algorithm 7).
        lin::Matrix r(n, n);
        for (i64 col = 0; col < n; ++col) {
          for (i64 row = 0; row <= col; ++row) r(row, col) = li.l(col, row);
        }
        if (pass == 1) {
          item.r = std::move(r);
        } else {
          lin::trmm(lin::Side::Left, lin::Uplo::Upper, lin::Trans::N,
                    lin::Diag::NonUnit, 1.0, r, item.r);
        }
      } catch (const NotSpdError&) {
        item.error = std::current_exception();
      }
    }
  }
  return out;
}

}  // namespace detail

Cqr1dResult cqr_1d(const DistMatrix& a, const rt::Comm& comm,
                   Precision gram_precision) {
  return sweep_one(a, comm, 1, gram_precision);
}

Cqr1dResult cqr2_1d(const DistMatrix& a, const rt::Comm& comm,
                    Precision precision) {
  return sweep_one(a, comm, 2, precision);
}

}  // namespace cacqr::core
