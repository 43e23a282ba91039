#include <cmath>
#include <vector>

#include "cacqr/baseline/pgeqrf_2d.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/flops.hpp"
#include "cacqr/lin/util.hpp"

namespace cacqr::baseline {

namespace {

/// One factored panel, as every rank stores it after the row broadcast:
/// my local suffix of V (unit diagonal materialized, upper zeroed) plus
/// the compact-WY T factor.
struct Panel {
  i64 row_cut = 0;   ///< local row where the panel's suffix begins
  lin::Matrix v;     ///< (local_rows - row_cut) x b
  lin::Matrix t;     ///< b x b upper triangular
};

/// Builds the forward columnwise compact-WY factor from G = V^T V and
/// taus (LAPACK dlarft with the inner products precomputed).
lin::Matrix build_t(const lin::Matrix& gram_v, const std::vector<double>& taus) {
  const i64 b = gram_v.rows();
  lin::Matrix t(b, b);
  for (i64 i = 0; i < b; ++i) {
    const double tau = taus[static_cast<std::size_t>(i)];
    t(i, i) = tau;
    // T(0:i, i) = -tau * T(0:i, 0:i) * G(0:i, i).
    for (i64 l = 0; l < i; ++l) {
      double acc = 0.0;
      for (i64 kk = l; kk < i; ++kk) acc += t(l, kk) * gram_v(kk, i);
      t(l, i) = -tau * acc;
    }
    lin::flops::add(i * i);
  }
  return t;
}

/// Applies (I - V op(T) V^T) to C in place (both V and C are local row
/// suffixes; the missing rows live on other ranks of the process column,
/// whose partial products the allreduce combines).
void apply_panel(const Panel& p, lin::MatrixView c, lin::Trans trans_t,
                 const rt::Comm& col_comm) {
  const i64 b = p.t.rows();
  lin::Matrix w(b, c.cols);
  lin::gemm(lin::Trans::T, lin::Trans::N, 1.0, p.v, c, 0.0, w);
  col_comm.allreduce_sum(w.wire());
  lin::Matrix w2(b, c.cols);
  lin::gemm(trans_t, lin::Trans::N, 1.0, p.t, w, 0.0, w2);
  lin::gemm(lin::Trans::N, lin::Trans::N, -1.0, p.v, w2, 1.0, c);
}

}  // namespace

Pgeqrf2dResult pgeqrf_2d(const BlockCyclicMatrix& a, const ProcGrid2d& g,
                         Pgeqrf2dOptions opts) {
  const i64 m = a.rows();
  const i64 n = a.cols();
  const i64 b = a.block();
  ensure_dim(m >= n, "pgeqrf_2d: requires m >= n");
  // The n x n R factor reuses the same grid/block layout, so n must close
  // a full block cycle in both grid dimensions.
  ensure_dim(n % (b * g.pr()) == 0,
             "pgeqrf_2d: need block*pr | n for the R layout (n=", n,
             ", block=", b, ", pr=", g.pr(), ")");
  const i64 npanels = n / b;
  const int pr = g.pr();
  const int pc = g.pc();

  BlockCyclicMatrix work = a;
  lin::Matrix& loc = work.local();
  const i64 mloc = loc.rows();
  const i64 nloc = loc.cols();

  std::vector<Panel> panels;
  panels.reserve(static_cast<std::size_t>(npanels));

  for (i64 k = 0; k < npanels; ++k) {
    const int owner_pcol = static_cast<int>(k % pc);
    const bool my_panel = g.mycol() == owner_pcol;
    const bool own_diag_rows = k % pr == g.myrow();
    const i64 rs0 = work.local_row_cut(k, 0);
    std::vector<double> taus(static_cast<std::size_t>(b), 0.0);

    if (my_panel) {
      const i64 cloc0 = b * ((k - g.mycol()) / pc);
      const int diag_prow = static_cast<int>(k % pr);
      for (i64 j = 0; j < b; ++j) {
        const i64 rs = work.local_row_cut(k, j);
        auto col = loc.sub(rs, cloc0 + j, mloc - rs, 1);
        // ScaLAPACK's pdlarfg structure: a pdnrm2-style combine for the
        // column norm, then a broadcast of the diagonal element from its
        // owner (pdelget) -- two separate collectives per column, which
        // is where PGEQRF's O(n log P) latency comes from.
        const i64 start = own_diag_rows ? 1 : 0;
        double ss = 0.0;
        for (i64 i = start; i < col.rows; ++i) ss += col(i, 0) * col(i, 0);
        lin::flops::add(2 * (col.rows - start));
        std::vector<double> nrm = {ss};
        g.col_comm().allreduce_sum(nrm);
        ss = nrm[0];
        std::vector<double> diag = {own_diag_rows ? col(0, 0) : 0.0};
        g.col_comm().bcast(diag, diag_prow);
        const double alpha = diag[0];
        if (ss == 0.0) {
          taus[static_cast<std::size_t>(j)] = 0.0;
          continue;  // column already zero below the diagonal
        }
        const double beta =
            -std::copysign(std::sqrt(alpha * alpha + ss), alpha);
        const double tau = (beta - alpha) / beta;
        taus[static_cast<std::size_t>(j)] = tau;
        const double inv = 1.0 / (alpha - beta);
        for (i64 i = start; i < col.rows; ++i) col(i, 0) *= inv;
        if (own_diag_rows) col(0, 0) = beta;
        lin::flops::add(col.rows);

        // Apply the reflector to the remaining panel columns: pdlarf's
        // reduce + broadcast pair over the process column.
        const i64 width = b - j - 1;
        if (width == 0) continue;
        auto rest = loc.sub(rs, cloc0 + j + 1, mloc - rs, width);
        std::vector<double> w(static_cast<std::size_t>(width), 0.0);
        for (i64 jj = 0; jj < width; ++jj) {
          double acc = own_diag_rows ? rest(0, jj) : 0.0;
          for (i64 i = start; i < rest.rows; ++i) {
            acc += col(i, 0) * rest(i, jj);
          }
          w[static_cast<std::size_t>(jj)] = acc;
        }
        lin::flops::add(2 * (rest.rows - start) * width);
        g.col_comm().reduce_sum(w, diag_prow);
        g.col_comm().bcast(w, diag_prow);
        for (i64 jj = 0; jj < width; ++jj) {
          const double tw = tau * w[static_cast<std::size_t>(jj)];
          if (own_diag_rows) rest(0, jj) -= tw;
          for (i64 i = start; i < rest.rows; ++i) {
            rest(i, jj) -= tw * col(i, 0);
          }
        }
        lin::flops::add(2 * (rest.rows - start) * width);
      }
    }

    // Materialize my suffix of V with explicit unit diagonal / zero upper
    // (only the owner column has the data; receivers get it broadcast).
    Panel p;
    p.row_cut = rs0;
    p.v = lin::Matrix(mloc - rs0, b);
    if (my_panel) {
      const i64 cloc0 = b * ((k - g.mycol()) / pc);
      lin::copy(loc.sub(rs0, cloc0, mloc - rs0, b), p.v);
      if (own_diag_rows) {
        // The first b suffix rows are the diagonal block: R lives in its
        // upper triangle, so overwrite with the implicit V structure.
        for (i64 j = 0; j < b; ++j) {
          for (i64 i = 0; i <= j && i < p.v.rows(); ++i) {
            p.v(i, j) = i == j ? 1.0 : 0.0;
          }
        }
      }
      // Compact-WY T from G = V^T V (one b^2 allreduce, pdlarft-style).
      lin::Matrix gram_v(b, b);
      lin::gemm(lin::Trans::T, lin::Trans::N, 1.0, p.v, p.v, 0.0, gram_v);
      g.col_comm().allreduce_sum(gram_v.wire());
      p.t = build_t(gram_v, taus);
    } else {
      p.t = lin::Matrix(b, b);
    }

    // Broadcast (V, T) along the process row.
    {
      std::vector<double> buf(static_cast<std::size_t>(p.v.size() + b * b));
      std::copy_n(p.v.data(), p.v.size(), buf.data());
      std::copy_n(p.t.data(), b * b, buf.data() + p.v.size());
      g.row_comm().bcast(buf, owner_pcol);
      std::copy_n(buf.data(), p.v.size(), p.v.data());
      std::copy_n(buf.data() + p.v.size(), b * b, p.t.data());
    }

    // Blocked trailing update C -= V T^T (V^T C) on columns >= (k+1) b.
    // Ranks whose V suffix is empty still participate: the allreduce
    // inside apply_panel is collective over the process column, and column
    // width is uniform within a process column, so the skip below is
    // taken (or not) by whole columns at a time.
    const i64 cs = work.local_col_cut(k + 1);
    if (nloc - cs > 0) {
      apply_panel(p, loc.sub(rs0, cs, mloc - rs0, nloc - cs), lin::Trans::T,
                  g.col_comm());
    }
    panels.push_back(std::move(p));
  }

  // R: leading n x n upper triangle of the factored matrix.  Block-cyclic
  // local storage is ordered by global block index, so the global leading
  // rows are a local prefix.
  Pgeqrf2dResult out{BlockCyclicMatrix(m, n, b, g),
                     BlockCyclicMatrix(n, n, b, g)};
  {
    lin::Matrix& rloc = out.r.local();
    lin::copy(loc.sub(0, 0, rloc.rows(), rloc.cols()), rloc);
    for (i64 lj = 0; lj < rloc.cols(); ++lj) {
      const i64 gj = out.r.global_col(lj);
      for (i64 li = 0; li < rloc.rows(); ++li) {
        if (out.r.global_row(li) > gj) rloc(li, lj) = 0.0;
      }
    }
  }

  // Explicit Q (PDORGQR): apply the panels to a distributed identity in
  // reverse order with T (not T^T).
  out.q = BlockCyclicMatrix::identity(m, n, b, g);
  for (i64 k = npanels - 1; k >= 0; --k) {
    // Every rank applies every panel -- even with an empty local V suffix
    // the process-column allreduce inside is collective.
    const Panel& p = panels[static_cast<std::size_t>(k)];
    apply_panel(p, out.q.local().sub(p.row_cut, 0, mloc - p.row_cut,
                                     out.q.local().cols()),
                lin::Trans::N, g.col_comm());
  }

  if (opts.normalize_signs) {
    // Make diag(R) >= 0: flip R rows / Q columns where the diagonal is
    // negative.  Owners publish signs via one n-word allreduce.
    std::vector<double> signs(static_cast<std::size_t>(n), 0.0);
    {
      const lin::Matrix& rloc = out.r.local();
      for (i64 lj = 0; lj < rloc.cols(); ++lj) {
        const i64 gj = out.r.global_col(lj);
        for (i64 li = 0; li < rloc.rows(); ++li) {
          if (out.r.global_row(li) == gj) {
            signs[static_cast<std::size_t>(gj)] =
                rloc(li, lj) < 0.0 ? -1.0 : 1.0;
          }
        }
      }
    }
    g.world().allreduce_sum(signs);
    lin::Matrix& rloc = out.r.local();
    for (i64 li = 0; li < rloc.rows(); ++li) {
      if (signs[static_cast<std::size_t>(out.r.global_row(li))] < 0.0) {
        for (i64 lj = 0; lj < rloc.cols(); ++lj) rloc(li, lj) = -rloc(li, lj);
      }
    }
    lin::Matrix& qloc = out.q.local();
    for (i64 lj = 0; lj < qloc.cols(); ++lj) {
      if (signs[static_cast<std::size_t>(out.q.global_col(lj))] < 0.0) {
        for (i64 li = 0; li < qloc.rows(); ++li) qloc(li, lj) = -qloc(li, lj);
      }
    }
  }
  return out;
}

}  // namespace cacqr::baseline
