#include <algorithm>
#include <cmath>

#include "cacqr/chol/cfr3d.hpp"
#include "cacqr/model/costs.hpp"

namespace cacqr::model {

namespace {

double clog2(double p) { return p <= 1.0 ? 0.0 : std::ceil(std::log2(p)); }

/// (p-1)/p: butterfly collectives move that fraction of the payload.
double frac(double p) { return p <= 1.0 ? 0.0 : (p - 1.0) / p; }

}  // namespace

Cost cost_bcast(double words, double p) {
  if (p <= 1.0) return {};
  // Binomial scatter (root sends words*(p-1)/p over ceil(lg p) messages)
  // + Bruck allgather (every rank sends words*(p-1)/p).
  return {2.0 * clog2(p), 2.0 * words * frac(p), 0.0, words};
}

Cost cost_allreduce(double words, double p) {
  if (p <= 1.0) return {};
  // Recursive-halving reduce-scatter + Bruck allgather (Rabenseifner).
  return {2.0 * clog2(p), 2.0 * words * frac(p), 0.0, words};
}

Cost cost_reduce(double words, double p) { return cost_allreduce(words, p); }

Cost cost_allgather(double total_words, double p) {
  if (p <= 1.0) return {};
  return {clog2(p), total_words * frac(p), 0.0, total_words};
}

Cost cost_transpose(double words, double p) {
  if (p <= 1.0) return {};
  return {1.0, words, 0.0, words};
}

double flops_gemm(double m, double k, double n) { return 2.0 * m * k * n; }
double flops_gram(double m, double n) { return m * n * (n + 1.0); }
double flops_trmm(double rows, double n) { return rows * n * (n + 1.0); }
double flops_cholinv(double n) {
  // potrf ~ n^3/3 + trtri ~ n^3/3 with the implementation's low-order
  // terms folded into a 2n^2 slack per factor.
  return 2.0 * n * n * n / 3.0 + 4.0 * n * n;
}
double flops_geqrf(double m, double n) {
  return 2.0 * m * n * n - 2.0 / 3.0 * n * n * n;
}

Cost cost_mm3d(double m, double k, double n, double g) {
  const double g2 = g * g;
  Cost c;
  c += cost_bcast(m * k / g2, g);      // line 1: A along the row comm
  c += cost_bcast(k * n / g2, g);      // line 2: B along the column comm
  c.gamma += flops_gemm(m / g, k / g, n / g);  // line 3
  c += cost_allreduce(m * n / g2, g);  // line 4: C along depth
  c.mem = (m * k + k * n + 2.0 * m * n) / g2;
  return c;
}

Cost cost_block_backsolve(double m, double n, double nblocks, double g) {
  if (nblocks <= 1.0) return cost_mm3d(m, n, n, g);
  const double bs = n / nblocks;
  Cost c;
  // sum_j (j corrections + 1 diagonal multiply), each an m x bs x bs MM3D.
  const double mms = nblocks * (nblocks - 1.0) / 2.0 + nblocks;
  c += cost_mm3d(m, bs, bs, g).times(mms);
  return c;
}

Cost cost_cfr3d(double n, double g, double n0, int inverse_depth) {
  if (g <= 1.0) {
    Cost c;
    c.gamma = flops_cholinv(n);
    c.mem = 2.0 * n * n;
    return c;
  }
  // The implementation's base case and clamped depth, so the model
  // reproduces its recursion exactly.
  const auto ni = static_cast<i64>(n);
  const auto gi = static_cast<int>(g);
  const auto n0i = static_cast<i64>(n0);
  const auto base =
      static_cast<double>(chol::effective_base_case(ni, gi, n0i));
  Cost c;
  double level_n = n;
  double calls = 1.0;
  int depth_left = chol::effective_inverse_depth(ni, gi, n0i, inverse_depth);
  while (level_n > base) {
    const double h = level_n / 2.0;
    Cost level;
    // Lines 6/8: two Transpose collectives on h x h operands.
    level += cost_transpose(h * h / (g * g), g * g).times(2.0);
    if (depth_left > 0) {
      // Partial-inverse level: L21 recovered by block back-substitution
      // (plus the R11/Y11 transposes), the L21 L21^T update stays, and
      // the two Y21 multiplies (lines 12/14) are skipped.
      const int child = depth_left - 1;
      if (child > 0) {
        level += cost_transpose(h * h / (g * g), g * g).times(2.0);
        level += cost_block_backsolve(h, h, double(1 << child), g);
      } else {
        level += cost_mm3d(h, h, h, g);
      }
      level += cost_mm3d(h, h, h, g);  // line 9: L21 L21^T
    } else {
      // Lines 7/9/12/14: four MM3Ds of h x h x h.
      level += cost_mm3d(h, h, h, g).times(4.0);
    }
    // Line 10: the Schur-complement axpy.
    level.gamma += 2.0 * h * h / (g * g);
    c += level.times(calls);
    calls *= 2.0;
    level_n = h;
    if (depth_left > 0) --depth_left;
  }
  // Base cases: allgather over the slice + redundant sequential CholInv.
  Cost bc;
  bc += cost_allgather(base * base, g * g);
  bc.gamma += flops_cholinv(base);
  c += bc.times(calls);
  c.mem = std::max(c.mem, 2.0 * n * n / (g * g) + base * base);
  return c;
}

Cost cost_gram_stage(double m, double n, double c, double d) {
  Cost t;
  const double local_a = m * n / (d * c);      // words of the local block
  const double gram_blk = n * n / (c * c);     // Gram block on the subcube
  // Lines 1-5 (Table V rows 1-5; line 5's operand is the n^2/c^2 Gram
  // block -- see DESIGN.md on the Table V typo).
  t += cost_bcast(local_a, c);
  t.gamma += c <= 1.0 ? flops_gram(m / d, n)
                      : flops_gemm(n / c, m / d, n / c);
  t += cost_reduce(gram_blk, c);
  t += cost_allreduce(gram_blk, d / c);
  t += cost_bcast(gram_blk, c);
  return t;
}

Cost cost_ca_cqr(double m, double n, double c, double d, double n0,
                 int inverse_depth) {
  const double local_a = m * n / (d * c);      // words of the local block
  const double gram_blk = n * n / (c * c);     // Gram block on the subcube
  // Lines 1-5: the Gram assembly.
  Cost t = cost_gram_stage(m, n, c, d);
  const int depth = c <= 1.0 ? 0 : inverse_depth;
  // Lines 6-7: CFR3D on the subcube.
  t += cost_cfr3d(n, c, n0, depth);
  // R and R^{-1} materialization (two Transpose collectives).
  t += cost_transpose(gram_blk, c * c).times(2.0);
  // Line 8: Q = A R^{-1}.
  if (c <= 1.0) {
    t.gamma += flops_trmm(m / d, n);
  } else {
    // One MM3D of the (m c/d) x n panel (depth 0), or the block
    // back-substitution sweep (InverseDepth strategy).
    const double nblocks = double(
        1 << chol::effective_inverse_depth(static_cast<i64>(n),
                                           static_cast<int>(c),
                                           static_cast<i64>(n0), depth));
    t += cost_block_backsolve(m * c / d, n, nblocks, c);
  }
  t.mem = std::max(t.mem, 3.0 * local_a + 2.0 * gram_blk);
  return t;
}

Cost cost_ca_cqr2(double m, double n, double c, double d, double n0,
                  int inverse_depth) {
  Cost t = cost_ca_cqr(m, n, c, d, n0, inverse_depth).times(2.0);
  // Algorithm 9 line 4: R = R2 * R1.
  if (c <= 1.0) {
    t.gamma += flops_trmm(n, n);
  } else {
    t += cost_mm3d(n, n, n, c);
  }
  return t;
}

Cost cost_cqr2_1d(double m, double n, double p) {
  return cost_ca_cqr2(m, n, 1.0, p);
}

Cost cost_pgeqrf_2d(double m, double n, double pr, double pc, double b,
                    bool form_q) {
  Cost t;
  const double npanels = n / b;
  for (double k = 0; k < npanels; k += 1.0) {
    const double rows_k = m - k * b;        // global suffix height
    const double mloc = rows_k / pr;        // local suffix rows
    const double trail = n - (k + 1.0) * b; // trailing columns
    const double trailloc = trail / pc;

    // Panel factorization, ScaLAPACK-faithful: per column a pdnrm2-style
    // combine, the diagonal-element broadcast (pdlarfg), and pdlarf's
    // reduce + broadcast of the <= b-word projection -- four collectives
    // over the process column per column, the source of PGEQRF's
    // O(n log P) synchronization cost.
    t += cost_allreduce(1.0, pr).times(b);
    t += cost_bcast(1.0, pr).times(b);
    t += cost_reduce(b / 2.0, pr).times(b);
    t += cost_bcast(b / 2.0, pr).times(b);
    t.gamma += 2.0 * mloc * b * b + 3.0 * mloc * b;  // panel updates

    // Compact-WY T: local Gram + b^2 allreduce + triangular assembly.
    t.gamma += flops_gemm(b, mloc, b) + b * b * b / 3.0;
    t += cost_allreduce(b * b, pr);

    // (V, T) broadcast along the process row.
    t += cost_bcast(mloc * b + b * b, pc);

    // Blocked trailing update: V^T C allreduce + three local gemms.
    if (trail > 0) {
      t.gamma += flops_gemm(b, mloc, trailloc);
      t += cost_allreduce(b * trailloc, pr);
      t.gamma += flops_gemm(b, b, trailloc) + flops_gemm(mloc, b, trailloc);
    }

    // Explicit Q formation applies the same panel to n/pc columns.
    if (form_q) {
      const double qcols = n / pc;
      t.gamma += flops_gemm(b, mloc, qcols);
      t += cost_allreduce(b * qcols, pr);
      t.gamma += flops_gemm(b, b, qcols) + flops_gemm(mloc, b, qcols);
    }
  }
  t.mem = m * n / (pr * pc) * (form_q ? 3.0 : 2.0);
  return t;
}

Cost cost_tsqr(double m, double n, double p) {
  Cost t;
  // Leaf factorization.
  t.gamma += flops_geqrf(m / p, n);
  const double lg = clog2(p);
  // Up-sweep: one n(n+1)/2-word hop per level + stacked 2n x n QR.
  t.alpha += lg;
  t.beta += lg * n * (n + 1.0) / 2.0;
  t.gamma += lg * flops_geqrf(2.0 * n, n);
  // Down-sweep: one n^2-word hop per level + Q application to [C; 0].
  t.alpha += lg;
  t.beta += lg * n * n;
  t.gamma += lg * 4.0 * 2.0 * n * n * n / 2.0;  // apply_q on 2n x n
  // Leaf Q: apply the local reflectors to [C; 0].
  t.gamma += 4.0 * (m / p) * n * n / 2.0 * 2.0;
  // R replication.
  t += cost_bcast(n * n, p);
  t.mem = m * n / p + 2.0 * n * n * (lg + 1.0);
  return t;
}

}  // namespace cacqr::model
