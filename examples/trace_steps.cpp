/// \file trace_steps.cpp
/// \brief Figures 2 and 3 as executable documentation: run 1D-CQR and
///        CA-CQR step by step on small real grids, narrating what moves
///        where (the pictures in the paper, but with live counters).
///
/// Run:  ./trace_steps

#include <iostream>

#include "cacqr/chol/cfr3d.hpp"
#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/core/cqr_1d.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/factor.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/util.hpp"

namespace {

using namespace cacqr;
using dist::DistMatrix;

void trace_1d() {
  const int p = 4;
  const i64 m = 32, n = 8;
  std::cout << "--- Figure 2: 1D-CQR on P = " << p << " ranks, " << m << " x "
            << n << " ---\n";
  rt::Runtime::run(p, [&](rt::Comm& world) {
    lin::Matrix a = lin::hashed_matrix(1, m, n);
    auto da = DistMatrix::from_global(a, p, 1, world.rank(), 0);
    auto say = [&](const std::string& s) {
      world.barrier();
      if (world.rank() == 0) std::cout << s << "\n";
      world.barrier();
    };
    say("  each rank owns " + std::to_string(m / p) + " rows of A");
    lin::Matrix x(n, n);
    lin::gram(1.0, da.local(), 0.0, x);
    say("  [local]     X_p = A_p^T A_p             (syrk, no messages)");
    world.allreduce_sum({x.data(), static_cast<std::size_t>(x.size())});
    say("  [allreduce] Z = sum_p X_p               (" + std::to_string(n * n) +
        " words per rank)");
    auto li = lin::cholinv(x);
    say("  [local]     R^T = chol(Z), R^{-T}       (redundant on all ranks)");
    lin::trmm(lin::Side::Right, lin::Uplo::Lower, lin::Trans::T,
              lin::Diag::NonUnit, 1.0, li.l_inv, da.local());
    say("  [local]     Q_p = A_p R^{-1}            (trmm, no messages)");
    lin::Matrix q = gather(da, world);
    if (world.rank() == 0) {
      std::cout << "  result: ||Q^T Q - I||_F = "
                << lin::orthogonality_error(q) << "\n\n";
    }
  });
}

void trace_ca() {
  const int c = 2, d = 4;
  const i64 m = 32, n = 8;
  std::cout << "--- Figure 3: CA-CQR on the " << c << " x " << d << " x " << c
            << " grid (P = " << c * c * d << "), " << m << " x " << n
            << " ---\n";
  rt::Runtime::run(c * c * d, [&](rt::Comm& world) {
    grid::TunableGrid g(world, c, d);
    lin::Matrix a = lin::hashed_matrix(2, m, n);
    auto da = DistMatrix::from_global_on_tunable(a, g);
    auto say = [&](const std::string& s) {
      world.barrier();
      if (world.rank() == 0) std::cout << s << "\n";
      world.barrier();
    };
    say("  A is split into " + std::to_string(m / d) + " x " +
        std::to_string(n / c) + " blocks on each depth slice");
    say("  [bcast row]      W <- A-local of the x == z root");
    say("  [local gemm]     X = W^T A  (one Gram block, partial sum)");
    say("  [reduce group]   contiguous y-groups combine partials");
    say("  [allreduce]      strided y-groups finish the sum");
    say("  [bcast depth]    every subcube slice now owns Z = A^T A");
    auto z = core::ca_gram(da, g);
    say("  [CFR3D]          each of the " + std::to_string(d / c) +
        " subcubes factors Z redundantly");
    auto f = chol::cfr3d(z, g.subcube());
    auto rinv = dist::transpose3d(f.l_inv, g.subcube());
    say("  [MM3D]           Q = (row panel of A) * R^{-1} per subcube");
    auto panel = da.reinterpret_layout(m * c / d, n, c, c, g.coords().y % c,
                                       g.coords().x);
    auto qp = dist::mm3d(panel, rinv, g.subcube());
    auto q = qp.reinterpret_layout(m, n, d, c, g.coords().y, g.coords().x);
    lin::Matrix qg = gather(q, g.slice());
    if (world.rank() == 0) {
      std::cout << "  result (one pass): ||Q^T Q - I||_F = "
                << lin::orthogonality_error(qg)
                << "  (a second pass would polish this to ~1e-15)\n\n";
    }
  });
}

}  // namespace

int main() {
  trace_1d();
  trace_ca();
  std::cout << "See bench_table34_cqr1d_lines / bench_fig3_trace_cacqr for "
               "the same steps with full per-step cost counters.\n";
  return 0;
}
