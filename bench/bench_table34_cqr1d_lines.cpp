/// \file bench_table34_cqr1d_lines.cpp
/// \brief Tables III and IV: per-line costs of 1D-CQR and 1D-CQR2
///        (Algorithms 6-7), measured on a real 1D thread-grid and printed
///        against the analytic rows.

#include "common.hpp"
#include "cacqr/core/cqr_1d.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/factor.hpp"
#include "cacqr/lin/flops.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/model/costs.hpp"

namespace {

using namespace cacqr;
using dist::DistMatrix;

rt::CostCounters measure(int ranks,
                         const std::function<void(rt::Comm&)>& body) {
  std::vector<rt::CostCounters> deltas(static_cast<std::size_t>(ranks));
  rt::Runtime::run(ranks, [&](rt::Comm& world) {
    const auto before = world.counters();
    body(world);
    deltas[static_cast<std::size_t>(world.rank())] = world.counters() - before;
  });
  return rt::max_counters(deltas);
}

std::string fmt(const rt::CostCounters& c) {
  return "a=" + std::to_string(c.msgs) + " b=" + std::to_string(c.words) +
         " g=" + std::to_string(c.flops);
}

std::string fmt(const model::Cost& c) {
  return "a=" + TextTable::num(c.alpha, 4) + " b=" + TextTable::num(c.beta, 5) +
         " g=" + TextTable::num(c.gamma, 6);
}

}  // namespace

int main() {
  const int p = 8;
  const i64 m = 64 * p, n = 16;
  lin::Matrix a = lin::hashed_matrix(11, m, n);

  TextTable t;
  t.header({"table", "line", "operation", "measured (max rank)", "model"});

  // Table III line 1: local Syrk of the m/P x n block.
  {
    auto c = measure(p, [&](rt::Comm& world) {
      auto da = DistMatrix::from_global(a, p, 1, world.rank(), 0);
      lin::Matrix x(n, n);
      lin::gram(1.0, da.local(), 0.0, x);
      world.charge_local_flops();
    });
    model::Cost mc;
    mc.gamma = model::flops_gram(double(m) / p, double(n));
    t.row({"III", "1", "Syrk(m/P, n)", fmt(c), fmt(mc)});
  }

  // Table III line 2: Allreduce of the n^2 Gram matrix.
  {
    auto c = measure(p, [&](rt::Comm& world) {
      std::vector<double> z(static_cast<std::size_t>(n * n));
      world.allreduce_sum(z);
    });
    t.row({"III", "2", "Allreduce(n^2, P)", fmt(c),
           fmt(model::cost_allreduce(double(n * n), p))});
  }

  // Table III line 3: redundant CholInv(n).
  {
    auto c = measure(p, [&](rt::Comm& world) {
      lin::Matrix z(n, n);
      lin::gram(4.0, a, 0.0, z);  // SPD by construction
      lin::flops::reset();        // charge only the factorization
      (void)lin::cholinv(z);
      world.charge_local_flops();
    });
    model::Cost mc;
    mc.gamma = model::flops_cholinv(double(n));
    t.row({"III", "3", "CholInv(n)", fmt(c), fmt(mc)});
  }

  // Table III line 4: local triangular multiply Q = A R^{-1}.
  {
    auto c = measure(p, [&](rt::Comm& world) {
      auto da = DistMatrix::from_global(a, p, 1, world.rank(), 0);
      // A dense upper-triangular operand: the kernel skips explicit
      // zeros, so an identity would undercount the line's flops.
      lin::Matrix r_inv(n, n);
      for (i64 j = 0; j < n; ++j) {
        for (i64 i = 0; i <= j; ++i) r_inv(i, j) = 1.0 + double(i + j);
      }
      lin::flops::reset();
      lin::trmm(lin::Side::Right, lin::Uplo::Upper, lin::Trans::N,
                lin::Diag::NonUnit, 1.0, r_inv, da.local());
      world.charge_local_flops();
    });
    model::Cost mc;
    mc.gamma = model::flops_trmm(double(m) / p, double(n));
    t.row({"III", "4", "MM(m/P, n, n) as trmm", fmt(c), fmt(mc)});
  }

  // Table III total: lines 1-4 as one core::cqr_1d call, against the
  // CA-CQR pass at c = 1 (Algorithm 8 reduces to Algorithm 6 there).
  {
    auto c = measure(p, [&](rt::Comm& world) {
      auto da = DistMatrix::from_global(a, p, 1, world.rank(), 0);
      (void)core::cqr_1d(da, world);
    });
    t.row({"III", "1-4", "1D-CQR total", fmt(c),
           fmt(model::cost_ca_cqr(double(m), double(n), 1, p))});
  }

  // Table IV: 1D-CQR2 = 2x 1D-CQR + local R2*R1.
  {
    auto c = measure(p, [&](rt::Comm& world) {
      auto da = DistMatrix::from_global(a, p, 1, world.rank(), 0);
      (void)core::cqr2_1d(da, world);
    });
    t.row({"IV", "1-3", "1D-CQR2 total", fmt(c),
           fmt(model::cost_cqr2_1d(double(m), double(n), p))});
  }

  bench::emit("table34_cqr1d_lines", t);
  return 0;
}
