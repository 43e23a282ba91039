/// \file bench_paper.cpp
/// \brief Prints the paper's evidence (arXiv:1710.08471) as aligned tables
///        on stdout, each also written to bench_out/<name>.csv.  Takes no
///        arguments.  The sections, in order:
///
///   table1_asymptotics        Table I: log-log slope vs P of each cost of
///                             MM3D, CFR3D, 1D-CQR2, 3D-CQR2 and CA-CQR2.
///   table2_cfr3d_lines        Table II: per-line costs of CFR3D (Alg. 3).
///   table34_cqr1d_lines       Tables III and IV: 1D-CQR and 1D-CQR2
///                             (Algs. 6-7).
///   table56_cacqr_lines       Tables V and VI: CA-CQR and CA-CQR2
///                             (Algs. 8-9); rows 1-5, 7 and 8 are the
///                             steps Figure 3 illustrates.
///   fig4{a,b,c}_weak_bw_*     Figure 4: weak scaling on Blue Waters.
///   fig5{a,b,c,d}_weak_s2_*   Figure 5: weak scaling on Stampede2.
///   fig6{a,b}_strong_bw_*     Figure 6: strong scaling on Blue Waters;
///                             6b's best_c column gives the c crossovers.
///   fig7{a,b,c,d}_strong_s2_* Figure 7: strong scaling on Stampede2.
///   ablation_basecase_*       Section II-D: the CFR3D base-case size n0.
///   ablation_inverse_*        Section III-A: the InverseDepth knob.
///   memory_tradeoff_*         Section IV: memory footprint against words
///                             moved as the replication factor c grows.
///   smallscale_{strong,weak}  Figures 4-7 in miniature: real CA-CQR2 and
///                             PGEQRF runs on 4..64 ranks, LogP clock.
///
/// Figure 1 is the ScaLAPACK(best) and CACQR2(best) columns of Figure 7
/// (1a, the same four matrices) and Figure 5 (1b, the same four shape
/// families); every scaling panel closes with its best-vs-best ratio at
/// the largest node count.  "measured" cells are counters of real runs
/// (max over ranks) and read the same on every transport.  The scaling
/// panels evaluate the cost model under calibrated machine presets, so
/// what reproduces is the shape: who wins, by what factor, and where the
/// crossovers fall.

#include <cmath>
#include <limits>

#include "common.hpp"
#include "cacqr/baseline/pgeqrf_2d.hpp"
#include "cacqr/chol/cfr3d.hpp"
#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/core/cqr_1d.hpp"
#include "cacqr/core/factorize.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/factor.hpp"
#include "cacqr/lin/flops.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/model/costs.hpp"
#include "cacqr/model/sweep.hpp"
#include "cacqr/model/validation.hpp"

namespace {

using namespace cacqr;
using dist::DistMatrix;
using model::Cost;

// ------------------------------------------------------------- helpers

/// Max-over-ranks counter deltas of `body(world, grid)` on `ranks` ranks.
/// The grid is built before the snapshot because Comm::split charges an
/// allgather.  run_validation returns each rank's delta through
/// Comm::publish, so the forked ranks of the shm transport report too.
template <class MakeGrid, class Body>
rt::CostCounters measure(int ranks, MakeGrid make_grid, Body body) {
  const auto section = [&](rt::Comm& world) {
    auto grid = make_grid(world);
    const model::MeasuredSection measured(world);
    body(world, grid);
  };
  return model::run_validation("", ranks, /*machine=*/{}, section,
                               /*analytic=*/{})
      .measured;
}

std::string fmt(const rt::CostCounters& c) {
  return "a=" + std::to_string(c.msgs) + " b=" + std::to_string(c.words) +
         " g=" + std::to_string(c.flops);
}

std::string fmt(const Cost& c) {
  return "a=" + TextTable::num(c.alpha, 4) + " b=" + TextTable::num(c.beta, 5) +
         " g=" + TextTable::num(c.gamma, 6);
}

/// A well-conditioned n x n SPD operand: the Gram matrix of a hashed
/// 4n x n matrix plus n on the diagonal.
lin::Matrix spd_matrix(u64 seed, i64 n) {
  lin::Matrix spd(n, n);
  lin::gram(1.0, lin::hashed_matrix(seed, 4 * n, n), 0.0, spd);
  for (i64 i = 0; i < n; ++i) spd(i, i) += double(n);
  return spd;
}

// ----------------------------------------------------------- Table I

/// log2(y2/y1) per log2(x2/x1): the empirical scaling exponent.
double slope(double y1, double y2, double factor) {
  return std::log2(y2 / y1) / std::log2(factor);
}

/// Evaluates each algorithm's cost model at two P a factor 64 apart and
/// prints the log-log slope of each cost next to Table I's exponent.
void table1_asymptotics() {
  TextTable t;
  t.header({"algorithm", "cost", "slope vs P", "Table I prediction"});
  const double f = 64.0;  // P ratio of every pair below

  // MM3D, square n x n x n with n fixed: alpha ~ log P (slope ~ 0+),
  // beta ~ P^{-2/3}, gamma ~ P^{-1}.
  {
    const double n = 1 << 14;
    const Cost a = model::cost_mm3d(n, n, n, 8);     // P = 512
    const Cost b = model::cost_mm3d(n, n, n, 32);    // P = 32768
    t.row({"MM3D", "beta", TextTable::num(slope(a.beta, b.beta, f), 3),
           "-2/3"});
    t.row({"MM3D", "gamma", TextTable::num(slope(a.gamma, b.gamma, f), 3),
           "-1"});
  }

  // CFR3D: same exponents as MM3D, alpha ~ P^{2/3} log P with the paper's
  // bandwidth-minimizing base case n0 = n/P^{2/3}.
  {
    const double n = 1 << 14;
    const Cost a = model::cost_cfr3d(n, 8);
    const Cost b = model::cost_cfr3d(n, 32);
    t.row({"CFR3D", "alpha", TextTable::num(slope(a.alpha, b.alpha, f), 3),
           "+2/3 (P^{2/3} log P)"});
    t.row({"CFR3D", "beta", TextTable::num(slope(a.beta, b.beta, f), 3),
           "-2/3"});
    t.row({"CFR3D", "gamma", TextTable::num(slope(a.gamma, b.gamma, f), 3),
           "-1"});
  }

  // 1D-CQR2: alpha ~ log P, beta ~ n^2 (slope 0), gamma: the mn^2/P term
  // scales away but the redundant n^3 term does not.
  {
    const double m = 1 << 26, n = 1 << 10;
    const Cost a = model::cost_cqr2_1d(m, n, 64);
    const Cost b = model::cost_cqr2_1d(m, n, 4096);
    t.row({"1D-CQR2", "beta", TextTable::num(slope(a.beta, b.beta, f), 3),
           "0 (n^2, P-independent)"});
    t.row({"1D-CQR2", "gamma", TextTable::num(slope(a.gamma, b.gamma, f), 3),
           "-1 until n^3 dominates"});
  }

  // 3D-CQR2 (c = d = P^{1/3}): beta ~ mn/P^{2/3}.
  {
    const double m = 1 << 15, n = 1 << 15;
    const Cost a = model::cost_ca_cqr2(m, n, 8, 8);      // P = 512
    const Cost b = model::cost_ca_cqr2(m, n, 32, 32);    // P = 32768
    t.row({"3D-CQR2", "beta", TextTable::num(slope(a.beta, b.beta, f), 3),
           "-2/3"});
    t.row({"3D-CQR2", "gamma", TextTable::num(slope(a.gamma, b.gamma, f), 3),
           "-1"});
  }

  // CA-CQR2 at the optimal grid ratio m/d = n/c: beta ~ (mn^2/P)^{2/3},
  // i.e. slope -2/3 with matrix fixed.
  {
    const double m = 1 << 22, n = 1 << 11;  // m/n = 2048
    // c = (P n / m)^{1/3}: P = 2^15 -> c = 2^{(15+11-22)/3} ~ 2.5 -> use
    // matched doublings that keep the ratio integral.
    const Cost a = model::cost_ca_cqr2(m, n, 2, 2048);   // P = 8192
    const Cost b = model::cost_ca_cqr2(m, n, 8, 8192);   // P = 524288
    t.row({"CA-CQR2 (opt c)", "beta",
           TextTable::num(slope(a.beta, b.beta, f), 3), "-2/3"});
    t.row({"CA-CQR2 (opt c)", "gamma",
           TextTable::num(slope(a.gamma, b.gamma, f), 3), "-1"});
  }

  bench::emit("table1_asymptotics", t);
}

// ---------------------------------------------------------- Table II

/// Each CFR3D line's operation runs standalone on a 2^3 cube at the
/// operand sizes of the first recursion level.
void table2_cfr3d_lines() {
  const int g = 2;
  const int ranks = g * g * g;
  const i64 n = 32;      // matrix dimension at the top level
  const i64 h = n / 2;   // operand size for the per-line ops
  const lin::Matrix spd = spd_matrix(7, n);
  const auto on_cube = [&](auto body) {
    return measure(ranks, [&](rt::Comm& w) { return grid::CubeGrid(w, g); },
                   body);
  };

  TextTable t;
  t.header({"line", "operation", "measured (max rank)", "model"});

  // Line 2-3 (base case): slice allgather + redundant CholInv at n0.
  {
    const i64 n0 = chol::effective_base_case(n, g, 0);
    auto c = on_cube([&](rt::Comm&, grid::CubeGrid& cube) {
      auto da = DistMatrix::from_global_on_cube(
          materialize(spd.sub(0, 0, n0, n0)), cube);
      lin::Matrix full = dist::gather(da, cube.slice());
      (void)lin::cholinv(full);
    });
    Cost mc = model::cost_allgather(double(n0 * n0), double(g * g));
    mc.gamma += model::flops_cholinv(double(n0));
    t.row({"2-3", "base case (allgather + CholInv, n0=" + std::to_string(n0) + ")",
           fmt(c), fmt(mc)});
  }

  // Line 6: Transpose of the h x h inverse factor.
  {
    auto c = on_cube([&](rt::Comm&, grid::CubeGrid& cube) {
      auto da = DistMatrix::from_global_on_cube(
          materialize(spd.sub(0, 0, h, h)), cube);
      (void)dist::transpose3d(da, cube);
    });
    t.row({"6", "Transpose(Y11), h=" + std::to_string(h), fmt(c),
           fmt(model::cost_transpose(double(h * h) / (g * g), g * g))});
  }

  // Line 7: MM3D(A21, W) at h x h x h.
  {
    auto c = on_cube([&](rt::Comm&, grid::CubeGrid& cube) {
      auto da = DistMatrix::from_global_on_cube(
          materialize(spd.sub(0, 0, h, h)), cube);
      (void)dist::mm3d(da, da, cube);
    });
    t.row({"7 (also 9,12,14)", "MM3D(h,h,h)", fmt(c),
           fmt(model::cost_mm3d(double(h), double(h), double(h), g))});
  }

  // Line 10: the Schur-complement axpy (pure local flops).
  {
    auto c = on_cube([&](rt::Comm& world, grid::CubeGrid& cube) {
      auto da = DistMatrix::from_global_on_cube(
          materialize(spd.sub(0, 0, h, h)), cube);
      auto db = da;
      dist::add_scaled(db, -1.0, da);
      world.charge_local_flops();
    });
    Cost mc;
    mc.gamma = 2.0 * double(h * h) / (g * g);
    t.row({"10", "A22 - U (axpy)", fmt(c), fmt(mc)});
  }

  // Whole algorithm vs composed model.
  {
    auto c = on_cube([&](rt::Comm&, grid::CubeGrid& cube) {
      auto da = DistMatrix::from_global_on_cube(spd, cube);
      (void)chol::cfr3d(da, cube);
    });
    t.row({"total", "CFR3D(n=" + std::to_string(n) + ")", fmt(c),
           fmt(model::cost_cfr3d(double(n), g))});
  }

  bench::emit("table2_cfr3d_lines", t);
}

// ------------------------------------------------- Tables III and IV

/// 1D-CQR's lines on P = 8 ranks; each rank holds an m/P x n row block.
void table34_cqr1d_lines() {
  const int p = 8;
  const i64 m = 64 * p, n = 16;
  const lin::Matrix a = lin::hashed_matrix(11, m, n);
  // The 1D "grid" is the rank's row-block index.
  const auto on_1d = [&](auto body) {
    return measure(p, [](rt::Comm& w) { return w.rank(); }, body);
  };

  TextTable t;
  t.header({"table", "line", "operation", "measured (max rank)", "model"});

  // Table III line 1: local Syrk of the m/P x n block.
  {
    auto c = on_1d([&](rt::Comm& world, int rank) {
      auto da = DistMatrix::from_global(a, p, 1, rank, 0);
      lin::Matrix x(n, n);
      lin::gram(1.0, da.local(), 0.0, x);
      world.charge_local_flops();
    });
    Cost mc;
    mc.gamma = model::flops_gram(double(m) / p, double(n));
    t.row({"III", "1", "Syrk(m/P, n)", fmt(c), fmt(mc)});
  }

  // Table III line 2: Allreduce of the n^2 Gram matrix.
  {
    auto c = on_1d([&](rt::Comm& world, int) {
      std::vector<double> z(static_cast<std::size_t>(n * n));
      world.allreduce_sum(z);
    });
    t.row({"III", "2", "Allreduce(n^2, P)", fmt(c),
           fmt(model::cost_allreduce(double(n * n), p))});
  }

  // Table III line 3: redundant CholInv(n).
  {
    auto c = on_1d([&](rt::Comm& world, int) {
      lin::Matrix z(n, n);
      lin::gram(4.0, a, 0.0, z);  // SPD by construction
      lin::flops::reset();        // charge only the factorization
      (void)lin::cholinv(z);
      world.charge_local_flops();
    });
    Cost mc;
    mc.gamma = model::flops_cholinv(double(n));
    t.row({"III", "3", "CholInv(n)", fmt(c), fmt(mc)});
  }

  // Table III line 4: local triangular multiply Q = A R^{-1}.
  {
    auto c = on_1d([&](rt::Comm& world, int rank) {
      auto da = DistMatrix::from_global(a, p, 1, rank, 0);
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
    Cost mc;
    mc.gamma = model::flops_trmm(double(m) / p, double(n));
    t.row({"III", "4", "MM(m/P, n, n) as trmm", fmt(c), fmt(mc)});
  }

  // Table III total: lines 1-4 as one core::cqr_1d call, against the
  // CA-CQR pass at c = 1 (Algorithm 8 reduces to Algorithm 6 there).
  {
    auto c = on_1d([&](rt::Comm& world, int rank) {
      auto da = DistMatrix::from_global(a, p, 1, rank, 0);
      (void)core::cqr_1d(da, world);
    });
    t.row({"III", "1-4", "1D-CQR total", fmt(c),
           fmt(model::cost_ca_cqr(double(m), double(n), 1, p))});
  }

  // Table IV: 1D-CQR2 = 2x 1D-CQR + local R2*R1.
  {
    auto c = on_1d([&](rt::Comm& world, int rank) {
      auto da = DistMatrix::from_global(a, p, 1, rank, 0);
      (void)core::cqr2_1d(da, world);
    });
    t.row({"IV", "1-3", "1D-CQR2 total", fmt(c),
           fmt(model::cost_cqr2_1d(double(m), double(n), p))});
  }

  bench::emit("table34_cqr1d_lines", t);
}

// --------------------------------------------------- Tables V and VI

/// CA-CQR's lines on a 2 x 4 x 2 grid, the Gram assembly (lines 1-5)
/// measured as a unit, matching how ca_gram executes it.
void table56_cacqr_lines() {
  const int c = 2, d = 4;
  const i64 m = 64, n = 16;
  const lin::Matrix a = lin::hashed_matrix(13, m, n);
  const lin::Matrix spd = spd_matrix(17, n);
  const auto on_grid = [&](auto body) {
    return measure(
        c * c * d, [&](rt::Comm& w) { return grid::TunableGrid(w, c, d); },
        body);
  };

  TextTable t;
  t.header({"table", "lines", "operation", "measured (max rank)", "model"});

  // Table V lines 1-5: Gram assembly Z = A^T A onto every subcube.
  {
    auto meas = on_grid([&](rt::Comm&, grid::TunableGrid& g) {
      auto da = DistMatrix::from_global_on_tunable(a, g);
      (void)core::ca_gram(da, g);
    });
    Cost mc;
    mc += model::cost_bcast(double(m * n) / (d * c), c);
    mc.gamma += model::flops_gemm(double(n) / c, double(m) / d, double(n) / c);
    mc += model::cost_reduce(double(n * n) / (c * c), c);
    mc += model::cost_allreduce(double(n * n) / (c * c), double(d) / c);
    mc += model::cost_bcast(double(n * n) / (c * c), c);
    t.row({"V", "1-5", "Gram assembly (Bcast,MM,Reduce,Allreduce,Bcast)",
           fmt(meas), fmt(mc)});
  }

  // Table V line 7: CFR3D(n) on the c^3 subcube, measured standalone on
  // an SPD matrix of the size the Gram phase produces.
  {
    auto cfr = on_grid([&](rt::Comm&, grid::TunableGrid& g) {
      auto dz = DistMatrix::from_global_on_cube(spd, g.subcube());
      (void)chol::cfr3d(dz, g.subcube());
    });
    t.row({"V", "7", "CFR3D(n, c^3)", fmt(cfr),
           fmt(model::cost_cfr3d(double(n), c))});
  }

  // Table V line 8: MM3D of the (m c/d) x n panel by R^{-1}.
  {
    auto meas = on_grid([&](rt::Comm&, grid::TunableGrid& g) {
      auto da = DistMatrix::from_global_on_tunable(a, g);
      auto panel = da.reinterpret_layout(m * c / d, n, c, c,
                                         g.coords().y % c, g.coords().x);
      lin::Matrix rn = lin::hashed_matrix(19, n, n);
      auto dr = DistMatrix::from_global_on_cube(rn, g.subcube());
      (void)dist::mm3d(panel, dr, g.subcube());
    });
    t.row({"V", "8", "MM3D(m c/d, n, n, c^3)", fmt(meas),
           fmt(model::cost_mm3d(double(m * c) / d, double(n), double(n), c))});
  }

  // Table VI: CA-CQR2 total (lines 1-2 are CA-CQR; line 4 the R compose).
  {
    auto meas = on_grid([&](rt::Comm&, grid::TunableGrid& g) {
      auto da = DistMatrix::from_global_on_tunable(a, g);
      (void)core::ca_cqr2(da, g);
    });
    t.row({"VI", "1-4", "CA-CQR2 total", fmt(meas),
           fmt(model::cost_ca_cqr2(double(m), double(n), c, d))});
  }

  bench::emit("table56_cacqr_lines", t);
}

// ------------------------------------------------------ Figures 4-7

/// One scaling panel: strong scaling over `nodes` on an m0 x n0 matrix,
/// or, with a weak `base`, the paper's (a, b) steps on nodes = base a b^2
/// and an (m0 a) x (n0 b) matrix, so mn^2 grows linearly with nodes.
struct Panel {
  std::string name;
  model::Machine machine;
  double m0 = 0.0;
  double n0 = 0.0;
  std::vector<i64> nodes;  ///< strong scaling node counts
  i64 base = 0;            ///< weak scaling node base; 0 for strong
};

/// GF/s/node per step of the best explicit-Q ScaLAPACK (PDGEQRF +
/// PDORGQR, like CA-CQR2 delivering Q and R), the implicit-Q PGEQRF the
/// paper timed, and CA-CQR2 on each usable grid c x d x c, d = P/c^2.
void scaling_panel(const Panel& p) {
  const i64 cs[] = {1, 2, 4, 8, 16, 32};  // the paper's CA-CQR2 series
  struct Step {
    std::string label;
    i64 nodes;
    double m, n;
  };
  std::vector<Step> steps;
  if (p.base > 0) {  // the paper's weak-scaling (a, b) progression
    const std::pair<i64, i64> ab[] = {{2, 1}, {1, 2}, {2, 2}, {4, 2},
                                      {8, 2}, {4, 4}, {8, 4}};
    for (const auto& [a, b] : ab) {
      steps.push_back({"(" + std::to_string(a) + "," + std::to_string(b) + ")",
                       p.base * a * b * b, p.m0 * double(a), p.n0 * double(b)});
    }
  } else {
    for (const i64 nodes : p.nodes) steps.push_back({"-", nodes, p.m0, p.n0});
  }

  TextTable t;
  std::vector<std::string> head = {"step", "nodes", "ranks", "m", "n",
                                   "ScaLAPACK(best)", "ScaLAPACK(implicitQ)"};
  for (const i64 c : cs) head.push_back("CACQR2(c=" + std::to_string(c) + ")");
  head.insert(head.end(), {"CACQR2(best)", "best_c", "ratio"});
  t.header(head);

  model::CaCqr2Choice best;
  double ratio = 0.0;
  for (const Step& s : steps) {
    const i64 ranks = s.nodes * p.machine.ranks_per_node;
    const auto gf = [&](double seconds) {
      return model::gflops_per_node(s.m, s.n, seconds, double(s.nodes));
    };
    const double sl =
        gf(model::best_pgeqrf(s.m, s.n, ranks, p.machine).seconds);
    const double sl_iq = gf(
        model::best_pgeqrf(s.m, s.n, ranks, p.machine, /*form_q=*/false)
            .seconds);
    std::vector<std::string> row = {
        s.label, std::to_string(s.nodes), std::to_string(ranks),
        std::to_string(i64(s.m)), std::to_string(i64(s.n)),
        TextTable::num(sl), TextTable::num(sl_iq)};
    best.seconds = std::numeric_limits<double>::infinity();
    for (const i64 c : cs) {
      const i64 d = ranks / (c * c);
      if (ranks % (c * c) != 0 || d % c != 0 || double(d) > s.m ||
          double(c) > s.n) {
        row.push_back("-");
        continue;
      }
      const auto ch = model::eval_cacqr2(s.m, s.n, c, d, p.machine);
      row.push_back(TextTable::num(gf(ch.seconds)));
      if (ch.seconds < best.seconds) best = ch;
    }
    ratio = gf(best.seconds) / sl;
    row.insert(row.end(), {TextTable::num(gf(best.seconds)),
                           std::to_string(best.c), TextTable::num(ratio, 3)});
    t.row(std::move(row));
  }
  bench::emit(p.name, t);
  std::cout << p.name << ": CA-CQR2(best) / ScaLAPACK(best) at "
            << steps.back().nodes << " nodes = " << ratio << "x (c=" << best.c
            << ", d=" << best.d << ")\n\n";
}

void scaling_panels() {
  const model::Machine bw = model::bluewaters(), s2 = model::stampede2();
  const std::vector<i64> bw_nodes = {32, 64, 128, 256, 512, 1024, 2048};
  const std::vector<i64> s2_nodes = {64, 128, 256, 512, 1024};
  const Panel panels[] = {
      {"fig4a_weak_bw_65536a_x_2048b", bw, 65536, 2048, {}, 16},
      {"fig4b_weak_bw_262144a_x_1024b", bw, 262144, 1024, {}, 16},
      {"fig4c_weak_bw_1048576a_x_512b", bw, 1048576, 512, {}, 16},
      {"fig5a_weak_s2_131072a_x_8192b", s2, 131072, 8192, {}, 8},
      {"fig5b_weak_s2_262144a_x_4096b", s2, 262144, 4096, {}, 8},
      {"fig5c_weak_s2_524288a_x_2048b", s2, 524288, 2048, {}, 8},
      {"fig5d_weak_s2_1048576a_x_1024b", s2, 1048576, 1024, {}, 8},
      {"fig6a_strong_bw_1048576x4096", bw, 1048576, 4096, bw_nodes},
      {"fig6b_strong_bw_4194304x2048", bw, 4194304, 2048, bw_nodes},
      {"fig7a_strong_s2_524288x8192", s2, 524288, 8192, s2_nodes},
      {"fig7b_strong_s2_2097152x4096", s2, 2097152, 4096, s2_nodes},
      {"fig7c_strong_s2_8388608x2048", s2, 8388608, 2048, s2_nodes},
      {"fig7d_strong_s2_33554432x1024", s2, 33554432, 1024, s2_nodes},
  };
  for (const Panel& p : panels) scaling_panel(p);
}

// ------------------------------------------------ Section II-D, III-A

/// CFR3D's recursion depth n/n0 trades synchronization (alpha, more
/// levels) against bandwidth (beta, bigger redundant base cases); the
/// paper picks n0 = n/P^(2/3) to minimize bandwidth.  Measured at small
/// scale, modeled at paper scale.
void ablation_basecase() {
  // Real execution on a 2^3 cube.
  {
    const int g = 2;
    const i64 n = 64;
    const lin::Matrix spd = spd_matrix(52, n);

    TextTable t;
    t.header({"n0", "levels", "msgs", "words", "flops"});
    for (const i64 n0 : {i64{2}, i64{4}, i64{8}, i64{16}, i64{32}, i64{64}}) {
      auto per_rank = rt::Runtime::run(g * g * g, [&](rt::Comm& world) {
        grid::CubeGrid cube(world, g);
        auto da = DistMatrix::from_global_on_cube(spd, cube);
        (void)chol::cfr3d(da, cube, {.base_case = n0});
      });
      const auto mc = rt::max_counters(per_rank);
      const i64 eff = chol::effective_base_case(n, g, n0);
      t.row({std::to_string(eff), std::to_string(ilog2(n / eff)),
             std::to_string(mc.msgs), std::to_string(mc.words),
             std::to_string(mc.flops)});
    }
    std::cout << "Measured CFR3D(n=" << n << ") on a " << g << "^3 cube:\n";
    bench::emit("ablation_basecase_measured", t);
  }

  // Paper scale: n = 8192 on an 8^3 cube (P = 512), modeled.
  {
    const model::Machine s2 = model::stampede2();
    const double n = 8192, g = 8;
    TextTable t;
    t.header({"n0", "alpha", "beta", "gamma", "modeled ms"});
    for (double n0 = 16; n0 <= n; n0 *= 4) {
      const auto c = model::cost_cfr3d(n, g, n0);
      t.row({TextTable::num(n0, 6), TextTable::num(c.alpha, 5),
             TextTable::num(c.beta, 5), TextTable::num(c.gamma, 5),
             TextTable::num(c.time(s2) * 1e3, 4)});
    }
    std::cout << "Modeled CFR3D(n=8192) on an 8^3 cube (" << s2.name
              << "); the paper default n0 = n/P^(2/3) = "
              << TextTable::num(n / (g * g), 4) << ":\n";
    bench::emit("ablation_basecase_modeled", t);
  }
}

/// The InverseDepth knob "...can lower the computational cost by nearly a
/// factor of 2 ... incurring close to a 2x increase in synchronization
/// cost": measured counters of real runs per depth, then the modeled
/// trade-off at paper scale.
void ablation_inverse() {
  // Real execution: c=2, d=4 grid, depth 0..2.
  {
    const int c = 2, d = 4;
    const i64 m = 128, n = 32;
    TextTable t;
    t.header({"inverse_depth", "msgs", "words", "flops",
              "flops vs depth0", "msgs vs depth0"});
    i64 f0 = 0, m0 = 0;
    for (int depth = 0; depth <= 2; ++depth) {
      auto per_rank = rt::Runtime::run(c * c * d, [&](rt::Comm& world) {
        grid::TunableGrid g(world, c, d);
        auto da = DistMatrix::from_global_on_tunable(
            lin::hashed_matrix(51, m, n), g);
        (void)core::ca_cqr2(da, g, {.base_case = 4, .inverse_depth = depth});
      });
      const auto mc = rt::max_counters(per_rank);
      if (depth == 0) {
        f0 = mc.flops;
        m0 = mc.msgs;
      }
      t.row({std::to_string(depth), std::to_string(mc.msgs),
             std::to_string(mc.words), std::to_string(mc.flops),
             TextTable::num(double(mc.flops) / double(f0), 3),
             TextTable::num(double(mc.msgs) / double(m0), 3)});
    }
    std::cout << "Measured (real run, " << m << "x" << n << ", c=" << c
              << " d=" << d << "):\n";
    bench::emit("ablation_inverse_measured", t);
  }

  // Paper scale: Stampede2 strong-scaling point, model.
  {
    const model::Machine s2 = model::stampede2();
    const double m = 8388608, n = 2048;
    const i64 ranks = 1024 * s2.ranks_per_node;
    const i64 c = 4, d = ranks / 16;
    TextTable t;
    t.header({"inverse_depth", "alpha", "beta", "gamma", "modeled s",
              "GF/s/node"});
    for (int depth = 0; depth <= 3; ++depth) {
      const auto cost = model::cost_ca_cqr2(m, n, double(c), double(d), 0.0,
                                            depth);
      const double secs = cost.time(s2);
      t.row({std::to_string(depth), TextTable::num(cost.alpha, 5),
             TextTable::num(cost.beta, 5), TextTable::num(cost.gamma, 5),
             TextTable::num(secs, 4),
             TextTable::num(model::gflops_per_node(m, n, secs, 1024.0))});
    }
    std::cout << "Modeled at 1024 Stampede2 nodes, " << i64(m) << "x"
              << i64(n) << ", c=" << c << ":\n";
    bench::emit("ablation_inverse_modeled", t);
  }
}

// -------------------------------------------------------- Section IV

/// "performance improvements and superior scaling can be attained by
/// increasing the memory footprint to reduce communication": the
/// replication factor c raises memory per rank (mn/(dc) + n^2/c^2) and
/// cuts words moved (~sqrt(c) over 2D).  Measured at small scale, modeled
/// at paper scale.
void memory_tradeoff() {
  // Real execution: P = 64, sweep c over {1, 2, 4}; memory = local words
  // actually allocated for the inputs (A block + Gram block, x
  // replication is implicit in the rank count).
  {
    const i64 m = 128, n = 32;
    TextTable t;
    t.header({"c", "d", "A words/rank", "Gram words/rank", "msgs", "words"});
    for (const i64 c : {i64{1}, i64{2}, i64{4}}) {
      const i64 d = 64 / (c * c);
      auto per_rank = rt::Runtime::run(64, [&](rt::Comm& world) {
        grid::TunableGrid g(world, static_cast<int>(c), static_cast<int>(d));
        auto da = DistMatrix::from_global_on_tunable(
            lin::hashed_matrix(61, m, n), g);
        (void)core::ca_cqr2(da, g);
      });
      const auto mc = rt::max_counters(per_rank);
      t.row({std::to_string(c), std::to_string(d),
             std::to_string(m * n / (d * c)),
             std::to_string(n * n / (c * c)), std::to_string(mc.msgs),
             std::to_string(mc.words)});
    }
    std::cout << "Measured (real run, " << m << "x" << n << ", P=64):\n";
    bench::emit("memory_tradeoff_measured", t);
  }

  // Paper scale: 1024 Stampede2 nodes, the Figure 7(b) matrix.
  {
    const model::Machine s2 = model::stampede2();
    const double m = 2097152, n = 4096;
    const i64 ranks = 1024 * s2.ranks_per_node;
    TextTable t;
    t.header({"c", "d", "mem words/rank", "beta words", "alpha msgs",
              "GF/s/node"});
    for (const auto& [c, d] : model::valid_grids(ranks)) {
      if (double(d) > m || double(c) > n) continue;
      const auto cost = model::cost_ca_cqr2(m, n, double(c), double(d));
      t.row({std::to_string(c), std::to_string(d),
             TextTable::num(cost.mem, 5), TextTable::num(cost.beta, 5),
             TextTable::num(cost.alpha, 5),
             TextTable::num(model::gflops_per_node(m, n, cost.time(s2),
                                                   1024.0))});
    }
    std::cout << "Modeled at 1024 Stampede2 nodes, " << i64(m) << "x"
              << i64(n) << " (memory up, words down as c grows):\n";
    bench::emit("memory_tradeoff_modeled", t);
  }
}

/// Modeled clock of a real CA-CQR2 run on the heuristic grid.
double run_cacqr2(int ranks, i64 m, i64 n, const model::Machine& mach) {
  const auto [c, d] = core::choose_grid(ranks, m, n);
  auto per_rank = rt::Runtime::run(
      ranks,
      [&, c = c, d = d](rt::Comm& world) {
        grid::TunableGrid g(world, c, d);
        auto da = DistMatrix::from_global_on_tunable(
            lin::hashed_matrix(71, m, n), g);
        (void)core::ca_cqr2(da, g);
      },
      mach.rt_params());
  return rt::modeled_time(per_rank);
}

/// Modeled clock of a real PGEQRF run.
double run_pgeqrf(int ranks, i64 m, i64 n, const model::Machine& mach) {
  // Tallest process grid satisfying the block-cyclic layout constraints
  // (b*pr | m, b*pr | n, b*pc | n with block size 4), like the paper's
  // tall tuned configs.
  const i64 b = 4;
  int pr = ranks, pc = 1;
  while (pr > 1 && (n % (b * pr) != 0 || m % (b * pr) != 0 ||
                    n % (b * pc) != 0)) {
    pr /= 2;
    pc *= 2;
  }
  auto per_rank = rt::Runtime::run(
      ranks,
      [&, pr = pr, pc = pc, b = b](rt::Comm& world) {
        baseline::ProcGrid2d g(world, pr, pc);
        auto da = baseline::BlockCyclicMatrix::from_global(
            lin::hashed_matrix(72, m, n), b, g);
        (void)baseline::pgeqrf_2d(da, g, {.normalize_signs = false});
      },
      mach.rt_params());
  return rt::modeled_time(per_rank);
}

/// Strong and weak scaling of real executions under the LogP clock with
/// Stampede2 parameters: the execution counterpart of the model panels.
void smallscale_scaling() {
  const model::Machine s2 = model::stampede2();

  // Strong scaling: fixed 512 x 64.
  {
    const i64 m = 512, n = 64;
    TextTable t;
    t.header({"ranks", "CACQR2 sim ms", "PGEQRF sim ms", "speedup"});
    for (const int p : {4, 8, 16, 32, 64}) {
      const double ca = run_cacqr2(p, m, n, s2);
      const double sl = run_pgeqrf(p, m, n, s2);
      t.row({std::to_string(p), TextTable::num(ca * 1e3, 4),
             TextTable::num(sl * 1e3, 4), TextTable::num(sl / ca, 3)});
    }
    std::cout << "Real-execution strong scaling (LogP clock, " << s2.name
              << "), " << m << " x " << n << ":\n";
    bench::emit("smallscale_strong", t);
  }

  // Weak scaling: m grows with ranks, n fixed.
  {
    const i64 n = 32;
    TextTable t;
    t.header({"ranks", "m", "CACQR2 sim ms", "PGEQRF sim ms", "speedup"});
    for (const int p : {4, 8, 16, 32, 64}) {
      const i64 m = 64 * p;
      const double ca = run_cacqr2(p, m, n, s2);
      const double sl = run_pgeqrf(p, m, n, s2);
      t.row({std::to_string(p), std::to_string(m),
             TextTable::num(ca * 1e3, 4), TextTable::num(sl * 1e3, 4),
             TextTable::num(sl / ca, 3)});
    }
    std::cout << "Real-execution weak scaling (LogP clock), m = 64*P x "
              << n << ":\n";
    bench::emit("smallscale_weak", t);
  }
}

}  // namespace

int main() {
  table1_asymptotics();
  table2_cfr3d_lines();
  table34_cqr1d_lines();
  table56_cacqr_lines();
  scaling_panels();
  ablation_basecase();
  ablation_inverse();
  memory_tradeoff();
  smallscale_scaling();
  return 0;
}
