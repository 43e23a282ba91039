/// \file least_squares.cpp
/// \brief The paper's motivating workload: a very overdetermined least
///        squares problem min ||A x - b||, solved with the distributed
///        CA-CholeskyQR2 factorization (x = R^{-1} Q^T b).
///
/// Run:  ./least_squares [--ranks=8] [--rows=4096] [--features=32]
///
/// The example builds a synthetic regression problem with known ground
/// truth plus noise, factors A on the tunable grid, and reports recovery
/// and residual-orthogonality diagnostics.  The program fails (throws
/// from rank 0, exit status non-zero) when the normal-equations residual
/// ||A^T (A x - b)||_inf exceeds 1e-10; a correct solve leaves it near
/// machine precision.

#include <iostream>

#include "cacqr/core/factorize.hpp"
#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/support/cli.hpp"
#include "cacqr/support/error.hpp"

int main(int argc, char** argv) {
  using namespace cacqr;
  const CliArgs args(argc, argv);
  const int ranks = static_cast<int>(args.get_int("ranks", 8));
  const i64 m = args.get_int("rows", 4096);
  const i64 n = args.get_int("features", 32);

  // Regression design matrix with mild conditioning, true coefficients,
  // and a noisy observation vector.
  Rng rng(7);
  lin::Matrix a = lin::with_cond(rng, m, n, 50.0);
  lin::Matrix x_true = lin::gaussian(rng, n, 1);
  lin::Matrix b(m, 1);
  lin::gemv(lin::Trans::N, 1.0, a, x_true, 0.0, b);
  const double noise = 1e-3;
  for (i64 i = 0; i < m; ++i) b(i, 0) += noise * rng.normal();

  std::cout << "Least squares via CA-CholeskyQR2: " << m << " samples, "
            << n << " features, " << ranks << " ranks, noise " << noise
            << "\n";

  rt::Runtime::run(ranks, [&](rt::Comm& world) {
    auto fact = core::factorize(a, world);
    if (world.rank() != 0) return;

    // x = R^{-1} (Q^T b).
    lin::Matrix qtb(n, 1);
    lin::gemv(lin::Trans::T, 1.0, fact.q, b, 0.0, qtb);
    lin::trsm(lin::Side::Left, lin::Uplo::Upper, lin::Trans::N,
              lin::Diag::NonUnit, 1.0, fact.r, qtb);

    // Diagnostics: coefficient recovery and the normal-equations check
    // A^T (A x - b) ~ 0 that any least-squares solution must satisfy.
    lin::Matrix resid = materialize(b.view());
    lin::gemv(lin::Trans::N, 1.0, a, qtb, -1.0, resid);
    lin::Matrix atr(n, 1);
    lin::gemv(lin::Trans::T, 1.0, a, resid, 0.0, atr);

    std::cout << "  grid used                 : " << fact.plan.c << " x "
              << fact.plan.d << " x " << fact.plan.c << "\n";
    std::cout << "  ||x - x_true||_inf        : "
              << lin::max_abs_diff(qtb, x_true) << "  (noise floor ~"
              << noise << ")\n";
    const double normal_eq = lin::max_abs(atr);
    std::cout << "  ||A^T (A x - b)||_inf     : " << normal_eq
              << "  (normal equations)\n";
    std::cout << "  ||A x - b||_2             : " << lin::nrm2(resid) << "\n";
    ensure(normal_eq <= 1e-10,
           "least_squares: normal-equations residual ", normal_eq,
           " above 1e-10");
  });
  return 0;
}
