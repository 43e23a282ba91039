/// \file quickstart.cpp
/// \brief Smallest useful program: factor a tall-skinny matrix with the
///        high-level driver and verify the factors.
///
/// Run:  ./quickstart [--ranks=8] [--m=600] [--n=40]
///
/// The driver picks a near-optimal c x d x c grid for the rank count and
/// matrix shape, pads to grid-divisible dimensions internally, runs
/// CA-CholeskyQR2, and hands back gathered Q and R.  The program fails
/// (throws from rank 0, exit status non-zero) when its own check does:
/// an orthogonality or relative residual error above 1e-12, or an R that
/// is not upper triangular.

#include <iostream>

#include "cacqr/core/factorize.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/rt/comm.hpp"
#include "cacqr/support/cli.hpp"
#include "cacqr/support/error.hpp"

int main(int argc, char** argv) {
  using namespace cacqr;
  const CliArgs args(argc, argv);
  const int ranks = static_cast<int>(args.get_int("ranks", 8));
  const i64 m = args.get_int("m", 600);
  const i64 n = args.get_int("n", 40);

  std::cout << "CA-CholeskyQR2 quickstart: " << m << " x " << n << " on "
            << ranks << " ranks\n";

  // Every rank regenerates the same input from the seed; in a real
  // application each rank would own only its local block (see the
  // ca_cqr2 API in core/ca_cqr.hpp for the fully distributed path).
  lin::Matrix a = lin::hashed_matrix(/*seed=*/2024, m, n);

  rt::Runtime::run(ranks, [&](rt::Comm& world) {
    auto result = core::factorize(a, world);
    if (world.rank() != 0) return;

    const double orth = lin::orthogonality_error(result.q);
    const double resid = lin::residual_error(a, result.q, result.r);
    const bool upper = lin::is_upper_triangular(result.r);
    std::cout << "  grid: " << result.plan.c << " x " << result.plan.d
              << " x " << result.plan.c
              << (result.used_shift ? " (shifted fallback)" : "") << "\n";
    std::cout << "  ||Q^T Q - I||_F       = " << orth << "\n";
    std::cout << "  ||A - Q R|| / ||A||   = " << resid << "\n";
    std::cout << "  R upper triangular    = " << (upper ? "yes" : "NO")
              << "\n";
    double min_diag = result.r(0, 0);
    for (i64 i = 0; i < n; ++i) min_diag = std::min(min_diag, result.r(i, i));
    std::cout << "  min diag(R)           = " << min_diag << "\n";
    ensure(orth <= 1e-12 && resid <= 1e-12 && upper,
           "quickstart: factors failed the check (orthogonality ", orth,
           ", residual ", resid, ", upper triangular ", upper, ")");
  });
  return 0;
}
