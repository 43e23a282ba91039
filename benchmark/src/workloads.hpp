#pragma once
/// \file workloads.hpp
/// \brief The benchmark's workloads (README.md says why each exists).
///
/// Every workload runs in its own process on the modeled transport.  The
/// seed generates all inputs before any timed interval; the library only
/// ever sees the generated matrices.  An untraced run (`trace == false`)
/// measures the end-to-end metrics; a traced run measures the per-layer
/// metrics from outside the library, by timing calls into each layer's
/// public functions.

#include <cstdint>
#include <string>

#include "support.hpp"

namespace bench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< length of the measured interval(s)
  bool trace = false;
  bool tiny = false;  ///< smoke-test sizes
};

/// `factorize` and `grid3d`: closed-loop collective core::factorize calls.
[[nodiscard]] bool is_factorize_workload(const std::string& name);
[[nodiscard]] Outcome run_factorize_workload(const RunArgs& args);

/// `serve`: a closed loop of 16 in-flight jobs against FactorizeService.
[[nodiscard]] Outcome run_serve_workload(const RunArgs& args);

/// The local kernels alone, single-threaded, on an mloc x nloc panel (and
/// CholInv at order nbase): sets the lin.*_gflops rates and lin.cholinv_ms
/// from medians over about `seconds` in total.
void measure_kernels(Outcome& out, std::uint64_t seed, i64 mloc, i64 nloc,
                     i64 nbase, double seconds);

/// The collectives alone on a fresh runtime of `ranks` with a c x d x c
/// grid: an allreduce of `gram_words` over the world and an allgather of
/// `local_words` per rank over the grid slice, each fenced by barriers,
/// repeated for about `seconds`.  Sets the rt.allreduce_ms and
/// rt.allgather_ms medians.
void measure_collectives(Outcome& out, int ranks, int c, int d,
                         i64 gram_words, i64 local_words, double seconds);

}  // namespace bench
