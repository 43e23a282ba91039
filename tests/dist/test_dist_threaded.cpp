/// \file test_dist_threaded.cpp
/// \brief Bitwise determinism of the threaded dist/ local stages, and
///        thread-invariant tallies and modeled clock.
///
/// Mirrors tests/lin/test_parallel.cpp one layer up: every local stage of
/// the distributed primitives (from_global pack, gather unpack, the
/// transpose3d permute, mm3d staging copies, add_scaled, the sub_block
/// copies block_backsolve is built from) is split over the per-rank worker
/// team, and must produce byte-identical local blocks at any per-rank
/// thread budget.  The collectives' schedules are fixed, so whole
/// factorizations inherit the guarantee -- asserted end-to-end for cqr_1d
/// and ca_cqr2 (fp64 and mixed) at budgets 1 vs 4 (the same pair CI's
/// CACQR_THREADS matrix runs).  Every run uses Stampede2's alpha-beta-
/// gamma parameters, so each rank's msgs/words/flops AND its nonzero
/// modeled clock must also match across the two budgets.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "cacqr/core/ca_cqr.hpp"
#include "cacqr/core/cqr_1d.hpp"
#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/model/machine.hpp"

namespace cacqr::dist {
namespace {

bool blobs_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Each rank's output block as a published blob (dims + data, so the
/// comparison works on every transport backend) and its final tally.
struct StageRun {
  std::vector<std::vector<double>> blocks;
  std::vector<rt::CostCounters> counters;
};

/// Runs `stage` on p ranks with the given per-rank worker budget under
/// Stampede2's machine parameters (a nonzero modeled clock).
StageRun run_stage(int p, int threads_per_rank,
                   const std::function<lin::Matrix(rt::Comm&)>& stage) {
  rt::RunOutput out = rt::Runtime::run_collect(
      p,
      [&](rt::Comm& world) {
        const lin::Matrix block = stage(world);
        const double dims[] = {static_cast<double>(block.rows()),
                               static_cast<double>(block.cols())};
        world.publish(dims);
        world.publish(std::span<const double>(
            block.data(), static_cast<std::size_t>(block.size())));
      },
      model::stampede2().rt_params(), threads_per_rank);
  return {std::move(out.published), std::move(out.counters)};
}

/// The load-bearing assertion: budgets 1 and 4 yield byte-identical
/// per-rank outputs and equal per-rank msgs, words, flops and modeled
/// time.  Shapes in the tests below are sized so the local blocks exceed
/// the parallel_for_cols grain (8192 elements) and the column split
/// actually engages at budget 4.
void expect_stage_bitwise(int p,
                          const std::function<lin::Matrix(rt::Comm&)>& stage) {
  const StageRun r1 = run_stage(p, 1, stage);
  const StageRun r4 = run_stage(p, 4, stage);
  for (int r = 0; r < p; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_TRUE(blobs_equal(r1.blocks[i], r4.blocks[i])) << "rank " << r;
    EXPECT_EQ(r1.counters[i].msgs, r4.counters[i].msgs) << "rank " << r;
    EXPECT_EQ(r1.counters[i].words, r4.counters[i].words) << "rank " << r;
    EXPECT_EQ(r1.counters[i].flops, r4.counters[i].flops) << "rank " << r;
    EXPECT_EQ(r1.counters[i].time, r4.counters[i].time) << "rank " << r;
  }
}

TEST(DistThreaded, FromGlobalPack) {
  expect_stage_bitwise(4, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(301, 1024, 128);
    auto da = DistMatrix::from_global(a, 2, 2, world.rank() / 2,
                                      world.rank() % 2);
    return da.local();
  });
}

TEST(DistThreaded, GatherUnpack) {
  expect_stage_bitwise(4, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(302, 1024, 128);
    // Slice convention: comm rank == x + col_procs * y.
    auto da = DistMatrix::from_global(a, 2, 2, world.rank() / 2,
                                      world.rank() % 2);
    return gather(da, world);
  });
}

TEST(DistThreaded, Transpose3dPermute) {
  expect_stage_bitwise(8, [](rt::Comm& world) {
    grid::CubeGrid g(world, 2);
    const lin::Matrix a = lin::hashed_matrix(303, 256, 256);
    auto da = DistMatrix::from_global_on_cube(a, g);
    return transpose3d(da, g).local();
  });
}

TEST(DistThreaded, Mm3dStagingCopies) {
  expect_stage_bitwise(8, [](rt::Comm& world) {
    grid::CubeGrid g(world, 2);
    const lin::Matrix a = lin::hashed_matrix(304, 256, 256);
    const lin::Matrix b = lin::hashed_matrix(305, 256, 256);
    auto da = DistMatrix::from_global_on_cube(a, g);
    auto db = DistMatrix::from_global_on_cube(b, g);
    return mm3d(da, db, g).local();
  });
}

TEST(DistThreaded, AddScaled) {
  expect_stage_bitwise(4, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(306, 1024, 128);
    const lin::Matrix b = lin::hashed_matrix(307, 1024, 128);
    auto da = DistMatrix::from_global(a, 2, 2, world.rank() / 2,
                                      world.rank() % 2);
    auto db = DistMatrix::from_global(b, 2, 2, world.rank() / 2,
                                      world.rank() % 2);
    add_scaled(da, -0.75, db);
    return da.local();
  });
}

TEST(DistThreaded, SubBlockRoundTrip) {
  expect_stage_bitwise(4, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(308, 1024, 128);
    auto da = DistMatrix::from_global(a, 2, 2, world.rank() / 2,
                                      world.rank() % 2);
    auto quad = da.sub_block(512, 0, 512, 64);
    da.set_sub_block(0, 64, quad);
    return da.local();
  });
}

TEST(DistThreaded, BlockBacksolve) {
  // Determinism only needs fixed inputs, not a numerically meaningful
  // solve: the sweep exercises the sub_block / mm3d / add_scaled chain.
  expect_stage_bitwise(8, [](rt::Comm& world) {
    grid::CubeGrid g(world, 2);
    const lin::Matrix bm = lin::hashed_matrix(309, 512, 256);
    const lin::Matrix rm = lin::hashed_matrix(310, 256, 256);
    const lin::Matrix rinv = lin::hashed_matrix(311, 256, 256);
    auto db = DistMatrix::from_global_on_cube(bm, g);
    auto dr = DistMatrix::from_global_on_cube(rm, g);
    auto dri = DistMatrix::from_global_on_cube(rinv, g);
    return block_backsolve(db, dr, dri, 4, g).local();
  });
}

TEST(DistThreaded, Cqr1dEndToEnd) {
  expect_stage_bitwise(4, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(312, 2048, 96);
    auto da = DistMatrix::from_global(a, world.size(), 1, world.rank(), 0);
    auto res = core::cqr_1d(da, world);
    // Fold Q and R into one block so a single comparison covers both.
    lin::Matrix out(res.q.local().rows() + res.r.rows(), res.q.local().cols());
    lin::copy(res.q.local(),
              out.sub(0, 0, res.q.local().rows(), res.q.local().cols()));
    lin::copy(res.r.sub(0, 0, res.r.rows(), res.q.local().cols()),
              out.sub(res.q.local().rows(), 0, res.r.rows(),
                      res.q.local().cols()));
    return out;
  });
}

TEST(DistThreaded, CaCqr2EndToEnd) {
  // mixed runs the first pass's Gram (ca_gram) on the fp32 lane.
  for (const Precision precision : {Precision::fp64, Precision::mixed}) {
    expect_stage_bitwise(8, [precision](rt::Comm& world) {
      grid::TunableGrid g(world, 2, 2);
      const lin::Matrix a = lin::hashed_matrix(313, 512, 64);
      auto da = DistMatrix::from_global_on_tunable(a, g);
      auto res = core::ca_cqr2(da, g, {.precision = precision});
      lin::Matrix out(res.q.local().rows() + res.r.local().rows(),
                      res.q.local().cols());
      lin::copy(res.q.local(),
                out.sub(0, 0, res.q.local().rows(), res.q.local().cols()));
      lin::copy(res.r.local(), out.sub(res.q.local().rows(), 0,
                                       res.r.local().rows(),
                                       res.r.local().cols()));
      return out;
    });
  }
}

TEST(DistThreaded, Mm3dNoArenaGrowthAfterWarmup) {
  // The only dist stage that feeds the packed-kernel arenas is the local
  // gemm inside mm3d.  Steady-state calls of one shape must not allocate
  // (same contract as PackArena.NoAllocationsAfterFirstSameShapeCall, here
  // across all rank threads and their worker teams at budget 4).
  rt::Runtime::run(
      8,
      [&](rt::Comm& world) {
        grid::CubeGrid g(world, 2);
        const lin::Matrix a = lin::hashed_matrix(314, 256, 256);
        const lin::Matrix b = lin::hashed_matrix(315, 256, 256);
        auto da = DistMatrix::from_global_on_cube(a, g);
        auto db = DistMatrix::from_global_on_cube(b, g);
        // Two warmup rounds: pools spawn and every participating thread's
        // arena finishes growing on the first same-shape call.
        for (int i = 0; i < 2; ++i) (void)mm3d(da, db, g);
        world.barrier();
        static i64 before = 0;
        if (world.rank() == 0) before = lin::kernel::arena_stats().allocations;
        world.barrier();
        for (int i = 0; i < 3; ++i) (void)mm3d(da, db, g);
        world.barrier();
        if (world.rank() == 0) {
          EXPECT_EQ(before, lin::kernel::arena_stats().allocations);
        }
      },
      rt::Machine::counting(), 4);
}

}  // namespace
}  // namespace cacqr::dist
