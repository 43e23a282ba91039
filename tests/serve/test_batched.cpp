/// \file test_batched.cpp
/// \brief The stacked CQR2 sweep (core/batched.hpp): every panel of a
///        micro-batch comes out byte-identical to the same panel run as a
///        batch of one -- across thread budgets, precision modes and a
///        reused workspace -- a breakdown panel is isolated from its
///        batch mates whether its shifted rerun repairs it or its error
///        rides its own item, and the root result shape leaves the
///        replicated Q on rank 0 alone.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "cacqr/core/batched.hpp"
#include "cacqr/core/factorize.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/parallel.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/support/math.hpp"
#include "cacqr/support/rng.hpp"

namespace cacqr::core {
namespace {

namespace parallel = lin::parallel;

struct BudgetGuard {
  int saved = parallel::thread_budget();
  ~BudgetGuard() { parallel::set_thread_budget(saved); }
};

/// The same panel as a batch of one: the standalone reference (the 1D
/// driver itself delegates here, so this IS the standalone result).
BatchedItem solo(lin::ConstMatrixView panel, const rt::Comm& world,
                 const BatchedOptions& opts) {
  const lin::ConstMatrixView panels[1] = {panel};
  std::vector<BatchedItem> items = factorize_batched(panels, world, opts);
  return std::move(items.front());
}

bool same_bytes(std::span<const double> x, std::span<const double> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), sizeof(double) * x.size()) == 0;
}

std::span<const double> words(const lin::Matrix& m) {
  return {m.data(), static_cast<std::size_t>(m.size())};
}

/// `item`'s Q then R, as fresh_solo publishes them.
std::vector<double> q_then_r(const BatchedItem& item) {
  std::vector<double> v(words(item.q).begin(), words(item.q).end());
  v.insert(v.end(), words(item.r).begin(), words(item.r).end());
  return v;
}

/// Rank 0's Q then R of `panel` as a batch of one in a fresh runtime of
/// p ranks (run_collect: on shm the ranks are forked processes).
std::vector<double> fresh_solo(lin::ConstMatrixView panel, int p,
                               const BatchedOptions& opts) {
  return rt::Runtime::run_collect(p, [&](rt::Comm& world) {
           const BatchedItem item = solo(panel, world, opts);
           EXPECT_TRUE(item.ok);
           if (world.rank() == 0) world.publish(q_then_r(item));
         })
      .published.front();
}

TEST(BatchedTest, StackedSweepBitwiseAcrossBudgetsOverlapAndPrecision) {
  // The tentpole contract: N stacked panels -- different row counts, even
  // different column counts -- factor byte-identically to N standalone
  // sweeps, because the fused Allreduce pairs ranks, not elements.  Swept
  // over the axes that could plausibly perturb bits.
  const BudgetGuard budget_guard;
  for (const int budget : {1, 4}) {
    for (const Precision precision : {Precision::fp64, Precision::mixed}) {
      parallel::set_thread_budget(budget);
      const std::string cfg = "budget=" + std::to_string(budget) +
                              " precision=" +
                              std::string(precision_name(precision));
      rt::Runtime::run(4, [&](rt::Comm& world) {
        const lin::Matrix a0 = lin::hashed_matrix(201, 96, 8);
        const lin::Matrix a1 = lin::hashed_matrix(202, 120, 8);
        const lin::Matrix a2 = lin::hashed_matrix(203, 80, 12);
        const lin::Matrix a3 = lin::hashed_matrix(204, 96, 8);
        const lin::ConstMatrixView panels[4] = {a0, a1, a2, a3};
        const BatchedOptions opts{.precision = precision};
        const std::vector<BatchedItem> batch =
            factorize_batched(panels, world, opts);
        ASSERT_EQ(batch.size(), 4u);
        for (int i = 0; i < 4; ++i) {
          const BatchedItem ref = solo(panels[i], world, opts);
          EXPECT_TRUE(batch[i].ok);
          EXPECT_EQ(batch[i].used_shift, ref.used_shift) << cfg;
          EXPECT_EQ(lin::max_abs_diff(batch[i].q, ref.q), 0.0)
              << cfg << " panel " << i;
          EXPECT_EQ(lin::max_abs_diff(batch[i].r, ref.r), 0.0)
              << cfg << " panel " << i;
        }
      });
    }
  }
}

TEST(BatchedTest, Fp32LaneBatchesBitwiseToo) {
  // The fp32 Gram slab carries MatrixF wire words at per-panel offsets;
  // one f32 Allreduce must still be offset-invisible.
  rt::Runtime::run(4, [](rt::Comm& world) {
    const lin::Matrix a0 = lin::hashed_matrix(205, 128, 8);
    const lin::Matrix a1 = lin::hashed_matrix(206, 96, 12);
    const lin::Matrix a2 = lin::hashed_matrix(207, 128, 8);
    const lin::ConstMatrixView panels[3] = {a0, a1, a2};
    const BatchedOptions opts{.precision = Precision::fp32};
    const std::vector<BatchedItem> batch =
        factorize_batched(panels, world, opts);
    for (int i = 0; i < 3; ++i) {
      const BatchedItem ref = solo(panels[i], world, opts);
      EXPECT_TRUE(batch[i].ok);
      EXPECT_EQ(lin::max_abs_diff(batch[i].q, ref.q), 0.0) << "panel " << i;
      EXPECT_EQ(lin::max_abs_diff(batch[i].r, ref.r), 0.0) << "panel " << i;
    }
  });
}

/// A panel whose shifted rerun breaks down too: its first column is zero,
/// so the shifted pass's Q1 keeps a zero column and pass 2's Gram a zero
/// pivot.
lin::Matrix zero_column_panel() {
  lin::Matrix a = lin::hashed_matrix(216, 64, 8);
  for (i64 i = 0; i < a.rows(); ++i) a(i, 0) = 0.0;
  return a;
}

/// A panel holding one NaN: its pivot is NaN, which no shift repairs.
lin::Matrix nan_panel() {
  lin::Matrix a = lin::hashed_matrix(217, 64, 8);
  a(10, 3) = std::nan("");
  return a;
}

TEST(BatchedTest, BreakdownPanelRetriesShiftedWithoutDisturbingMates) {
  Rng rng(208);
  const lin::Matrix bad = lin::with_cond(rng, 64, 8, 1e13);
  const lin::Matrix zero_col = zero_column_panel();
  const lin::Matrix nan = nan_panel();
  rt::Runtime::run(4, [&](rt::Comm& world) {
    const lin::Matrix g0 = lin::hashed_matrix(209, 64, 8);
    const lin::Matrix g1 = lin::hashed_matrix(210, 72, 8);
    const lin::ConstMatrixView panels[5] = {g0, bad, g1, zero_col, nan};
    const std::vector<BatchedItem> batch =
        factorize_batched(panels, world, {});
    EXPECT_TRUE(batch[1].ok);
    EXPECT_TRUE(batch[1].used_shift);
    EXPECT_LT(lin::orthogonality_error(batch[1].q), 1e-10);
    EXPECT_LT(lin::residual_error(bad, batch[1].q, batch[1].r), 1e-9);
    // The zero column breaks the shifted rerun too; the NaN is never
    // rerun.  Each carries its own error.
    EXPECT_FALSE(batch[3].ok);
    EXPECT_TRUE(batch[3].used_shift);
    ASSERT_TRUE(batch[3].error != nullptr);
    EXPECT_THROW(std::rethrow_exception(batch[3].error), NotSpdError);
    EXPECT_FALSE(batch[4].ok);
    EXPECT_FALSE(batch[4].used_shift);
    ASSERT_TRUE(batch[4].error != nullptr);
    EXPECT_THROW(std::rethrow_exception(batch[4].error), NonFiniteError);
    for (const int i : {0, 2}) {
      const BatchedItem ref = solo(panels[i], world, {});
      EXPECT_TRUE(batch[i].ok);
      EXPECT_FALSE(batch[i].used_shift);
      EXPECT_EQ(lin::max_abs_diff(batch[i].q, ref.q), 0.0) << "panel " << i;
      EXPECT_EQ(lin::max_abs_diff(batch[i].r, ref.r), 0.0) << "panel " << i;
    }
  });
}

TEST(BatchedTest, FusedRerunAddsOnlyTheExtraGathers) {
  // All of a batch's shifted reruns ride one more fused sweep, and one
  // Allgather moves every panel's Q: a second broken panel and a third
  // healthy one add no message to the 3-panel batch's count.
  const int p = 4;
  Rng rng(208);
  const lin::Matrix bad = lin::with_cond(rng, 64, 8, 1e13);
  Rng rng2(211);
  const lin::Matrix bad2 = lin::with_cond(rng2, 64, 8, 1e13);
  const lin::Matrix g0 = lin::hashed_matrix(209, 64, 8);
  const lin::Matrix g1 = lin::hashed_matrix(210, 72, 8);
  const lin::Matrix g2 = lin::hashed_matrix(212, 64, 8);
  const auto msgs = [&](std::span<const lin::ConstMatrixView> panels) {
    return rt::max_counters(rt::Runtime::run(p, [&](rt::Comm& world) {
             const std::vector<BatchedItem> batch =
                 factorize_batched(panels, world, {});
             std::size_t shifted = 0;
             for (const BatchedItem& item : batch) {
               EXPECT_TRUE(item.ok);
               shifted += item.used_shift ? 1 : 0;
             }
             EXPECT_EQ(shifted, panels.size() == 5 ? 2u : 1u);
           })).msgs;
  };
  const lin::ConstMatrixView three[3] = {g0, bad, g1};
  const lin::ConstMatrixView five[5] = {g0, bad, g1, bad2, g2};
  EXPECT_EQ(msgs(five), msgs(three));
}

TEST(BatchedTest, ReusedWorkspaceLeaksNothingIntoLaterBatches) {
  // One runtime, so each rank thread refactors in the workspace earlier
  // batches left behind: batches grow, shrink and change n, with
  // row-padded panels (m not a multiple of P), shifted reruns and the
  // fp32 lane.  Every item must equal the same panel as a batch of
  // one in a fresh runtime, byte for byte.
  const int p = 4;
  Rng rng(208);
  const lin::Matrix bad = lin::with_cond(rng, 64, 8, 1e13);
  const lin::Matrix big = lin::hashed_matrix(220, 400, 12);
  const lin::Matrix padded = lin::hashed_matrix(221, 45, 5);
  const lin::Matrix mid = lin::hashed_matrix(222, 130, 8);
  const lin::Matrix wide = lin::hashed_matrix(223, 96, 16);
  struct Batch {
    std::vector<const lin::Matrix*> panels;
    BatchedOptions opts;
  };
  const std::vector<Batch> batches = {
      {{&big, &mid, &bad}, {}},
      {{&padded}, {}},
      {{&mid, &padded}, {.precision = Precision::fp32}},
      {{&wide, &bad, &padded}, {.precision = Precision::mixed}},
      {{&padded, &bad, &mid}, {}},
      {{&big, &padded}, {.result = ResultShape::root}},
  };
  std::vector<std::vector<std::vector<double>>> ref;
  for (const Batch& batch : batches) {
    ref.emplace_back();
    for (const lin::Matrix* a : batch.panels) {
      BatchedOptions opts = batch.opts;
      opts.result = ResultShape::replicated;
      ref.back().push_back(fresh_solo(*a, p, opts));
    }
  }
  rt::Runtime::run(p, [&](rt::Comm& world) {
    for (std::size_t k = 0; k < batches.size(); ++k) {
      std::vector<lin::ConstMatrixView> panels;
      for (const lin::Matrix* a : batches[k].panels) panels.emplace_back(*a);
      const std::vector<BatchedItem> items =
          factorize_batched(panels, world, batches[k].opts);
      for (std::size_t i = 0; i < items.size(); ++i) {
        EXPECT_TRUE(items[i].ok) << "batch " << k << " panel " << i;
        if (batches[k].opts.result == ResultShape::root && world.rank() != 0) {
          continue;
        }
        EXPECT_TRUE(same_bytes(q_then_r(items[i]), ref[k][i]))
            << "batch " << k << " panel " << i << " rank " << world.rank();
      }
    }
  });
}

TEST(BatchedTest, RootShapeLeavesTheReplicatedQOnRankZeroOnly) {
  // One Gather to rank 0 instead of one Allgather: rank 0's Q is the
  // replicated Q byte for byte, the other ranks' Q is empty, and R is the
  // same on every rank.
  Rng rng(208);
  const lin::Matrix bad = lin::with_cond(rng, 64, 8, 1e13);
  const lin::Matrix a0 = lin::hashed_matrix(224, 96, 8);
  const lin::Matrix a1 = lin::hashed_matrix(225, 45, 5);
  for (const int p : {2, 3, 4}) {
    rt::Runtime::run(p, [&](rt::Comm& world) {
      const lin::ConstMatrixView panels[3] = {a0, bad, a1};
      const std::vector<BatchedItem> rep =
          factorize_batched(panels, world, {});
      const std::vector<BatchedItem> root =
          factorize_batched(panels, world, {.result = ResultShape::root});
      for (int i = 0; i < 3; ++i) {
        const std::string cfg = "p=" + std::to_string(p) + " panel " +
                                std::to_string(i) + " rank " +
                                std::to_string(world.rank());
        EXPECT_TRUE(root[i].ok) << cfg;
        EXPECT_EQ(root[i].used_shift, rep[i].used_shift) << cfg;
        if (world.rank() == 0) {
          EXPECT_TRUE(same_bytes(words(root[i].q), words(rep[i].q))) << cfg;
        } else {
          EXPECT_EQ(root[i].q.size(), 0) << cfg;
        }
        const std::span<const double> r = words(root[i].r);
        std::vector<double> all(r.size() * static_cast<std::size_t>(p));
        world.allgather(r, all);
        for (int rk = 0; rk < p; ++rk) {
          EXPECT_TRUE(same_bytes(
              std::span<const double>(all).subspan(r.size() * rk, r.size()),
              r))
              << cfg << " vs rank " << rk;
        }
      }
    });
  }
}

TEST(BatchedTest, ThreePassBatchMatchesStandaloneShiftedRuns) {
  // Two panels that break down rerun shifted CholeskyQR3 as one fused
  // 3-pass sweep; each must come out byte-identical to its own shifted
  // rerun as a batch of one.
  Rng rng(208);
  const lin::Matrix a0 = lin::with_cond(rng, 64, 8, 1e13);
  Rng rng2(211);
  const lin::Matrix a1 = lin::with_cond(rng2, 64, 8, 1e13);
  rt::Runtime::run(4, [&](rt::Comm& world) {
    const lin::ConstMatrixView panels[2] = {a0, a1};
    const std::vector<BatchedItem> batch = factorize_batched(panels, world);
    for (int i = 0; i < 2; ++i) {
      const BatchedItem ref = solo(panels[i], world, {});
      EXPECT_TRUE(batch[i].ok) << "panel " << i;
      EXPECT_TRUE(batch[i].used_shift) << "panel " << i;
      EXPECT_TRUE(ref.used_shift) << "panel " << i;
      EXPECT_EQ(lin::max_abs_diff(batch[i].q, ref.q), 0.0) << "panel " << i;
      EXPECT_EQ(lin::max_abs_diff(batch[i].r, ref.r), 0.0) << "panel " << i;
    }
  });
}

TEST(BatchedTest, EmptyBatchAndBadPanelsValidate) {
  rt::Runtime::run(2, [](rt::Comm& world) {
    EXPECT_TRUE(factorize_batched({}, world).empty());
    const lin::Matrix wide(4, 8);
    const lin::ConstMatrixView panels[1] = {wide};
    EXPECT_THROW((void)factorize_batched(panels, world), DimensionError);
  });
}

}  // namespace
}  // namespace cacqr::core
