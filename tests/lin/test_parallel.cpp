/// \file test_parallel.cpp
/// \brief Worker-pool primitives, packing-arena reuse, and the bitwise
///        determinism contract of the threaded kernels.
///
/// The determinism tests are the load-bearing ones: every level-3 kernel
/// must produce byte-identical output at any thread budget, because the
/// distributed algorithms and the modeled-time validation assume kernel
/// results (and flop tallies) are independent of intra-rank threading.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/factor.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/parallel.hpp"
#include "cacqr/support/rng.hpp"

namespace {

using namespace cacqr;
using lin::Matrix;
namespace parallel = lin::parallel;

/// Restores the calling thread's worker budget on scope exit so tests do
/// not leak budget overrides into each other (CI runs the whole suite at
/// CACQR_THREADS=1 and =4).
struct BudgetGuard {
  int saved = parallel::thread_budget();
  ~BudgetGuard() { parallel::set_thread_budget(saved); }
};

bool bytes_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(double)) == 0;
}

// ------------------------------------------------------------ primitives

TEST(SplitRange, DealsWholeGrainUnitsExactlyOnce) {
  const i64 count = 103;
  const i64 grain = 8;
  std::vector<int> hits(static_cast<std::size_t>(count), 0);
  i64 prev_end = 0;
  for (int part = 0; part < 4; ++part) {
    const auto r = parallel::split_range(count, grain, part, 4);
    EXPECT_EQ(r.begin, prev_end);
    EXPECT_EQ(r.begin % grain, 0);
    prev_end = r.end;
    for (i64 i = r.begin; i < r.end; ++i) ++hits[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(prev_end, count);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(SplitRange, PartsBeyondUnitCountAreEmpty) {
  // 2 units of grain 10 dealt to 5 parts: parts 2..4 get nothing.
  const auto r4 = parallel::split_range(20, 10, 4, 5);
  EXPECT_EQ(r4.begin, r4.end);
  const auto r0 = parallel::split_range(20, 10, 0, 5);
  EXPECT_EQ(r0.begin, 0);
  EXPECT_EQ(r0.end, 10);
}

TEST(Pool, RunExecutesEveryTidOnce) {
  std::vector<std::atomic<int>> seen(4);
  for (auto& s : seen) s.store(0);
  parallel::run(4, [&](parallel::Team& team) {
    EXPECT_EQ(team.size(), 4);
    seen[static_cast<std::size_t>(team.tid())].fetch_add(1);
  });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(Pool, BarrierSeparatesPhases) {
  std::atomic<int> phase1{0};
  std::atomic<bool> ok{true};
  parallel::run(4, [&](parallel::Team& team) {
    phase1.fetch_add(1);
    team.barrier();
    if (phase1.load() != 4) ok.store(false);
    team.barrier();
    phase1.fetch_add(1);
    team.barrier();
    if (phase1.load() != 8) ok.store(false);
  });
  EXPECT_TRUE(ok.load());
}

TEST(Pool, NestedRegionsRunInline) {
  std::atomic<int> inner_sizes{0};
  parallel::run(3, [&](parallel::Team&) {
    parallel::run(3, [&](parallel::Team& inner) {
      inner_sizes.fetch_add(inner.size());
    });
  });
  // Every nested region collapsed to a team of one.
  EXPECT_EQ(inner_sizes.load(), 3);
}

TEST(Pool, WorkerExceptionPropagatesToCaller) {
  EXPECT_THROW(
      parallel::run(4,
                    [&](parallel::Team& team) {
                      if (team.tid() == 1) {
                        throw std::runtime_error("worker failure");
                      }
                    }),
      std::runtime_error);
  // The pool must remain usable after a failed region.
  std::atomic<int> count{0};
  parallel::run(4, [&](parallel::Team&) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  BudgetGuard guard;
  parallel::set_thread_budget(4);
  const i64 count = 1037;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(count));
  for (auto& h : hits) h.store(0);
  parallel::parallel_for(count, 16, [&](i64 b, i64 e) {
    for (i64 i = b; i < e; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndSingleChunkRunInline) {
  BudgetGuard guard;
  parallel::set_thread_budget(4);
  int calls = 0;
  parallel::parallel_for(0, 1, [&](i64, i64) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel::parallel_for(5, 100, [&](i64 b, i64 e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 5);
  });
  EXPECT_EQ(calls, 1);
}

TEST(Budget, ClampsAndRestores) {
  BudgetGuard guard;
  parallel::set_thread_budget(0);
  EXPECT_EQ(parallel::thread_budget(), 1);
  parallel::set_thread_budget(6);
  EXPECT_EQ(parallel::thread_budget(), 6);
  EXPECT_GE(parallel::env_threads(), 1);
  EXPECT_GE(parallel::hardware_threads(), 1);
}

// ------------------------------------------------- bitwise determinism
//
// Shapes are chosen to straddle the MC/KC/NR block boundaries AND to
// exceed the kernel's parallel threshold, so the threaded driver actually
// engages (both the ic-split and the shared-A cooperative paths).

template <class Body>
Matrix run_at_budget(int budget, Body&& body) {
  BudgetGuard guard;
  parallel::set_thread_budget(budget);
  return body();
}

TEST(BitwiseIdentity, GemmNnAcrossThreadCounts) {
  Rng rng(42);
  const Matrix a = lin::gaussian(rng, 1201, 300);
  const Matrix b = lin::gaussian(rng, 300, 97);
  const Matrix c0 = lin::gaussian(rng, 1201, 97);
  auto body = [&] {
    Matrix c = c0;
    lin::gemm(lin::Trans::N, lin::Trans::N, 0.75, a, b, 0.5, c);
    return c;
  };
  const Matrix c1 = run_at_budget(1, body);
  for (int t : {2, 3, 4}) {
    EXPECT_TRUE(bytes_equal(c1, run_at_budget(t, body))) << "threads=" << t;
  }
}

TEST(BitwiseIdentity, GemmTnSharedPackPathAcrossThreadCounts) {
  // C is 97 x 97: a single MC block, so the team must take the
  // cooperative shared-A path.
  Rng rng(7);
  const Matrix a = lin::gaussian(rng, 1500, 97);
  const Matrix b = lin::gaussian(rng, 1500, 97);
  auto body = [&] {
    Matrix c(97, 97);
    lin::gemm(lin::Trans::T, lin::Trans::N, 1.0, a, b, 0.0, c);
    return c;
  };
  const Matrix c1 = run_at_budget(1, body);
  for (int t : {2, 4, 8}) {
    EXPECT_TRUE(bytes_equal(c1, run_at_budget(t, body))) << "threads=" << t;
  }
}

/// The local (rows x columns) shapes of the serve workload's panels on two
/// ranks, plus an odd one with row and column tails.
constexpr std::pair<i64, i64> kServeShapes[] = {
    {256, 16}, {384, 16}, {512, 32}, {1024, 64}, {1023, 61}};

TEST(BitwiseIdentity, GramAcrossThreadCounts) {
  Rng rng(11);
  // 2000 x 130 takes the packed sweep, the serve shapes the narrow path.
  std::vector<std::pair<i64, i64>> shapes = {{2000, 130}};
  shapes.insert(shapes.end(), std::begin(kServeShapes),
                std::end(kServeShapes));
  for (const auto& [m, n] : shapes) {
    const Matrix a = lin::gaussian(rng, m, n);
    auto body = [&] {
      Matrix g(n, n);
      lin::gram(1.0, a, 0.0, g);
      return g;
    };
    const Matrix g1 = run_at_budget(1, body);
    for (int t : {2, 4, 8}) {
      EXPECT_TRUE(bytes_equal(g1, run_at_budget(t, body)))
          << m << "x" << n << " threads=" << t;
    }
  }
}

TEST(BitwiseIdentity, TrmmTrsmRightAcrossThreadCounts) {
  Rng rng(23);
  Matrix t = lin::spd_with_cond(rng, 200, 10.0);
  lin::potrf(t);
  const Matrix b = lin::gaussian(rng, 900, 200);
  auto trmm_body = [&] {
    Matrix w = b;
    lin::trmm(lin::Side::Right, lin::Uplo::Lower, lin::Trans::T,
              lin::Diag::NonUnit, 1.0, t, w);
    return w;
  };
  auto trsm_body = [&] {
    Matrix w = b;
    lin::trsm(lin::Side::Right, lin::Uplo::Lower, lin::Trans::T,
              lin::Diag::NonUnit, 1.0, t, w);
    return w;
  };
  const Matrix m1 = run_at_budget(1, trmm_body);
  const Matrix s1 = run_at_budget(1, trsm_body);
  for (int threads : {2, 4, 8}) {
    EXPECT_TRUE(bytes_equal(m1, run_at_budget(threads, trmm_body)))
        << "trmm threads=" << threads;
    EXPECT_TRUE(bytes_equal(s1, run_at_budget(threads, trsm_body)))
        << "trsm threads=" << threads;
  }
  // The CholeskyQR update Q = A R^{-1} at serve's shapes, and the left
  // side (B = R B, B n x m) split over column panels.
  for (const auto& [m, n] : kServeShapes) {
    Matrix l = lin::spd_with_cond(rng, n, 10.0);
    lin::potrf(l);
    const Matrix a = lin::gaussian(rng, m, n);
    const Matrix bl = lin::gaussian(rng, n, m);
    auto right = [&] {
      Matrix w = a;
      lin::trmm(lin::Side::Right, lin::Uplo::Lower, lin::Trans::T,
                lin::Diag::NonUnit, 1.0, l, w);
      return w;
    };
    auto left = [&] {
      Matrix w = bl;
      lin::trmm(lin::Side::Left, lin::Uplo::Lower, lin::Trans::T,
                lin::Diag::NonUnit, -2.0, l, w);
      return w;
    };
    const Matrix r1 = run_at_budget(1, right);
    const Matrix l1 = run_at_budget(1, left);
    for (int threads : {2, 4, 8}) {
      EXPECT_TRUE(bytes_equal(r1, run_at_budget(threads, right)))
          << "right " << m << "x" << n << " threads=" << threads;
      EXPECT_TRUE(bytes_equal(l1, run_at_budget(threads, left)))
          << "left " << n << "x" << m << " threads=" << threads;
    }
  }
}

TEST(BitwiseIdentity, PotrfAcrossThreadCounts) {
  Rng rng(31);
  const Matrix spd = lin::spd_with_cond(rng, 300, 50.0);
  auto body = [&] {
    Matrix l = spd;
    lin::potrf(l);
    return l;
  };
  const Matrix l1 = run_at_budget(1, body);
  for (int t : {2, 4}) {
    EXPECT_TRUE(bytes_equal(l1, run_at_budget(t, body))) << "threads=" << t;
  }
}

// ------------------------------------------------------------ arenas

TEST(PackArena, NoAllocationsAfterFirstSameShapeCall) {
  for (int threads : {1, 4}) {
    BudgetGuard guard;
    parallel::set_thread_budget(threads);
    Rng rng(static_cast<u64>(100 + threads));
    const Matrix a = lin::gaussian(rng, 1201, 300);
    const Matrix b = lin::gaussian(rng, 300, 97);
    Matrix c(1201, 97);
    // Warm every participating thread's arena (two calls: the pool and
    // the arenas both finish growing on the first).
    lin::matmul(a, b, c);
    lin::matmul(a, b, c);
    const i64 before = lin::kernel::arena_stats().allocations;
    for (int i = 0; i < 3; ++i) lin::matmul(a, b, c);
    const i64 after = lin::kernel::arena_stats().allocations;
    EXPECT_EQ(before, after) << "threads=" << threads;

    // The same contract for the Gram and both trmm sides at a serve
    // shape (1024 x 64, large enough to thread).
    const Matrix p = lin::gaussian(rng, 1024, 64);
    Matrix l = lin::spd_with_cond(rng, 64, 10.0);
    lin::potrf(l);
    Matrix g(64, 64);
    Matrix q = p;
    Matrix pt(64, 1024);
    auto kernels = [&] {
      lin::gram(1.0, p, 0.0, g);
      lin::trmm(lin::Side::Right, lin::Uplo::Lower, lin::Trans::T,
                lin::Diag::NonUnit, 1.0, l, q);
      lin::trmm(lin::Side::Left, lin::Uplo::Lower, lin::Trans::N,
                lin::Diag::NonUnit, 1.0, l, pt);
    };
    kernels();
    kernels();
    const i64 warm = lin::kernel::arena_stats().allocations;
    for (int i = 0; i < 3; ++i) kernels();
    EXPECT_EQ(warm, lin::kernel::arena_stats().allocations)
        << "gram/trmm threads=" << threads;
  }
}

TEST(PackArena, StatsAreCoherent) {
  Rng rng(55);
  const Matrix a = lin::gaussian(rng, 600, 80);
  Matrix g(80, 80);
  lin::gram(1.0, a, 0.0, g);
  const auto stats = lin::kernel::arena_stats();
  EXPECT_GT(stats.allocations, 0);
  EXPECT_GT(stats.bytes_in_use, 0);
  EXPECT_GE(stats.high_water_bytes, stats.bytes_in_use);
}

}  // namespace
