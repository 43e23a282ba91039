/// \file test_collectives_f32.cpp
/// \brief The fp32-payload collectives: allreduce/reduce over float pairs
///        riding whole 8-byte wire words (lin::MatrixF::wire()), odd-tail
///        padding, the halved-beta counter claim, and the fp32 kernels'
///        closed-form flop accounting.

#include <gtest/gtest.h>

#include <vector>

#include "cacqr/lin/blas_f.hpp"
#include "cacqr/lin/matrix_f.hpp"
#include "cacqr/rt/comm.hpp"
#include "cacqr/support/math.hpp"

namespace cacqr::rt {
namespace {

/// Deterministic per-rank fp32 payload of small integers: sums over any
/// realistic rank count are exactly representable in fp32, so the
/// butterfly's summation order cannot show through and results can be
/// checked with EXPECT_EQ.
lin::MatrixF payload_f32(int rank, i64 rows, i64 cols, int salt = 0) {
  lin::MatrixF f = lin::MatrixF::uninit(rows, cols);
  for (i64 i = 0; i < rows * cols; ++i) {
    f.data()[i] =
        static_cast<float>((rank + 1) * ((i + salt) % 13 - 6));
  }
  return f;
}

class F32CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(F32CollectiveSweep, AllreduceSumsFloatsEverywhere) {
  const int p = GetParam();
  // Odd float counts (7x3, 1x1) force the zeroed tail-pad lane; 8x4 is
  // the even case.
  for (const auto& [rows, cols] :
       {std::pair<i64, i64>{7, 3}, {8, 4}, {1, 1}}) {
    std::vector<float> expect(static_cast<std::size_t>(rows * cols), 0.0f);
    for (int r = 0; r < p; ++r) {
      const lin::MatrixF v = payload_f32(r, rows, cols);
      for (i64 i = 0; i < rows * cols; ++i) {
        expect[static_cast<std::size_t>(i)] += v.data()[i];
      }
    }
    Runtime::run(p, [&](Comm& c) {
      lin::MatrixF mine = payload_f32(c.rank(), rows, cols);
      c.allreduce_sum_f32(mine.wire());
      for (i64 i = 0; i < rows * cols; ++i) {
        EXPECT_EQ(mine.data()[i], expect[static_cast<std::size_t>(i)])
            << "p=" << p << " shape=" << rows << "x" << cols << " i=" << i;
      }
    });
  }
}

TEST_P(F32CollectiveSweep, OddTailPadStaysZero) {
  // wire() zeroes the pad float of an odd-sized payload before shipping;
  // every rank contributes 0 there, so the reduced pad must still be 0
  // (and in particular not uninitialized garbage).
  const int p = GetParam();
  const i64 n = 21;  // odd: floats n..n rides the last word's upper lane
  Runtime::run(p, [&](Comm& c) {
    lin::MatrixF mine = payload_f32(c.rank(), n, 1);
    c.allreduce_sum_f32(mine.wire());
    EXPECT_EQ(mine.data()[n], 0.0f) << "p=" << p;
  });
}

TEST_P(F32CollectiveSweep, ReduceMatchesAllreduceOnRoot) {
  const int p = GetParam();
  const i64 n = 19;
  std::vector<float> expect(static_cast<std::size_t>(n), 0.0f);
  for (int r = 0; r < p; ++r) {
    const lin::MatrixF v = payload_f32(r, n, 1, 5);
    for (i64 i = 0; i < n; ++i) {
      expect[static_cast<std::size_t>(i)] += v.data()[i];
    }
  }
  Runtime::run(p, [&](Comm& c) {
    lin::MatrixF mine = payload_f32(c.rank(), n, 1, 5);
    c.reduce_sum_f32(mine.wire(), p - 1);
    if (c.rank() == p - 1) {
      for (i64 i = 0; i < n; ++i) {
        EXPECT_EQ(mine.data()[i], expect[static_cast<std::size_t>(i)])
            << "p=" << p << " i=" << i;
      }
    }
  });
}

// Power-of-two and awkward non-power-of-two communicator sizes, the same
// sweep the fp64 collectives run (exercises the fold paths).
INSTANTIATE_TEST_SUITE_P(Sizes, F32CollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 11, 16));

TEST(F32CostTest, AllreduceChargesHalfTheBetaOfFp64) {
  // The point of the wire-word representation: an fp32 allreduce of 2k
  // floats moves exactly the words (and messages) of an fp64 allreduce
  // of k doubles -- the halved beta falls out of the existing counters.
  for (const int p : {2, 4, 8}) {
    const i64 floats = 1 << 11;
    const i64 words = floats / 2;
    const CostCounters c32 = max_counters(Runtime::run(p, [&](Comm& c) {
      lin::MatrixF v(floats, 1);
      c.allreduce_sum_f32(v.wire());
    }));
    const CostCounters c64 = max_counters(Runtime::run(p, [&](Comm& c) {
      std::vector<double> v(static_cast<std::size_t>(words), 0.0);
      c.allreduce_sum(v);
    }));
    EXPECT_EQ(c32.msgs, c64.msgs) << "p=" << p;
    EXPECT_EQ(c32.words, c64.words) << "p=" << p;
    EXPECT_EQ(c32.msgs, 2 * ceil_log2(p)) << "p=" << p;
  }
}

TEST(F32CostTest, KernelsChargeClosedFormFp64Flops) {
  // blas_f.hpp's accounting contract: the fp32 kernels charge the SAME
  // closed-form flop counts as their fp64 twins (gamma counts
  // operations; the cheaper fp32 rate is a machine property).
  auto per_rank = Runtime::run(1, [](Comm& c) {
    lin::MatrixF a(8, 8);
    lin::MatrixF b(8, 8);
    lin::MatrixF out(8, 8);
    lin::gemm_f32(lin::Trans::N, lin::Trans::N, 1.0f, a, b, 0.0f, out);
    lin::MatrixF t(8, 4);
    lin::MatrixF g(4, 4);
    lin::gram_f32(1.0f, t, 0.0f, g);
    c.barrier();  // drains the thread-local tally
  });
  // gemm: 2*8^3 = 1024; gram: m*n*(n+1) = 8*4*5 = 160.
  EXPECT_EQ(per_rank[0].flops, 1024 + 160);
}

}  // namespace
}  // namespace cacqr::rt
