#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cacqr/core/factorize.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/obs/trace.hpp"
#include "cacqr/rt/comm.hpp"

namespace cacqr::obs {
namespace {

/// One factorization through the SPMD runtime, returning the bits that
/// must not depend on tracing: Q, R, and the per-rank cost counters.
struct RunBits {
  std::vector<double> q;
  std::vector<double> r;
  std::vector<rt::CostCounters> counters;
};

RunBits run_once() {
  RunBits out;
  out.counters = rt::Runtime::run(4, [&](rt::Comm& world) {
    lin::Matrix a = lin::hashed_matrix(321, 96, 12);
    auto res = core::factorize(a, world);
    if (world.rank() == 0) {
      out.q.assign(res.q.data(), res.q.data() + res.q.size());
      out.r.assign(res.r.data(), res.r.data() + res.r.size());
    }
  });
  return out;
}

/// The headline contract of the tracing layer: recording must never touch
/// numerical state, the tallies, or the modeled clock.  Bitwise equality,
/// not tolerance.
TEST(TraceDeterminismTest, ResultsAreBitwiseIdenticalTraceOnVsOff) {
  const TraceMode saved_mode = trace_mode();
  const std::string saved_dir = trace_dir();

  set_trace_mode(TraceMode::off);
  const RunBits off = run_once();

  char tmpl[] = "/tmp/cacqr_det_test_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  set_trace_dir(tmpl);
  set_trace_mode(TraceMode::all);
  const RunBits on = run_once();

  set_trace_mode(saved_mode);
  set_trace_dir(saved_dir);

  ASSERT_EQ(off.q.size(), on.q.size());
  ASSERT_EQ(off.r.size(), on.r.size());
  for (std::size_t i = 0; i < off.q.size(); ++i) {
    ASSERT_EQ(off.q[i], on.q[i]) << "Q differs at " << i;
  }
  for (std::size_t i = 0; i < off.r.size(); ++i) {
    ASSERT_EQ(off.r[i], on.r[i]) << "R differs at " << i;
  }
  ASSERT_EQ(off.counters.size(), on.counters.size());
  for (std::size_t r = 0; r < off.counters.size(); ++r) {
    EXPECT_EQ(off.counters[r].msgs, on.counters[r].msgs) << "rank " << r;
    EXPECT_EQ(off.counters[r].words, on.counters[r].words) << "rank " << r;
    EXPECT_EQ(off.counters[r].flops, on.counters[r].flops) << "rank " << r;
    EXPECT_EQ(off.counters[r].time, on.counters[r].time) << "rank " << r;
  }
}

}  // namespace
}  // namespace cacqr::obs
