/// \file test_transport_failure.cpp
/// \brief Failure paths of the process transports: a rank killed
///        mid-collective must surface AbortError to the caller promptly
///        (survivors unwind instead of hanging on messages that will
///        never arrive), thrown errors keep their type and message across
///        the process boundary -- including NotSpdError's pivot payload.

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "cacqr/rt/comm.hpp"
#include "cacqr/support/error.hpp"

namespace cacqr::rt {
namespace {

#if defined(__SANITIZE_THREAD__)
#define CACQR_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CACQR_TSAN 1
#endif
#endif

bool shm_testable() {
#if defined(CACQR_TSAN)
  return false;
#else
  return transport_available(TransportKind::shm);
#endif
}

/// Runs `body` on p ranks over the shm backend.
template <class Body>
void run_shm(int p, Body&& body) {
  Runtime::run(p, std::forward<Body>(body), Machine::counting(), 0,
               TransportKind::shm);
}

TEST(TransportFailure, PeerKilledMidCollectiveAbortsSurvivorsPromptly) {
  if (!shm_testable()) GTEST_SKIP() << "shm transport not testable here";
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run_shm(4, [](Comm& c) {
      if (c.rank() == 1) raise(SIGKILL);  // dies without a trace
      // Survivors block inside a collective whose rank-1 steps will never
      // happen; the parent's reap must raise the abort flag and every
      // survivor must unwind with AbortError instead of spinning forever.
      std::vector<double> v(64, 1.0);
      for (int i = 0; i < 8; ++i) c.allreduce_sum(v);
    });
    FAIL() << "expected AbortError";
  } catch (const AbortError& e) {
    EXPECT_NE(nullptr, std::strstr(e.what(), "rank 1"));
    EXPECT_NE(nullptr, std::strstr(e.what(), "signal"));
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - t0);
  // "Promptly": milliseconds in practice; the bound only guards hangs.
  EXPECT_LT(elapsed.count(), 30);
}

TEST(TransportFailure, ThrownErrorTypeAndMessageCrossTheProcessBoundary) {
  if (!shm_testable()) GTEST_SKIP() << "shm transport not testable here";
  try {
    run_shm(4, [](Comm& c) {
      if (c.rank() == 2) throw DimensionError("bad shape 3x7");
      std::vector<double> v(8);
      c.recv((c.rank() + 1) % 4, 0, v);  // never satisfied
    });
    FAIL() << "expected DimensionError";
  } catch (const DimensionError& e) {
    EXPECT_NE(nullptr, std::strstr(e.what(), "bad shape 3x7"));
  }
}

TEST(TransportFailure, NotSpdPivotSurvivesMarshalling) {
  if (!shm_testable()) GTEST_SKIP() << "shm transport not testable here";
  try {
    run_shm(2, [](Comm& c) {
      if (c.rank() == 0) throw NotSpdError("leading minor not positive", 7);
      std::vector<double> v(4);
      c.recv(0, 1, v);  // never satisfied
    });
    FAIL() << "expected NotSpdError";
  } catch (const NotSpdError& e) {
    EXPECT_EQ(e.pivot, 7u);
    EXPECT_NE(nullptr, std::strstr(e.what(), "leading minor"));
  }
}

TEST(TransportFailure, LowestFailedRankWinsWhenSeveralThrow) {
  if (!shm_testable()) GTEST_SKIP() << "shm transport not testable here";
  try {
    run_shm(4, [](Comm& c) {
      if (c.rank() == 3) throw Error("rank 3 exploded");
      if (c.rank() == 1) throw Error("rank 1 exploded");
      std::vector<double> v(8);
      c.recv((c.rank() + 1) % 4, 0, v);
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(nullptr, std::strstr(e.what(), "rank 1 exploded"));
  }
}

TEST(TransportFailure, StdExceptionIsRethrownAsRuntimeError) {
  if (!shm_testable()) GTEST_SKIP() << "shm transport not testable here";
  // A plain std::runtime_error has no wire type of its own; the parent
  // rethrows a CommError (still a std::runtime_error) with the message.
  EXPECT_THROW(run_shm(2,
                       [](Comm& c) {
                         if (c.rank() == 1) {
                           throw std::runtime_error("plain failure");
                         }
                         std::vector<double> v(8, 1.0);
                         c.allreduce_sum(v);
                       }),
               std::runtime_error);
}

TEST(TransportFailure, CleanRunAfterAbortedRun) {
  if (!shm_testable()) GTEST_SKIP() << "shm transport not testable here";
  // Abort state is per-run (per Region), not process-global: a failed
  // run must not poison the next one.
  EXPECT_THROW(run_shm(2,
                       [](Comm& c) {
                         if (c.rank() == 0) throw Error("first run fails");
                         std::vector<double> v(4);
                         c.recv(0, 0, v);
                       }),
               Error);
  RunOutput out = Runtime::run_collect(
      2,
      [](Comm& c) {
        std::vector<double> v = {static_cast<double>(c.rank() + 1)};
        c.allreduce_sum(v);
        c.publish(v);
      },
      Machine::counting(), 0, TransportKind::shm);
  ASSERT_EQ(out.published.size(), 2u);
  EXPECT_EQ(out.published[0][0], 3.0);
  EXPECT_EQ(out.published[1][0], 3.0);
}

TEST(TransportFailure, PublishPastTheResultSlotFailsTheRun) {
  if (!shm_testable()) GTEST_SKIP() << "shm transport not testable here";
  // Each rank's result slot holds 2 MB: one double more fails the run
  // with a CommError naming the capacity instead of truncating the blob.
  constexpr std::size_t kSlotWords = 2 * 1024 * 1024 / sizeof(double);
  try {
    (void)Runtime::run_collect(
        2,
        [](Comm& c) {
          c.publish(std::vector<double>(kSlotWords + c.rank(), 1.0));
        },
        Machine::counting(), 0, TransportKind::shm);
    FAIL() << "expected CommError";
  } catch (const CommError& e) {
    EXPECT_NE(nullptr, std::strstr(e.what(), "rank 1 published 262145"));
    EXPECT_NE(nullptr, std::strstr(e.what(), "capacity of 262144"));
  }
}

TEST(TransportSelection, NamesAndAvailability) {
  EXPECT_STREQ(transport_name(TransportKind::modeled), "modeled");
  EXPECT_STREQ(transport_name(TransportKind::shm), "shm");
  EXPECT_STREQ(transport_name(TransportKind::mpi), "mpi");
  EXPECT_TRUE(transport_available(TransportKind::modeled));
#if !defined(_WIN32)
  EXPECT_TRUE(transport_available(TransportKind::shm));
#endif
}

TEST(TransportSelection, UnavailableBackendFailsLoudly) {
  if (transport_available(TransportKind::mpi)) {
    GTEST_SKIP() << "mpi compiled in; nothing to reject";
  }
  EXPECT_THROW(Runtime::run(2, [](Comm&) {}, Machine::counting(), 0,
                            TransportKind::mpi),
               CommError);
}

}  // namespace
}  // namespace cacqr::rt
