#include <gtest/gtest.h>

#include "cacqr/lin/kernel.hpp"
#include "cacqr/model/sweep.hpp"
#include "cacqr/tune/planner.hpp"

namespace cacqr::tune {
namespace {

MachineProfile profile() { return generic_profile(); }

TEST(ProblemKeyTest, CanonicalText) {
  EXPECT_EQ((ProblemKey{8192, 128, 8, 1}.text()), "m8192_n128_p8_t1_fp64");
  EXPECT_EQ((ProblemKey{1, 1, 1, 4}.text()), "m1_n1_p1_t4_fp64");
  EXPECT_EQ((ProblemKey{8192, 128, 8, 1, Precision::mixed}.text()),
            "m8192_n128_p8_t1_mixed");
}

TEST(PlanTest, GridTagsMatchBenchConvention) {
  Plan p1d;
  p1d.algo = Algo::cqr_1d;
  p1d.d = 8;
  EXPECT_EQ(p1d.grid(), "p8");
  Plan pca;
  pca.algo = Algo::ca_cqr2;
  pca.c = 2;
  pca.d = 4;
  EXPECT_EQ(pca.grid(), "c2d4");
  Plan pge;
  pge.algo = Algo::pgeqrf_2d;
  pge.pr = 4;
  pge.pc = 2;
  pge.block = 16;
  EXPECT_EQ(pge.grid(), "4x2b16");
}

TEST(PlanTest, JsonRoundTripRejectsNonsense) {
  Plan p;
  p.algo = Algo::pgeqrf_2d;
  p.pr = 4;
  p.pc = 2;
  p.block = 32;
  p.predicted_seconds = 1.5;
  auto back = Plan::from_json(p.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->pr, 4);
  EXPECT_EQ(back->block, 32);

  // An unknown or empty spelling of any named field is corruption, not a
  // default.
  for (const char* field : {"algo", "source", "kernel_variant"}) {
    for (const char* name : {"not_a_name", ""}) {
      support::Json j = p.to_json();
      j.set(field, name);
      EXPECT_FALSE(Plan::from_json(j).has_value()) << field << " " << name;
    }
  }
  support::Json j = p.to_json();
  j.set("pr", -1);
  EXPECT_FALSE(Plan::from_json(j).has_value());
  // Nor does a grid field outside int narrow (2^32 + 4 would read as 4).
  for (const char* field : {"c", "d", "pr", "pc"}) {
    j = p.to_json();
    j.set(field, i64{4294967300});
    EXPECT_FALSE(Plan::from_json(j).has_value()) << field;
  }
  j = p.to_json();
  j.set("schema", Plan::kSchemaVersion + 1);
  EXPECT_FALSE(Plan::from_json(j).has_value());
}

TEST(PlanTest, JsonRoundTripsKernelVariant) {
  Plan p;
  p.algo = Algo::cqr_1d;
  p.d = 8;
  p.kernel_variant = lin::kernel::Variant::avx2;
  EXPECT_EQ(p.to_json()["kernel_variant"].as_string(), "avx2");
  auto back = Plan::from_json(p.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kernel_variant, lin::kernel::Variant::avx2);
  // A variant-less entry (hand-edited: every plan the library writes
  // names one) is a miss.
  support::Json j = p.to_json();
  j.set("kernel_variant", "");
  EXPECT_FALSE(Plan::from_json(j).has_value());
}

TEST(PlanTest, JsonRoundTripIsIdentity) {
  // The plan file is the one serialization of a Plan: every candidate of
  // a key sweep, under every provenance and every kernel variant, must
  // read back equal to what was written.
  const Planner planner(profile());
  int checked = 0;
  for (const int p : {1, 4, 8, 16}) {
    for (const auto& [m, n] : {std::pair<i64, i64>{1 << 14, 1 << 6},
                               {4096, 256}, {100, 7}}) {
      for (const Precision prec : {Precision::fp64, Precision::mixed}) {
        for (Plan plan : planner.candidates({m, n, p, 1, prec})) {
          plan.measured_seconds = plan.predicted_seconds * 3.0;
          for (const PlanSource source :
               {PlanSource::model, PlanSource::measured, PlanSource::cache,
                PlanSource::heuristic}) {
            for (const lin::kernel::Variant variant :
                 lin::kernel::kVariants) {
              plan.source = source;
              plan.kernel_variant = variant;
              const std::optional<Plan> back = Plan::from_json(plan.to_json());
              ASSERT_TRUE(back.has_value()) << plan.to_json().dump();
              EXPECT_EQ(*back, plan) << plan.to_json().dump();
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

TEST(PlanTest, PgeqrfFitsOnlyBlocksTheShapeHolds) {
  // A pgeqrf_2d plan needs one block per process row and a block no
  // wider than the matrix; a larger block only pads (a remembered 2^20
  // block on 128 x 32 would pad every rank to 2^21 x 2^21).
  const ProblemKey key{128, 32, 4, 1};
  Plan p;
  p.algo = Algo::pgeqrf_2d;
  p.pr = 2;
  p.pc = 2;
  for (const i64 block : {i64{1}, i64{16}, i64{32}}) {
    p.block = block;
    EXPECT_TRUE(p.fits(key)) << block;
  }
  for (const i64 block : {i64{0}, i64{33}, i64{64}, i64{512}, i64{1} << 20,
                          i64{1} << 30, i64{1} << 62}) {
    p.block = block;
    EXPECT_FALSE(p.fits(key)) << block;
  }
  // The padded shape the dispatch test runs: 150 x 30 on 2 x 2 b16.
  p.block = 16;
  EXPECT_TRUE(p.fits({150, 30, 4, 1}));
  p.pr = 4;
  p.pc = 2;
  EXPECT_FALSE(p.fits(key));  // 8 process slots on 4 ranks
}

TEST(PlannerTest, CandidatesCarryActiveKernelVariant) {
  const Planner planner(profile());
  const lin::kernel::Variant active = lin::kernel::active_variant();
  for (const Plan& p : planner.candidates({8192, 128, 8, 1})) {
    EXPECT_EQ(p.kernel_variant, active) << algo_name(p.algo) << " "
                                        << p.grid();
  }
}

TEST(ProfileTest, MachineForSelectsVariantCalibration) {
  MachineProfile p = generic_profile();
  p.variants.push_back({"avx2", p.machine.gamma_s / 2.0,
                        p.machine.peak_gflops_node * 2.0,
                        p.machine.gamma_s / 4.0,
                        p.machine.peak_gflops_node * 4.0, {{1, 1.0}}});
  const model::Machine base = p.machine_at(1);
  const model::Machine fast = p.machine_for("avx2", 1);
  EXPECT_DOUBLE_EQ(fast.gamma_s, base.gamma_s / 2.0);
  // alpha/beta are variant-independent (network terms).
  EXPECT_DOUBLE_EQ(fast.alpha_s, base.alpha_s);
  EXPECT_DOUBLE_EQ(fast.beta_s, base.beta_s);
  // Unknown variants fall back to the profile's headline machine.
  const model::Machine fallback = p.machine_for("neon", 1);
  EXPECT_DOUBLE_EQ(fallback.gamma_s, base.gamma_s);
}

TEST(PlannerTest, EnumeratesAllThreeVariantFamilies) {
  const Planner planner(profile());
  const auto cands = planner.candidates({4096, 256, 8, 1});
  ASSERT_FALSE(cands.empty());
  bool has_1d = false;
  bool has_ca = false;
  bool has_pg = false;
  for (const Plan& p : cands) {
    has_1d |= p.algo == Algo::cqr_1d;
    has_ca |= p.algo == Algo::ca_cqr2;
    has_pg |= p.algo == Algo::pgeqrf_2d;
    EXPECT_EQ(p.source, PlanSource::model);
    EXPECT_GT(p.predicted_seconds, 0.0);
  }
  EXPECT_TRUE(has_1d);
  EXPECT_TRUE(has_ca);
  EXPECT_TRUE(has_pg);
  // Sorted ascending by predicted time.
  for (std::size_t i = 1; i < cands.size(); ++i) {
    EXPECT_LE(cands[i - 1].predicted_seconds, cands[i].predicted_seconds);
  }
}

TEST(PlannerTest, EveryCandidateIsExecutable) {
  const Planner planner(profile());
  for (const int p : {1, 2, 4, 8, 16}) {
    for (const auto& [m, n] : {std::pair<i64, i64>{1 << 14, 1 << 6},
                               {512, 512}, {100, 7}}) {
      if (m < n) continue;
      const ProblemKey key{m, n, p, 1};
      for (const Plan& plan : planner.candidates(key)) {
        EXPECT_TRUE(plan.fits(key)) << plan.grid() << " " << key.text();
        // c = 1 runs cqr_1d's sweep: no second candidate for it.
        if (plan.algo == Algo::ca_cqr2) {
          EXPECT_GT(plan.c, 1) << plan.grid() << " p=" << p;
        } else if (plan.algo == Algo::pgeqrf_2d) {
          // The paper's tuning sweep: blocks of 16, 32 or 64.
          EXPECT_GE(plan.block, 16) << plan.grid();
        }
      }
    }
  }
}

TEST(PlannerTest, PlanIsDeterministic) {
  const Planner planner(profile());
  const ProblemKey key{16384, 128, 8, 1};
  EXPECT_EQ(planner.plan(key), planner.plan(key));
}

TEST(PlannerTest, ExtremelyTallSkinnyAvoidsWideGrids) {
  // 2^24 x 32 on 8 ranks: the communication-optimal c is ~(Pn/m)^(1/3)
  // << 1, so a CholeskyQR-family 1D layout must win over c=2 grids and
  // the Householder baseline (the paper's Table I regime).
  const Planner planner(profile());
  const Plan p = planner.plan({i64{1} << 24, 32, 8, 1});
  EXPECT_EQ(p.algo, Algo::cqr_1d) << algo_name(p.algo) << " " << p.grid();
}

TEST(PlannerTest, ThreadSpeedupLowersGammaOnly) {
  MachineProfile prof = profile();
  prof.scaling = {{1, 1.0}, {4, 3.0}};
  EXPECT_DOUBLE_EQ(prof.thread_speedup(1), 1.0);
  EXPECT_DOUBLE_EQ(prof.thread_speedup(2), 1.0);  // no entry: conservative
  EXPECT_DOUBLE_EQ(prof.thread_speedup(4), 3.0);
  EXPECT_DOUBLE_EQ(prof.thread_speedup(64), 3.0);  // never extrapolates
  const model::Machine m1 = prof.machine_at(1);
  const model::Machine m4 = prof.machine_at(4);
  EXPECT_DOUBLE_EQ(m4.gamma_s * 3.0, m1.gamma_s);
  EXPECT_DOUBLE_EQ(m4.alpha_s, m1.alpha_s);
  EXPECT_DOUBLE_EQ(m4.beta_s, m1.beta_s);
}

TEST(PlannerTest, FingerprintSeparatesProfiles) {
  MachineProfile a = profile();
  MachineProfile b = profile();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.machine.gamma_s *= 2.0;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  MachineProfile c = profile();
  c.scaling.push_back({2, 1.5});
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(PlannerTest, RejectsBadKeys) {
  const Planner planner(profile());
  EXPECT_THROW((void)planner.candidates({10, 20, 4, 1}), Error);
  EXPECT_THROW((void)planner.candidates({10, 5, 0, 1}), Error);
}

TEST(ProfileTest, JsonRejectsBrokenProfiles) {
  const MachineProfile p = profile();
  auto ok = MachineProfile::from_json(p.to_json());
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->fingerprint(), p.fingerprint());

  support::Json j = p.to_json();
  j.set("gamma_s", 0.0);
  EXPECT_FALSE(MachineProfile::from_json(j).has_value());
  j = p.to_json();
  j.set("schema", MachineProfile::kSchemaVersion + 1);
  EXPECT_FALSE(MachineProfile::from_json(j).has_value());
  EXPECT_FALSE(MachineProfile::from_json(support::Json("text")).has_value());
}

}  // namespace
}  // namespace cacqr::tune
