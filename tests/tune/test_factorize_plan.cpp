#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>

#include "cacqr/baseline/block_cyclic.hpp"
#include "cacqr/baseline/pgeqrf_2d.hpp"
#include "cacqr/core/cqr_1d.hpp"
#include "cacqr/core/factorize.hpp"
#include "cacqr/dist/dist_matrix.hpp"
#include "cacqr/grid/grid.hpp"
#include "cacqr/lin/generate.hpp"
#include "cacqr/lin/kernel.hpp"
#include "cacqr/lin/util.hpp"
#include "cacqr/support/math.hpp"
#include "cacqr/support/rng.hpp"
#include "cacqr/tune/cache.hpp"

namespace cacqr::core {
namespace {

namespace fs = std::filesystem;

/// Points CACQR_TUNE_DIR at a fresh directory for one test; restores
/// whatever the surrounding ctest pass had exported and removes the
/// directory afterwards.
struct ScopedTuneDir {
  explicit ScopedTuneDir(const char* name)
      : path((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path);
    if (const char* orig = std::getenv("CACQR_TUNE_DIR")) saved = orig;
    ::setenv("CACQR_TUNE_DIR", path.c_str(), 1);
  }
  ~ScopedTuneDir() {
    if (saved) {
      ::setenv("CACQR_TUNE_DIR", saved->c_str(), 1);
    } else {
      ::unsetenv("CACQR_TUNE_DIR");
    }
    fs::remove_all(path);
  }
  std::string path;
  std::optional<std::string> saved;
};

/// A generic profile under its own fingerprint: no other test's call can
/// have left a process-memo entry for it.
tune::MachineProfile isolated_profile(const char* host) {
  tune::MachineProfile profile = tune::generic_profile();
  profile.host = host;
  return profile;
}

/// Planned modes must produce exactly the bits the equivalent explicit
/// configuration produces: planning only *selects*, it never changes the
/// executed schedule.
TEST(FactorizePlanTest, ModelPlanMatchesExplicitOptionsBitwise) {
  rt::Runtime::run(8, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(301, 96, 16);
    const tune::MachineProfile profile = tune::generic_profile();
    FactorizeOptions planned;
    planned.plan_mode = PlanMode::model;
    planned.profile = &profile;
    const FactorizeResult res = factorize(a, world, planned);
    // "cache" when a CACQR_TUNE_DIR from a previous suite pass already
    // holds this (deterministic, identical) plan.
    EXPECT_TRUE(res.plan.source == tune::PlanSource::model ||
                res.plan.source == tune::PlanSource::cache)
        << tune::source_name(res.plan.source);

    if (res.plan.algo == tune::Algo::ca_cqr2) {
      const FactorizeResult ref =
          factorize(a, world, {.c = res.plan.c, .d = res.plan.d});
      EXPECT_EQ(lin::max_abs_diff(res.q, ref.q), 0.0);
      EXPECT_EQ(lin::max_abs_diff(res.r, ref.r), 0.0);
    } else {
      // A non-CA winner can't be reproduced through explicit c/d options;
      // correctness is still required.
      EXPECT_LT(lin::orthogonality_error(res.q), 1e-11);
      EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-11);
    }
  });
}

TEST(FactorizePlanTest, ModelPlanPicks1dForExtremeAspect) {
  // 4096 x 8 on 4 ranks: communication-optimal c is far below 1, so the
  // planner must select the 1D CholeskyQR2 family.
  rt::Runtime::run(4, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(302, 4096, 8);
    const tune::MachineProfile profile = tune::generic_profile();
    FactorizeOptions planned;
    planned.plan_mode = PlanMode::model;
    planned.profile = &profile;
    const FactorizeResult res = factorize(a, world, planned);
    EXPECT_EQ(res.plan.algo, tune::Algo::cqr_1d)
        << tune::algo_name(res.plan.algo);
    EXPECT_LT(lin::orthogonality_error(res.q), 1e-12);
    EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-12);
  });
}

/// Q and R of `a` from `plan`'s family entry point -- cqr2_1d, ca_cqr2 or
/// baseline::pgeqrf_2d -- bypassing factorize's dispatch.  Only pgeqrf
/// pads here (the 1D and CA cases below divide evenly), with
/// factorize.hpp's augmentation: zero rows, and delta = ||A||_F / sqrt(n)
/// on the diagonal of the added columns.
std::pair<lin::Matrix, lin::Matrix> direct_factors(lin::ConstMatrixView a,
                                                   const rt::Comm& world,
                                                   const tune::Plan& plan) {
  const i64 m = a.rows;
  const i64 n = a.cols;
  if (plan.algo == tune::Algo::cqr_1d) {
    const auto da =
        dist::DistMatrix::from_global(a, world.size(), 1, world.rank(), 0);
    Cqr1dResult fact = cqr2_1d(da, world);
    return {dist::gather(fact.q, world), std::move(fact.r)};
  }
  if (plan.algo == tune::Algo::ca_cqr2) {
    const grid::TunableGrid g(world, plan.c, plan.d);
    const CaCqrResult fact =
        ca_cqr2(dist::DistMatrix::from_global_on_tunable(a, g), g);
    return {dist::gather(fact.q, g.slice()),
            dist::gather(fact.r, g.subcube().slice())};
  }
  const i64 n_pad =
      round_up(n, plan.block * std::lcm<i64>(plan.pr, plan.pc));
  const i64 m_pad = round_up(std::max(m + n_pad - n, n_pad),
                             plan.block * plan.pr);
  lin::Matrix padded(m_pad, n_pad);
  lin::copy(a, padded.sub(0, 0, m, n));
  const double delta = lin::frob_norm(a) / std::sqrt(static_cast<double>(n));
  for (i64 j = n; j < n_pad; ++j) padded(m + (j - n), j) = delta;
  const baseline::ProcGrid2d g(world, plan.pr, plan.pc);
  const baseline::Pgeqrf2dResult fact = baseline::pgeqrf_2d(
      baseline::BlockCyclicMatrix::from_global(padded, plan.block, g), g);
  return {lin::materialize(fact.q.gather(g).sub(0, 0, m, n)),
          lin::materialize(fact.r.gather(g).sub(0, 0, n, n))};
}

TEST(FactorizePlanTest, AllVariantsDispatchCorrectly) {
  // Force each variant through the plan execution path (bypassing the
  // planner) by seeding the cache with a hand-written plan, and require
  // the bits of that family's own entry point: every family yields an
  // orthogonal Q and a triangular R, so only the bits show which ran.
  const ScopedTuneDir tune_dir("cacqr_dispatch_test");
  const tune::MachineProfile profile = tune::generic_profile();
  const tune::PlanCache cache(tune_dir.path);

  struct Case {
    tune::Plan plan;
    int ranks;
    i64 m;
    i64 n;
  };
  std::vector<Case> cases;
  {
    tune::Plan p;
    p.algo = tune::Algo::cqr_1d;
    p.d = 4;
    cases.push_back({p, 4, 128, 32});
    p = {};
    p.algo = tune::Algo::ca_cqr2;
    p.c = 2;
    p.d = 2;
    cases.push_back({p, 8, 160, 32});
    p = {};
    p.algo = tune::Algo::pgeqrf_2d;
    p.pr = 2;
    p.pc = 2;
    p.block = 16;
    cases.push_back({p, 4, 160, 32});
    // Same pgeqrf grid on a NON-divisible shape: exercises the
    // block-cycle padding path (m 150 -> 160, n 30 -> 32 with the
    // delta-identity augmentation) and the stripping afterwards.
    cases.push_back({p, 4, 150, 30});
  }

  for (const Case& c : cases) {
    // Unique shape-per-case keys keep the plan memo and cache distinct.
    tune::Plan plan = c.plan;
    plan.kernel_variant = lin::kernel::active_variant();
    cache.store(profile.fingerprint(),
                tune::ProblemKey{c.m, c.n, c.ranks, 1}, plan);
    rt::Runtime::run(c.ranks, [&](rt::Comm& world) {
      const lin::Matrix a = lin::hashed_matrix(303, c.m, c.n);
      FactorizeOptions opts;
      opts.plan_mode = PlanMode::model;
      opts.profile = &profile;
      const FactorizeResult res = factorize(a, world, opts);
      const std::string name = c.plan.grid() + " on " +
                               std::to_string(c.m) + "x" +
                               std::to_string(c.n);
      EXPECT_EQ(res.plan.source, tune::PlanSource::cache) << name;
      const auto [q, r] = direct_factors(a, world, c.plan);
      ASSERT_EQ(res.q.rows(), c.m) << name;
      ASSERT_EQ(res.q.cols(), c.n) << name;
      ASSERT_EQ(res.r.rows(), c.n) << name;
      EXPECT_EQ(lin::max_abs_diff(res.q, q), 0.0) << name;
      EXPECT_EQ(lin::max_abs_diff(res.r, r), 0.0) << name;
      EXPECT_LT(lin::orthogonality_error(res.q), 1e-10) << name;
      EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-10) << name;
      EXPECT_TRUE(lin::is_upper_triangular(res.r)) << name;
    });
  }
}

TEST(FactorizePlanTest, CachedPlanForOtherKernelVariantIsAMiss) {
  // A cached plan was scored (and possibly trial-timed) under one
  // micro-kernel variant; if the dispatcher now runs a different one the
  // plan describes a different compute engine and must be re-planned.
  const ScopedTuneDir tune_dir("cacqr_variant_gate_test");
  const tune::MachineProfile profile = tune::generic_profile();
  const tune::PlanCache cache(tune_dir.path);
  const lin::kernel::Variant active = lin::kernel::active_variant();

  // A valid plan stamped with a variant that is NOT the active one.
  tune::Plan stale;
  stale.algo = tune::Algo::cqr_1d;
  stale.d = 4;
  stale.source = tune::PlanSource::measured;
  stale.measured_seconds = 1.0;
  stale.kernel_variant = active == lin::kernel::Variant::generic
                             ? lin::kernel::Variant::avx2
                             : lin::kernel::Variant::generic;
  cache.store(profile.fingerprint(), tune::ProblemKey{256, 16, 4, 1}, stale);

  rt::Runtime::run(4, [&](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(308, 256, 16);
    FactorizeOptions opts;
    opts.plan_mode = PlanMode::model;
    opts.profile = &profile;
    const FactorizeResult res = factorize(a, world, opts);
    // The stale-variant entry must not serve the plan; the planner re-ran
    // and stamped the active variant.
    EXPECT_EQ(res.plan.source, tune::PlanSource::model);
    EXPECT_EQ(res.plan.kernel_variant, active);
  });
}

TEST(FactorizePlanTest, CachedPlanForOtherPrecisionIsAMiss) {
  // The precision twin of the kernel-variant gate: a cached plan scored
  // under one precision describes different arithmetic and different
  // collective payloads, so it must not serve a request for another.
  const ScopedTuneDir tune_dir("cacqr_precision_gate_test");
  const tune::MachineProfile profile = tune::generic_profile();
  const tune::PlanCache cache(tune_dir.path);

  // A valid measured plan whose variant matches the dispatcher but whose
  // precision does NOT match the (default fp64) request.
  tune::Plan stale;
  stale.algo = tune::Algo::cqr_1d;
  stale.d = 4;
  stale.source = tune::PlanSource::measured;
  stale.measured_seconds = 1.0;
  stale.kernel_variant = lin::kernel::active_variant();
  stale.precision = Precision::mixed;
  cache.store(profile.fingerprint(), tune::ProblemKey{288, 16, 4, 1}, stale);

  // Control: the same plan stamped fp64 under a different shape IS
  // served -- proving the lookup machinery hits under these keys and the
  // precision mismatch alone forces the re-plan above.
  tune::Plan good = stale;
  good.precision = Precision::fp64;
  cache.store(profile.fingerprint(), tune::ProblemKey{320, 16, 4, 1}, good);

  rt::Runtime::run(4, [&](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(309, 288, 16);
    FactorizeOptions opts;
    opts.plan_mode = PlanMode::model;
    opts.profile = &profile;
    const FactorizeResult res = factorize(a, world, opts);
    EXPECT_EQ(res.plan.source, tune::PlanSource::model);
    EXPECT_EQ(res.plan.precision, Precision::fp64);

    const lin::Matrix b = lin::hashed_matrix(310, 320, 16);
    const FactorizeResult hit = factorize(b, world, opts);
    EXPECT_EQ(hit.plan.source, tune::PlanSource::cache);
    EXPECT_DOUBLE_EQ(hit.plan.measured_seconds, 1.0);

    // A mixed-precision request keys separately (the precision is part
    // of the problem key), so neither entry above can serve it either.
    opts.precision = Precision::mixed;
    const FactorizeResult mixed = factorize(a, world, opts);
    EXPECT_EQ(mixed.plan.source, tune::PlanSource::model);
    EXPECT_EQ(mixed.plan.precision, Precision::mixed);
  });
}

TEST(FactorizePlanTest, OversizedPgeqrfBlockInCacheReplans) {
  // A remembered pgeqrf_2d plan whose block the shape cannot hold (64 on
  // 128 x 32; a corrupt 2^20 would pad every rank to 2^21 x 2^21) is a
  // miss: the call re-plans instead of padding.
  const ScopedTuneDir tune_dir("cacqr_oversized_block_test");
  const tune::MachineProfile profile =
      isolated_profile("oversized-block-test");
  tune::Plan bad;
  bad.algo = tune::Algo::pgeqrf_2d;
  bad.pr = 2;
  bad.pc = 2;
  bad.block = 64;
  bad.kernel_variant = lin::kernel::active_variant();
  tune::PlanCache(tune_dir.path)
      .store(profile.fingerprint(), tune::ProblemKey{128, 32, 4, 1}, bad);

  rt::Runtime::run(4, [&](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(311, 128, 32);
    FactorizeOptions opts;
    opts.plan_mode = PlanMode::model;
    opts.profile = &profile;
    const FactorizeResult res = factorize(a, world, opts);
    EXPECT_EQ(res.plan.source, tune::PlanSource::model);
    EXPECT_LT(lin::orthogonality_error(res.q), 1e-12);
  });
}

constexpr std::size_t kPlanWords =
    (sizeof(tune::Plan) + sizeof(double) - 1) / sizeof(double);

/// Publishes `plan` as its bytes, rounded up to whole words: under forked
/// ranks Comm::publish is the only way a rank's result reaches the test.
void publish_plan(const rt::Comm& world, const tune::Plan& plan) {
  double words[kPlanWords] = {};
  std::memcpy(words, &plan, sizeof plan);
  world.publish(words);
}

tune::Plan published_plan(const std::vector<double>& blob, std::size_t i) {
  tune::Plan plan;
  std::memcpy(static_cast<void*>(&plan), blob.data() + i * kPlanWords,
              sizeof plan);
  return plan;
}

TEST(FactorizePlanTest, EveryRankHoldsRankZerosPlan) {
  // Rank 0 alone resolves memo, cache and planner and broadcasts the
  // plan: on a fresh model plan, a cache hit and a measured trial, every
  // rank must report exactly rank 0's plan.
  const ScopedTuneDir tune_dir("cacqr_plan_agreement_test");
  const tune::MachineProfile profile = isolated_profile("plan-agreement");
  tune::Plan cached;
  cached.algo = tune::Algo::pgeqrf_2d;
  cached.pr = 2;
  cached.pc = 2;
  cached.block = 16;
  cached.predicted_seconds = 0.5;
  cached.measured_seconds = 0.25;
  cached.source = tune::PlanSource::measured;
  cached.kernel_variant = lin::kernel::active_variant();
  tune::PlanCache(tune_dir.path)
      .store(profile.fingerprint(), tune::ProblemKey{160, 32, 4, 1}, cached);

  const rt::RunOutput out = rt::Runtime::run_collect(4, [&](rt::Comm& world) {
    FactorizeOptions opts;
    opts.profile = &profile;
    opts.plan_mode = PlanMode::model;
    publish_plan(world,
                 factorize(lin::hashed_matrix(312, 4096, 8), world, opts).plan);
    publish_plan(world,
                 factorize(lin::hashed_matrix(313, 160, 32), world, opts).plan);
    opts.plan_mode = PlanMode::measured;
    publish_plan(world,
                 factorize(lin::hashed_matrix(314, 192, 24), world, opts).plan);
  });
  ASSERT_EQ(out.published.size(), 4u);
  for (const std::vector<double>& blob : out.published) {
    ASSERT_EQ(blob.size(), 3 * kPlanWords);
  }
  const tune::PlanSource expect[] = {tune::PlanSource::model,
                                     tune::PlanSource::cache,
                                     tune::PlanSource::measured};
  for (std::size_t i = 0; i < 3; ++i) {
    const tune::Plan root = published_plan(out.published[0], i);
    EXPECT_EQ(root.source, expect[i]) << tune::source_name(root.source);
    EXPECT_EQ(root.kernel_variant, lin::kernel::active_variant());
    for (std::size_t r = 1; r < out.published.size(); ++r) {
      EXPECT_EQ(published_plan(out.published[r], i), root)
          << "call " << i << " rank " << r;
    }
  }
  tune::Plan hit = cached;
  hit.source = tune::PlanSource::cache;
  EXPECT_EQ(published_plan(out.published[0], 1), hit);
}

/// A copy of plan-file entry `e` with `field` corrupted by `kind`:
/// 0 drops it, 1 swaps its type, 2-5 set it to an edge-case number and 6
/// to an unknown name.
constexpr int kCorruptions = 7;

support::Json corrupted(const support::Json& e, const std::string& field,
                        int kind) {
  constexpr double kEdges[] = {-1.0, 0.0, 1e300, 2147483650.0};  // 2^31 + 2
  support::Json out = support::Json::object();
  for (const auto& [k, v] : e.members()) {
    if (k != field) {
      out.set(k, v);
    } else if (kind == 1) {
      out.set(k, v.is_string() ? support::Json(7) : support::Json("7"));
    } else if (kind >= 2 && kind <= 5) {
      out.set(k, kEdges[kind - 2]);
    } else if (kind == 6) {
      out.set(k, "quantum_qr");
    }
  }
  return out;
}

TEST(FactorizePlanTest, MutatedPlanFileNeverBreaksFactorize) {
  // A corrupt plan file must never be fatal.  Every single-field
  // corruption of a valid entry of each family, then seeded random
  // multi-field ones, each in the entry file of its own profile: every
  // entry loads as a miss or as a plan, and a model-mode call over every
  // file completes accurately.
  const ScopedTuneDir tune_dir("cacqr_plan_mutation_test");
  const tune::PlanCache cache(tune_dir.path);
  const tune::ProblemKey key{128, 32, 4, 1};

  tune::Plan bases[3];  // one valid 4-rank plan per family
  bases[0].d = 4;
  bases[1].algo = tune::Algo::ca_cqr2;
  bases[1].c = 1;
  bases[1].d = 4;
  bases[2].algo = tune::Algo::pgeqrf_2d;
  bases[2].pr = 2;
  bases[2].pc = 2;
  bases[2].block = 16;
  std::vector<support::Json> entries;
  for (tune::Plan& b : bases) {
    b.predicted_seconds = 1e-3;
    b.measured_seconds = 2e-3;
    b.source = tune::PlanSource::measured;
    b.kernel_variant = lin::kernel::active_variant();
    const support::Json valid = b.to_json();
    for (const auto& [field, value] : valid.members()) {
      for (int kind = 0; kind < kCorruptions; ++kind) {
        entries.push_back(corrupted(valid, field, kind));
      }
    }
  }
  Rng rng(18);
  for (int i = 0; i < 64; ++i) {
    support::Json e = bases[rng.below(3)].to_json();
    for (auto n = 2 + rng.below(2); n > 0; --n) {
      const std::string field = e.members()[rng.below(e.size())].first;
      e = corrupted(e, field, static_cast<int>(rng.below(kCorruptions)));
    }
    entries.push_back(std::move(e));
  }

  std::vector<tune::MachineProfile> profiles;
  std::size_t loaded = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    profiles.push_back(
        isolated_profile(("plan-mutation-" + std::to_string(i)).c_str()));
    const std::string fp = profiles.back().fingerprint();
    cache.store(fp, key, bases[0]);  // the file's envelope
    const std::string path = cache.plan_path(fp, key);
    std::optional<support::Json> file = support::read_json_file(path);
    ASSERT_TRUE(file.has_value());
    file->set("plan", entries[i]);
    ASSERT_TRUE(support::write_json_file(path, *file));

    std::optional<tune::Plan> plan;
    EXPECT_NO_THROW(plan = cache.load(fp, key)) << entries[i].dump();
    loaded += plan.has_value() ? 1 : 0;
  }
  // The mix must exercise both outcomes.
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, entries.size());

  rt::Runtime::run(4, [&](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(315, key.m, key.n);
    FactorizeOptions opts;
    opts.plan_mode = PlanMode::model;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      opts.profile = &profiles[i];
      const FactorizeResult res = factorize(a, world, opts);
      EXPECT_LT(lin::orthogonality_error(res.q), 1e-12) << entries[i].dump();
    }
  });
}

/// A profile shaped like the calibrator's output for this host: measured
/// alpha/beta/gamma, a kernel sample, thread scaling, and one `variants`
/// entry for the active variant, so each of its fields steers planning.
tune::MachineProfile calibrated_shaped_profile() {
  tune::MachineProfile p = tune::generic_profile();
  p.calibrated = "measured";
  p.machine.name = "calibrated: " + p.host;
  p.machine.alpha_s = 1.5e-6;
  p.machine.beta_s = 4e-10;
  p.machine.gamma_s = 5e-11;
  const std::string active =
      lin::kernel::variant_name(lin::kernel::active_variant());
  p.kernel_variant = active;
  p.kernels = {{"gemm_nn", 384, 384, 384, 20.0, active}};
  p.scaling = {{1, 1.0}, {2, 1.9}};
  p.variants = {{active, 5e-11, 20.0, 2.5e-11, 40.0, {{1, 1.0}, {2, 1.9}}}};
  return p;
}

TEST(FactorizePlanTest, MutatedProfileFileNeverBreaksFactorize) {
  // The profile file's twin of MutatedPlanFileNeverBreaksFactorize: every
  // single-field corruption of each top-level field and of each field of
  // the `variants` entry, then seeded random multi-field ones.  Each file
  // loads as absent, or as a profile whose machine is usable (finite,
  // positive alpha, beta and gamma at every precision); and a model-mode
  // call that loads it in place of a caller's profile completes
  // accurately.
  const ScopedTuneDir tune_dir("cacqr_profile_mutation_test");
  const tune::PlanCache cache(tune_dir.path);
  const std::string host = tune::host_fingerprint();
  const support::Json valid = calibrated_shaped_profile().to_json();
  ASSERT_TRUE(tune::MachineProfile::from_json(valid).has_value());
  fs::create_directories(tune_dir.path);

  /// `valid` with its variants entry replaced by `entry`.
  const auto with_variant = [&](const support::Json& entry) {
    support::Json out = valid;
    support::Json variants = support::Json::array();
    variants.push_back(entry);
    out.set("variants", std::move(variants));
    return out;
  };
  std::vector<support::Json> files;
  for (const auto& [field, value] : valid.members()) {
    for (int kind = 0; kind < kCorruptions; ++kind) {
      files.push_back(corrupted(valid, field, kind));
    }
  }
  const support::Json variant = valid["variants"].at(0);
  for (const auto& [field, value] : variant.members()) {
    for (int kind = 0; kind < kCorruptions; ++kind) {
      files.push_back(with_variant(corrupted(variant, field, kind)));
    }
  }
  Rng rng(19);
  for (int i = 0; i < 64; ++i) {
    support::Json top = valid;
    support::Json entry = variant;
    for (auto n = 2 + rng.below(2); n > 0; --n) {
      const int kind = static_cast<int>(rng.below(kCorruptions));
      if (rng.below(2) == 0) {
        top = corrupted(top, top.members()[rng.below(top.size())].first, kind);
      } else {
        entry = corrupted(entry,
                          entry.members()[rng.below(entry.size())].first, kind);
      }
    }
    if (top["variants"].is_array() && top["variants"].size() == 1) {
      support::Json variants = support::Json::array();
      variants.push_back(std::move(entry));
      top.set("variants", std::move(variants));
    }
    files.push_back(std::move(top));
  }

  const std::string active =
      lin::kernel::variant_name(lin::kernel::active_variant());
  std::size_t loaded = 0;
  for (const support::Json& file : files) {
    ASSERT_TRUE(support::write_json_file(cache.profile_path(host), file));
    std::optional<tune::MachineProfile> profile;
    EXPECT_NO_THROW(profile = cache.load_profile(host)) << file.dump();
    if (!profile) continue;
    ++loaded;
    for (const Precision prec :
         {Precision::fp64, Precision::mixed, Precision::fp32}) {
      for (const int threads : {1, 2, 4}) {
        const model::Machine m = profile->machine_for(active, threads, prec);
        for (const double v : {m.alpha_s, m.beta_s, m.gamma_s}) {
          EXPECT_TRUE(std::isfinite(v) && v > 0.0)
              << v << " at t=" << threads << " " << precision_name(prec)
              << " in " << file.dump();
        }
      }
    }
  }
  // The mix must exercise both outcomes.
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, files.size());

  // Rank 0 loads the profile inside each call, so it rewrites the file
  // just before its own call; the other ranks read no file.
  rt::Runtime::run(4, [&](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(316, 128, 32);
    FactorizeOptions opts;
    opts.plan_mode = PlanMode::model;
    for (const support::Json& file : files) {
      if (world.rank() == 0) {
        ASSERT_TRUE(support::write_json_file(cache.profile_path(host), file));
      }
      const FactorizeResult res = factorize(a, world, opts);
      EXPECT_LT(lin::orthogonality_error(res.q), 1e-12) << file.dump();
      EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-12) << file.dump();
    }
  });
}

TEST(FactorizePlanTest, MeasuredModeAgreesAcrossRanksAndCaches) {
  const ScopedTuneDir tune_dir("cacqr_measured_test");
  const tune::MachineProfile profile = tune::generic_profile();
  rt::Runtime::run(4, [&](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(304, 192, 24);
    FactorizeOptions opts;
    opts.plan_mode = PlanMode::measured;
    opts.profile = &profile;
    const FactorizeResult res = factorize(a, world, opts);
    EXPECT_EQ(res.plan.source, tune::PlanSource::measured);
    EXPECT_GT(res.plan.measured_seconds, 0.0);
    EXPECT_LT(lin::orthogonality_error(res.q), 1e-10);
    EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-10);
  });

  // The winner was persisted; a fresh run in this process hits the memo,
  // but the FILE must also contain it (what another process would load).
  const tune::PlanCache cache(tune_dir.path);
  const auto hit = cache.load(profile.fingerprint(),
                              tune::ProblemKey{192, 24, 4, 1});
  ASSERT_TRUE(hit.has_value());
  EXPECT_GT(hit->measured_seconds, 0.0);
}

TEST(FactorizePlanTest, MeasuredAfterModelStillRunsTrials) {
  // A model-mode call memoizes its plan; a measured-mode call on the
  // SAME problem must not be satisfied by that entry (it never went
  // through trials) -- it has to trial and record a measured time.
  // Isolated cache dir: a CACQR_TUNE_DIR persisting across suite runs
  // would otherwise pre-seed the measured winner.
  const ScopedTuneDir tune_dir("cacqr_measured_after_model");
  rt::Runtime::run(4, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(307, 224, 16);
    const tune::MachineProfile profile = tune::generic_profile();
    FactorizeOptions opts;
    opts.profile = &profile;
    opts.plan_mode = PlanMode::model;
    const FactorizeResult model_res = factorize(a, world, opts);
    EXPECT_EQ(model_res.plan.measured_seconds, 0.0);

    opts.plan_mode = PlanMode::measured;
    const FactorizeResult measured_res = factorize(a, world, opts);
    EXPECT_EQ(measured_res.plan.source, tune::PlanSource::measured);
    EXPECT_GT(measured_res.plan.measured_seconds, 0.0);
    EXPECT_LT(lin::orthogonality_error(measured_res.q), 1e-10);

    // And the measured winner now serves later model-mode calls (the
    // cache remembering what won).
    opts.plan_mode = PlanMode::model;
    const FactorizeResult again = factorize(a, world, opts);
    EXPECT_EQ(again.plan.source, tune::PlanSource::measured);
    EXPECT_GT(again.plan.measured_seconds, 0.0);
  });
}

TEST(FactorizePlanTest, HeuristicDefaultIgnoresPlannerMachinery) {
  // The default options must follow the historical heuristic path: no
  // planner, no cache, a ca_cqr2 plan with source heuristic -- and
  // identical factors to an explicit run of the chosen grid.
  rt::Runtime::run(4, [](rt::Comm& world) {
    const lin::Matrix a = lin::hashed_matrix(305, 64, 16);
    const FactorizeResult res = factorize(a, world);
    EXPECT_EQ(res.plan.algo, tune::Algo::ca_cqr2);
    EXPECT_EQ(res.plan.source, tune::PlanSource::heuristic);
    EXPECT_EQ(res.plan.kernel_variant, lin::kernel::active_variant());
    const auto [c, d] = choose_grid(4, 64, 16);
    EXPECT_EQ(res.plan.c, c);
    EXPECT_EQ(res.plan.d, d);
    const FactorizeResult ref = factorize(a, world, {.c = c, .d = d});
    EXPECT_EQ(lin::max_abs_diff(res.q, ref.q), 0.0);
    EXPECT_EQ(lin::max_abs_diff(res.r, ref.r), 0.0);
  });
}

TEST(FactorizePlanTest, PlannedModesHandleAwkwardShapes) {
  // Prime dimensions exercise every variant's padding rules.
  rt::Runtime::run(4, [](rt::Comm& world) {
    const tune::MachineProfile profile = tune::generic_profile();
    for (const auto& [m, n] : {std::pair<i64, i64>{101, 13}, {67, 5}}) {
      const lin::Matrix a = lin::hashed_matrix(306, m, n);
      FactorizeOptions opts;
      opts.plan_mode = PlanMode::model;
      opts.profile = &profile;
      const FactorizeResult res = factorize(a, world, opts);
      EXPECT_EQ(res.q.rows(), m);
      EXPECT_EQ(res.q.cols(), n);
      EXPECT_LT(lin::orthogonality_error(res.q), 1e-11) << m << "x" << n;
      EXPECT_LT(lin::residual_error(a, res.q, res.r), 1e-11);
    }
  });
}

}  // namespace
}  // namespace cacqr::core
