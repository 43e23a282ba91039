#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cacqr/support/json.hpp"
#include "cacqr/tune/cache.hpp"

namespace cacqr::tune {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct CacheFixture : ::testing::Test {
  void SetUp() override {
    dir = (fs::temp_directory_path() /
           ("cacqr_cache_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name()))
              .string();
    fs::remove_all(dir);
  }
  void TearDown() override { fs::remove_all(dir); }
  std::string dir;
};

Plan sample_plan() {
  Plan p;
  p.algo = Algo::ca_cqr2;
  p.c = 2;
  p.d = 2;
  p.predicted_seconds = 0.125;
  p.measured_seconds = 0.25;
  p.source = PlanSource::measured;
  p.kernel_variant = lin::kernel::Variant::avx2;
  return p;
}

TEST_F(CacheFixture, RoundTripIsIdentical) {
  const PlanCache cache(dir);
  const ProblemKey key{8192, 128, 8, 1};
  const Plan plan = sample_plan();
  cache.store("fp-a", key, plan);

  auto loaded = cache.load("fp-a", key);
  ASSERT_TRUE(loaded.has_value());
  Plan expect = plan;
  expect.source = PlanSource::cache;  // provenance is rewritten on load
  EXPECT_EQ(*loaded, expect);
}

TEST_F(CacheFixture, EntryFileIsPinnedAndTheEarlierLayoutIsIgnored) {
  // One entry's file, byte for byte as store writes it: the envelope
  // names its fingerprint and key, and the plan keeps the spelling of
  // plan schema 3.
  const std::string entry = R"({
 "schema": 3,
 "kind": "cacqr-plan-cache",
 "fingerprint": "fp-a",
 "key": "m8192_n128_p8_t1_mixed",
 "plan": {
  "schema": 3,
  "algo": "pgeqrf_2d",
  "c": 0,
  "d": 0,
  "pr": 4,
  "pc": 2,
  "block": 32,
  "predicted_seconds": 0.25,
  "measured_seconds": 0.5,
  "source": "measured",
  "kernel_variant": "avx512",
  "precision": "mixed"
 }
}
)";
  Plan pg;
  pg.algo = Algo::pgeqrf_2d;
  pg.pr = 4;
  pg.pc = 2;
  pg.block = 32;
  pg.predicted_seconds = 0.25;
  pg.measured_seconds = 0.5;
  pg.source = PlanSource::measured;
  pg.kernel_variant = lin::kernel::Variant::avx512;
  pg.precision = Precision::mixed;
  const ProblemKey key{8192, 128, 8, 1, Precision::mixed};

  const PlanCache cache(dir);
  cache.store("fp-a", key, pg);
  EXPECT_EQ(read_file(cache.plan_path("fp-a", key)), entry);
  Plan expect = pg;
  expect.source = PlanSource::cache;
  EXPECT_EQ(cache.load("fp-a", key), expect);

  // The earlier layout -- one schema-2 file per fingerprint, its keys
  // carrying "_s<passes>" -- reads as absent.
  const std::string earlier = R"({
 "schema": 2,
 "kind": "cacqr-plan-cache",
 "fingerprint": "fp-a",
 "plans": {
  "m8192_n128_p8_t1_s2_fp64": {
   "schema": 3,
   "algo": "ca_cqr2",
   "c": 2,
   "d": 2,
   "pr": 0,
   "pc": 0,
   "block": 0,
   "predicted_seconds": 0.125,
   "measured_seconds": 0.25,
   "source": "measured",
   "kernel_variant": "avx2",
   "precision": "fp64"
  }
 }
}
)";
  const PlanCache old(dir + "-b");
  fs::create_directories(old.dir());
  std::ofstream(old.dir() + "/plans-" + fnv1a_hex("fp-a") + ".json")
      << earlier;
  EXPECT_FALSE(old.load("fp-a", ProblemKey{8192, 128, 8, 1}).has_value());
  fs::remove_all(old.dir());
}

TEST_F(CacheFixture, SerializationIsDeterministic) {
  const PlanCache cache(dir);
  const ProblemKey k1{8192, 128, 8, 1};
  const ProblemKey k2{1024, 64, 4, 2};
  // Insert in one order...
  cache.store("fp-a", k1, sample_plan());
  const std::string text_1 = read_file(cache.plan_path("fp-a", k1));
  cache.store("fp-a", k2, sample_plan());
  // ...touches only the stored key's file...
  EXPECT_EQ(text_1, read_file(cache.plan_path("fp-a", k1)));
  const std::string text_2 = read_file(cache.plan_path("fp-a", k2));
  // ...and the reverse order into a second cache writes byte-identical
  // files (numbers are shortest-round-trip).
  const std::string dir_b = dir + "-b";
  const PlanCache cache_b(dir_b);
  cache_b.store("fp-a", k2, sample_plan());
  cache_b.store("fp-a", k1, sample_plan());
  EXPECT_EQ(text_1, read_file(cache_b.plan_path("fp-a", k1)));
  EXPECT_EQ(text_2, read_file(cache_b.plan_path("fp-a", k2)));
  // Re-storing an existing entry is a no-op on the bytes.
  cache.store("fp-a", k1, sample_plan());
  EXPECT_EQ(text_1, read_file(cache.plan_path("fp-a", k1)));
  fs::remove_all(dir_b);
}

TEST_F(CacheFixture, MissesOnUnknownKeyOrFingerprint) {
  const PlanCache cache(dir);
  const ProblemKey key{8192, 128, 8, 1};
  const ProblemKey other{8192, 128, 8, 2};
  cache.store("fp-a", key, sample_plan());
  EXPECT_FALSE(cache.load("fp-b", key).has_value());
  EXPECT_FALSE(cache.load("fp-a", other).has_value());
  // A file moved under another key's or fingerprint's name is not that
  // entry: the envelope names its own.
  cache.store("fp-b", key, sample_plan());
  fs::copy_file(cache.plan_path("fp-a", key), cache.plan_path("fp-b", key),
                fs::copy_options::overwrite_existing);
  EXPECT_FALSE(cache.load("fp-b", key).has_value());
  cache.store("fp-a", other, sample_plan());
  fs::copy_file(cache.plan_path("fp-a", key), cache.plan_path("fp-a", other),
                fs::copy_options::overwrite_existing);
  EXPECT_FALSE(cache.load("fp-a", other).has_value());
  EXPECT_TRUE(cache.load("fp-a", key).has_value());
}

TEST_F(CacheFixture, CorruptedFileIsIgnoredNotFatal) {
  const PlanCache cache(dir);
  const ProblemKey key{8192, 128, 8, 1};
  cache.store("fp-a", key, sample_plan());
  const std::string path = cache.plan_path("fp-a", key);

  for (const char* garbage :
       {"not json at all", "{\"schema\": 1, \"plan\": [truncated",
        "[1, 2, 3]", ""}) {
    std::ofstream(path, std::ios::trunc) << garbage;
    EXPECT_FALSE(cache.load("fp-a", key).has_value()) << garbage;
    // And storing over garbage recovers the file.
    cache.store("fp-a", key, sample_plan());
    EXPECT_TRUE(cache.load("fp-a", key).has_value()) << garbage;
  }
}

TEST_F(CacheFixture, WrongSchemaVersionIsIgnored) {
  const PlanCache cache(dir);
  const ProblemKey key{8192, 128, 8, 1};
  cache.store("fp-a", key, sample_plan());
  // Rewrite the envelope with an older or a future schema version:
  // entries must be invisible (no binary misreads another format).
  const std::string path = cache.plan_path("fp-a", key);
  const std::string text = read_file(path);
  const auto pos = text.find("\"schema\": 3");
  ASSERT_NE(pos, std::string::npos) << text;
  for (const char* other : {"\"schema\": 2", "\"schema\": 99"}) {
    std::string changed = text;
    changed.replace(pos, 11, other);
    std::ofstream(path, std::ios::trunc) << changed;
    EXPECT_FALSE(cache.load("fp-a", key).has_value()) << other;
  }
}

TEST_F(CacheFixture, MalformedPlanEntryIsIgnored) {
  const PlanCache cache(dir);
  const ProblemKey key{8192, 128, 8, 1};
  cache.store("fp-a", key, sample_plan());
  ASSERT_TRUE(cache.load("fp-a", key).has_value());
  // An unknown variant family in the file: the entry must be rejected on
  // load.
  const std::string path = cache.plan_path("fp-a", key);
  std::string text = read_file(path);
  const std::string algo = "\"algo\": \"ca_cqr2\"";
  const auto pos = text.find(algo);
  ASSERT_NE(pos, std::string::npos) << text;
  text.replace(pos, algo.size(), "\"algo\": \"quantum_qr\"");
  std::ofstream(path, std::ios::trunc) << text;
  EXPECT_FALSE(cache.load("fp-a", key).has_value());
}

TEST_F(CacheFixture, OutOfIntGridFieldIsIgnored) {
  // "d": 2^32 + 4 must not narrow to d = 4 (c2d4, a valid grid) and be
  // served: a grid field outside int is corruption.
  const PlanCache cache(dir);
  const ProblemKey key{8192, 128, 8, 1};
  cache.store("fp-a", key, sample_plan());
  const std::string path = cache.plan_path("fp-a", key);
  std::string text = read_file(path);
  const std::string d = "\"d\": 2,";
  const auto pos = text.find(d);
  ASSERT_NE(pos, std::string::npos) << text;
  text.replace(pos, d.size(), "\"d\": 4294967300,");
  std::ofstream(path, std::ios::trunc) << text;
  const auto file = support::read_json_file(path);
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ((*file)["plan"]["d"].as_int(), 4294967300);
  EXPECT_FALSE(Plan::from_json((*file)["plan"]).has_value());
  EXPECT_FALSE(cache.load("fp-a", key).has_value());
}

TEST_F(CacheFixture, DisabledCacheIsInert) {
  const PlanCache cache;  // no directory
  EXPECT_FALSE(cache.enabled());
  const ProblemKey key{8192, 128, 8, 1};
  cache.store("fp-a", key, sample_plan());  // no-op, no crash
  EXPECT_FALSE(cache.load("fp-a", key).has_value());
}

TEST_F(CacheFixture, ProfileRoundTrip) {
  const PlanCache cache(dir);
  MachineProfile p = generic_profile();
  p.machine.alpha_s = 3.25e-7;
  p.kernels.push_back({"gemm_nn", 384, 384, 384, 17.5, ""});
  p.scaling.push_back({4, 2.5});
  cache.store_profile(p);

  auto loaded = cache.load_profile(p.host);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->host, p.host);
  EXPECT_EQ(loaded->machine.alpha_s, p.machine.alpha_s);
  EXPECT_EQ(loaded->machine.beta_s, p.machine.beta_s);
  EXPECT_EQ(loaded->machine.gamma_s, p.machine.gamma_s);
  ASSERT_EQ(loaded->kernels.size(), 1u);
  EXPECT_EQ(loaded->kernels[0].gflops, 17.5);
  EXPECT_EQ(loaded->thread_speedup(4), 2.5);
  EXPECT_EQ(loaded->fingerprint(), p.fingerprint());

  EXPECT_FALSE(cache.load_profile("some-other-host").has_value());
}

TEST_F(CacheFixture, FromEnvRespectsUnsetAndSet) {
  // The env var is read at call time so tests can repoint it; restore
  // whatever the surrounding ctest pass had exported.
  const char* orig = std::getenv("CACQR_TUNE_DIR");
  const std::string saved = orig != nullptr ? orig : "";
  ::unsetenv("CACQR_TUNE_DIR");
  EXPECT_FALSE(PlanCache::from_env().enabled());
  ::setenv("CACQR_TUNE_DIR", dir.c_str(), 1);
  const PlanCache cache = PlanCache::from_env();
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.dir(), dir);
  if (orig != nullptr) {
    ::setenv("CACQR_TUNE_DIR", saved.c_str(), 1);
  } else {
    ::unsetenv("CACQR_TUNE_DIR");
  }
}

}  // namespace
}  // namespace cacqr::tune
