#include "cacqr/tune/cache.hpp"

#include <cstdlib>
#include <filesystem>
#include <mutex>

namespace cacqr::tune {

namespace {

/// v2: problem keys lost their "_bc<base_case>" field.
/// v3: one file per (fingerprint, key) under plans-<fp>/, and keys lost
/// their "_s<passes>" field.  Files of other versions read as absent.
constexpr int kCacheSchema = 3;

/// Process-wide lock over the cache files: concurrent factorize drivers
/// (the serving scheduler runs many per process) must not read a file
/// mid-rename from a sibling thread.  Leaked: rank threads may outlive
/// static destructors.
std::mutex& file_mutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

}  // namespace

PlanCache::PlanCache(std::string dir) : dir_(std::move(dir)) {}

PlanCache PlanCache::from_env() {
  const char* dir = std::getenv("CACQR_TUNE_DIR");
  return dir != nullptr && *dir != '\0' ? PlanCache(dir) : PlanCache();
}

std::string PlanCache::plan_path(const std::string& fingerprint,
                                 const ProblemKey& key) const {
  return dir_ + "/plans-" + fnv1a_hex(fingerprint) + "/" + key.text() +
         ".json";
}

std::string PlanCache::profile_path(const std::string& host) const {
  return dir_ + "/profile-" + fnv1a_hex(host) + ".json";
}

std::optional<Plan> PlanCache::load(const std::string& fingerprint,
                                    const ProblemKey& key) const {
  if (!enabled()) return std::nullopt;
  const std::lock_guard<std::mutex> lock(file_mutex());
  auto j = support::read_json_file(plan_path(fingerprint, key));
  if (!j || !j->is_object() || (*j)["schema"].as_int(-1) != kCacheSchema ||
      (*j)["fingerprint"].as_string() != fingerprint ||
      (*j)["key"].as_string() != key.text()) {
    return std::nullopt;
  }
  auto plan = Plan::from_json((*j)["plan"]);
  if (plan) plan->source = PlanSource::cache;
  return plan;
}

void PlanCache::store(const std::string& fingerprint, const ProblemKey& key,
                      const Plan& plan) const {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(file_mutex());
  const std::string path = plan_path(fingerprint, key);
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);  // best-effort
  support::Json file = support::Json::object();
  file.set("schema", kCacheSchema);
  file.set("kind", "cacqr-plan-cache");
  file.set("fingerprint", fingerprint);
  file.set("key", key.text());
  file.set("plan", plan.to_json());
  (void)support::write_json_file(path, file);
}

std::optional<MachineProfile> PlanCache::load_profile(
    const std::string& host) const {
  if (!enabled()) return std::nullopt;
  const std::lock_guard<std::mutex> lock(file_mutex());
  auto j = support::read_json_file(profile_path(host));
  if (!j) return std::nullopt;
  auto p = MachineProfile::from_json(*j);
  if (p && p->host != host) return std::nullopt;  // stale cross-host file
  return p;
}

void PlanCache::store_profile(const MachineProfile& profile) const {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(file_mutex());
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  (void)support::write_json_file(profile_path(profile.host),
                                 profile.to_json());
}

}  // namespace cacqr::tune
