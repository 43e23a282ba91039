#include "cacqr/tune/cache.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <mutex>

namespace cacqr::tune {

namespace {

/// v2: problem keys lost their "_bc<base_case>" field; v1 files are
/// ignored by the loader.
constexpr int kCacheSchema = 2;

/// Process-wide lock over the cache files: concurrent factorize drivers
/// (the serving scheduler runs many per process) must not interleave the
/// read-merge-write in store() or read a file mid-rename from a sibling
/// thread.  Cross-process writers are still handled by the verify-retry
/// below; this mutex removes the in-process races TSAN would flag.
/// Leaked: rank threads may outlive static destructors.
std::mutex& file_mutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

/// The versioned envelope of a plans file; returns a fresh empty one
/// when the existing file is absent, corrupt, or from another schema.
support::Json load_or_new_plans_file(const std::string& path,
                                     const std::string& fingerprint) {
  if (auto j = support::read_json_file(path)) {
    if (j->is_object() && (*j)["schema"].as_int(-1) == kCacheSchema &&
        (*j)["fingerprint"].as_string() == fingerprint &&
        (*j)["plans"].is_object()) {
      return std::move(*j);
    }
  }
  support::Json fresh = support::Json::object();
  fresh.set("schema", kCacheSchema);
  fresh.set("kind", "cacqr-plan-cache");
  fresh.set("fingerprint", fingerprint);
  fresh.set("plans", support::Json::object());
  return fresh;
}

}  // namespace

PlanCache::PlanCache(std::string dir) : dir_(std::move(dir)) {}

PlanCache PlanCache::from_env() {
  const char* dir = std::getenv("CACQR_TUNE_DIR");
  return dir != nullptr && *dir != '\0' ? PlanCache(dir) : PlanCache();
}

std::string PlanCache::plans_path(const std::string& fingerprint) const {
  return dir_ + "/plans-" + fnv1a_hex(fingerprint) + ".json";
}

std::string PlanCache::profile_path(const std::string& host) const {
  return dir_ + "/profile-" + fnv1a_hex(host) + ".json";
}

std::optional<Plan> PlanCache::load(const std::string& fingerprint,
                                    const ProblemKey& key) const {
  if (!enabled()) return std::nullopt;
  const std::lock_guard<std::mutex> lock(file_mutex());
  auto j = support::read_json_file(plans_path(fingerprint));
  if (!j || !j->is_object() || (*j)["schema"].as_int(-1) != kCacheSchema ||
      (*j)["fingerprint"].as_string() != fingerprint) {
    return std::nullopt;
  }
  auto plan = Plan::from_json((*j)["plans"][key.text()]);
  if (plan) plan->source = PlanSource::cache;
  return plan;
}

void PlanCache::store(const std::string& fingerprint, const ProblemKey& key,
                      const Plan& plan) const {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(file_mutex());
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best-effort
  const std::string path = plans_path(fingerprint);

  // Read-merge-write with a bounded verify-retry: two processes storing
  // different keys near-simultaneously both rename complete files, so
  // one rename can shadow the other's entry; re-reading and re-merging
  // once recovers it.  Still best-effort -- a lost entry only costs a
  // re-plan, never correctness.
  for (int attempt = 0; attempt < 3; ++attempt) {
    support::Json file = load_or_new_plans_file(path, fingerprint);

    // Rebuild the plans object with sorted keys: serialization stays
    // deterministic regardless of insertion history.
    std::vector<std::pair<std::string, support::Json>> entries;
    for (const auto& [k, v] : file["plans"].members()) {
      if (k != key.text()) entries.emplace_back(k, v);
    }
    entries.emplace_back(key.text(), plan.to_json());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    support::Json plans = support::Json::object();
    for (auto& [k, v] : entries) plans.set(k, std::move(v));
    file.set("plans", std::move(plans));
    if (!support::write_json_file(path, file)) return;

    // Verify our entry survived any concurrent rename; retry otherwise.
    if (auto check = support::read_json_file(path);
        check && (*check)["plans"].has(key.text())) {
      return;
    }
  }
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
