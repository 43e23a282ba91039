#pragma once
/// \file cache.hpp
/// \brief Persistent plan cache: measured/model plans and calibration
///        profiles remembered across processes, so repeated and batched
///        workloads skip planning (and re-calibration) entirely.
///
/// Layout under the cache directory (`CACQR_TUNE_DIR`):
///
///   plans-<fp>/<key>.json  one file per (profile fingerprint, problem
///                          key): a versioned envelope holding the Plan,
///                          named by ProblemKey::text()
///   profile-<host>.json    the calibrated MachineProfile for this host
///
/// where <fp> and <host> are FNV-1a digests of the profile fingerprint
/// and host fingerprint.  Guarantees:
///
///   * **O(1) file work per entry** -- a store writes its own entry's
///     file and nothing else, so the cost of a miss does not grow with
///     the number of keys cached.
///   * **Deterministic serialization** -- numbers in shortest-round-trip
///     form, so storing a loaded entry reproduces its file byte for byte
///     (tested).
///   * **Corruption is ignored, never fatal** -- unparseable files, wrong
///     schema versions, a foreign fingerprint or key, and malformed
///     entries all read as "absent".
///   * **Atomic writes** -- temp file + rename, so a concurrent reader
///     sees the old or the new file, never a torn one; two writers of one
///     key leave one complete entry.
///
/// The cache is a per-process-call object (cheap: it holds only the
/// directory path); every load reads the entry's file, which keeps
/// independent processes coherent without locking.  In-process repeat
/// lookups are served by core::factorize's plan memo before ever
/// reaching this class.

#include <optional>

#include "cacqr/tune/planner.hpp"

namespace cacqr::tune {

class PlanCache {
 public:
  /// Disabled cache: loads miss, stores are no-ops.
  PlanCache() = default;

  /// Cache rooted at `dir` (created on first store).  Empty = disabled.
  explicit PlanCache(std::string dir);

  /// Reads CACQR_TUNE_DIR at call time (not cached statically, so tests
  /// and long-lived processes can repoint it).  Unset/empty = disabled.
  [[nodiscard]] static PlanCache from_env();

  [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Cached plan for (profile fingerprint, problem key), or nullopt.
  [[nodiscard]] std::optional<Plan> load(const std::string& fingerprint,
                                         const ProblemKey& key) const;

  /// Writes (or replaces) the entry's file.  Best-effort: I/O failures
  /// are swallowed -- the cache is an optimization, never a correctness
  /// dependency.
  void store(const std::string& fingerprint, const ProblemKey& key,
             const Plan& plan) const;

  /// Calibrated profile persisted for this host fingerprint, or nullopt.
  [[nodiscard]] std::optional<MachineProfile> load_profile(
      const std::string& host) const;
  void store_profile(const MachineProfile& profile) const;

  /// The file one (fingerprint, key) entry lives in (test/debug
  /// introspection).
  [[nodiscard]] std::string plan_path(const std::string& fingerprint,
                                      const ProblemKey& key) const;
  [[nodiscard]] std::string profile_path(const std::string& host) const;

 private:
  std::string dir_;
};

}  // namespace cacqr::tune
