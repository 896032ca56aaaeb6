#pragma once
// Content-addressed cache of provisioned scenarios.
//
// Building a scenario — generating the calibrated fleet, lowering it
// into the electrical model (whose nodes share one compiled PSU table),
// deriving PlanInputs — costs a large share of a short campaign's time
// and is a pure function of the ScenarioSpec.  The service therefore
// caches built scenarios keyed by a fingerprint of the spec.  Safety
// over speed:
//
//   revalidation   every hit recomputes the CRC32 of the entry's sealed
//                  snapshot (the canonical serialization of the fleet it
//                  was built from) before handing the artifact out;
//   quarantine     a CRC mismatch evicts the entry on the spot and
//                  counts it; the request then either rebuilds from
//                  scratch (default) or is refused with a typed
//                  CacheCorruptError (strict mode) — a corrupted
//                  artifact is never served;
//   single-flight  concurrent misses on one fingerprint build once; the
//                  builder counts the miss, waiters count hits — so
//                  cache statistics are deterministic under any
//                  interleaving, which the bench's skip-Provision
//                  contract measures.
//
// Entries are shared immutable (shared_ptr<const Scenario>); campaigns
// never write through them, which is half of the per-request isolation
// story (the other half is per-request RNG seeding).  The one thing a
// campaign adds to an entry is its electrical model's core-phase means
// (SystemPowerModel::core_compute_mean_w), which the first campaign to
// assess the scenario integrates once (std::call_once) and every later
// one reads: a pure function of the scenario, so no request can see
// another's trace in it.

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"

namespace pv {

/// Thrown (strict mode only) when revalidation catches a corrupted
/// cache entry.  The service maps it to the `cache_corrupt` response
/// and the CLI to its own exit code — refusing data beats serving it.
class CacheCorruptError : public std::runtime_error {
 public:
  explicit CacheCorruptError(const std::string& what)
      : std::runtime_error(what) {}
};

struct CacheStats {
  std::size_t hits = 0;         ///< revalidated hits served
  std::size_t misses = 0;       ///< scenario builds (cold or post-quarantine)
  std::size_t quarantined = 0;  ///< entries evicted on CRC mismatch
                                ///  (in-memory or on-disk)
  std::size_t evicted = 0;      ///< entries displaced by capacity pressure
  std::size_t disk_hits = 0;    ///< rebuilt from a spilled artifact
                                ///  (skipped the fleet draw; not a miss)
  std::size_t spills = 0;       ///< artifacts persisted to the cache dir
};

class ScenarioCache {
 public:
  /// `dir` enables the persistent tier: misses probe `dir` for a spilled
  /// artifact before building, and fresh builds are spilled back.  Disk
  /// artifacts are CRC-framed WAL files (one record per node mean, bit
  /// patterns in hex) revalidated on every load; a torn, truncated or
  /// foreign file is quarantined on the spot (renamed *.quarantined) and
  /// either rebuilt from scratch (strict = false) or refused with
  /// CacheCorruptError (strict = true) — the same taxonomy as the
  /// in-memory tier.  Capacity eviction only ever drops the in-memory
  /// entry; the spilled file survives, which is what makes a warm
  /// restart skip Provision.
  explicit ScenarioCache(std::size_t capacity = 8, std::string dir = "");

  ScenarioCache(const ScenarioCache&) = delete;
  ScenarioCache& operator=(const ScenarioCache&) = delete;

  /// Content address of a spec: a 64-bit FNV-1a over its canonical
  /// serialization (every field, doubles by their bit patterns).
  [[nodiscard]] static std::uint64_t fingerprint(const ScenarioSpec& spec);

  /// Returns the built scenario for `spec`, building it on a miss.
  /// Every hit is revalidated; corruption quarantines the entry and
  /// either rebuilds (strict = false) or throws CacheCorruptError
  /// (strict = true).  `inject_corruption` is the chaos hook: it flips a
  /// snapshot byte right before revalidation (inserting first on a
  /// cold entry), so the corruption path fires deterministically for
  /// this acquire whatever the cache temperature.
  [[nodiscard]] std::shared_ptr<const Scenario> acquire(
      const ScenarioSpec& spec, bool strict = false,
      bool inject_corruption = false);

  [[nodiscard]] CacheStats stats() const;

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const Scenario>> ready;
    std::string snapshot;     ///< canonical bytes the CRC covers
    std::uint32_t crc = 0;
    bool sealed = false;      ///< snapshot + crc written by the builder
    std::uint64_t last_use = 0;
  };

  void evict_if_full_locked();
  [[nodiscard]] std::string disk_path(std::uint64_t fp) const;
  /// Probes the persistent tier.  Returns true and fills `means` on a
  /// valid spilled artifact; quarantines a corrupt one (throwing in
  /// strict mode); returns false when there is nothing usable.
  bool try_load_disk(const ScenarioSpec& spec, std::uint64_t fp, bool strict,
                     std::vector<double>& means);
  /// Best-effort spill of a fresh build (a failed spill never fails the
  /// request — the artifact just stays memory-only).
  void spill_to_disk(std::uint64_t fp, const Scenario& built);

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::string dir_;
  std::uint64_t use_clock_ = 0;
  std::map<std::uint64_t, Entry> entries_;
  CacheStats stats_;
};

}  // namespace pv
