#include "service/cache.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "trace/wal.hpp"

namespace pv {

namespace {

void put_bytes(std::string& out, const void* p, std::size_t n) {
  out.append(static_cast<const char*>(p), n);
}

template <typename T>
void put_pod(std::string& out, const T& v) {
  put_bytes(out, &v, sizeof v);
}

/// Canonical byte serialization of a spec: every field, doubles by bit
/// pattern, the name length-prefixed so "ab"+"c" never collides with
/// "a"+"bc".
std::string spec_key(const ScenarioSpec& spec) {
  std::string key;
  put_pod(key, spec.name.size());
  key += spec.name;
  put_pod(key, spec.nodes);
  put_pod(key, spec.cv);
  put_pod(key, spec.mean_node_w);
  put_pod(key, spec.fleet_seed);
  put_pod(key, spec.nodes_per_rack);
  put_pod(key, spec.run_minutes);
  put_pod(key, spec.load);
  put_pod(key, spec.ramp_minutes);
  put_pod(key, spec.tail_minutes);
  return key;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// The sealed snapshot the CRC protects: the spec's canonical bytes plus
/// the generated fleet's per-node means — the exact data every Provision
/// artifact (electrical model, plan inputs) derives from.
std::string snapshot_of(const ScenarioSpec& spec, const Scenario& built) {
  std::string snap = spec_key(spec);
  const auto means = built.cluster->node_means();
  put_bytes(snap, means.data(), means.size() * sizeof(double));
  return snap;
}

/// Disk artifacts are bound to fingerprint ^ this tag, so a journal
/// written by anything else (a drain checkpoint, a collect WAL, an old
/// format revision) is refused as foreign, not replayed as node means.
std::uint64_t disk_format_tag() {
  return fnv1a("powervar-scenario-cache-v1");
}

/// 16 lowercase hex chars of a double's bit pattern — the only encoding
/// that round-trips every fleet draw bit-exactly through a text WAL.
std::string hex_of_double(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return std::string(buf, 16);
}

bool double_of_hex(const std::string& s, double& out) {
  if (s.size() != 16) return false;
  std::uint64_t bits = 0;
  for (const char c : s) {
    int nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      nibble = c - 'a' + 10;
    } else {
      return false;
    }
    bits = (bits << 4) | static_cast<std::uint64_t>(nibble);
  }
  std::memcpy(&out, &bits, sizeof out);
  return true;
}

}  // namespace

ScenarioCache::ScenarioCache(std::size_t capacity, std::string dir)
    : capacity_(capacity == 0 ? 1 : capacity), dir_(std::move(dir)) {}

std::uint64_t ScenarioCache::fingerprint(const ScenarioSpec& spec) {
  return fnv1a(spec_key(spec));
}

std::string ScenarioCache::disk_path(std::uint64_t fp) const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fp));
  return dir_ + "/" + std::string(buf, 16) + ".scn";
}

bool ScenarioCache::try_load_disk(const ScenarioSpec& spec, std::uint64_t fp,
                                  bool strict, std::vector<double>& means) {
  const std::string path = disk_path(fp);
  bool corrupt = false;
  std::string why;
  try {
    const WalReplay replay = replay_wal(path);
    if (!replay.exists) return false;  // plain cold miss, nothing on disk
    if (replay.fingerprint != (fp ^ disk_format_tag())) {
      corrupt = true;
      why = "foreign fingerprint";
    } else if (replay.torn_lines != 0) {
      corrupt = true;
      why = "torn record(s)";
    } else if (replay.records.size() != spec.nodes) {
      corrupt = true;
      why = "node-count mismatch";
    } else {
      means.clear();
      means.reserve(replay.records.size());
      for (const std::string& record : replay.records) {
        double v = 0.0;
        if (!double_of_hex(record, v) || !std::isfinite(v) || v <= 0.0) {
          corrupt = true;
          why = "unparseable node mean";
          break;
        }
        means.push_back(v);
      }
    }
  } catch (const std::exception&) {
    corrupt = true;  // not even a journal (garbage header)
    why = "unreadable header";
  }
  if (!corrupt) return true;

  // Quarantine: move the carcass aside so the next probe is a clean
  // miss, then refuse (strict) or rebuild from scratch.
  means.clear();
  (void)std::rename(path.c_str(), (path + ".quarantined").c_str());
  {
    std::unique_lock lock(mu_);
    ++stats_.quarantined;
  }
  if (strict) {
    throw CacheCorruptError("spilled provision artifact failed revalidation (" +
                            why +
                            "; quarantined); strict mode refuses to rebuild");
  }
  return false;
}

void ScenarioCache::spill_to_disk(std::uint64_t fp, const Scenario& built) {
  try {
    WalWriter wal(disk_path(fp), fp ^ disk_format_tag());
    for (const double mean : built.cluster->node_means()) {
      wal.append(hex_of_double(mean));
    }
    std::unique_lock lock(mu_);
    ++stats_.spills;
  } catch (...) {
    // Best effort: an unwritable cache dir degrades to memory-only.
  }
}

void ScenarioCache::evict_if_full_locked() {
  while (entries_.size() >= capacity_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.sealed) continue;  // still building; never evict
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything is in flight
    entries_.erase(victim);
    ++stats_.evicted;
  }
}

std::shared_ptr<const Scenario> ScenarioCache::acquire(
    const ScenarioSpec& spec, bool strict, bool inject_corruption) {
  const std::uint64_t fp = fingerprint(spec);
  bool inject = inject_corruption;
  for (;;) {
    std::shared_future<std::shared_ptr<const Scenario>> wait_on;
    std::promise<std::shared_ptr<const Scenario>> build_promise;
    bool builder = false;
    {
      std::unique_lock lock(mu_);
      auto it = entries_.find(fp);
      if (it == entries_.end()) {
        builder = true;
        evict_if_full_locked();
        Entry e;
        e.ready = build_promise.get_future().share();
        e.last_use = ++use_clock_;
        entries_.emplace(fp, std::move(e));
      } else {
        it->second.last_use = ++use_clock_;
        wait_on = it->second.ready;
      }
    }

    std::shared_ptr<const Scenario> artifact;
    if (builder) {
      try {
        // Persistent tier first: a valid spilled artifact replays the
        // fleet draw bit-exactly and skips generate_node_powers; only a
        // true cold miss builds (and then spills for the next restart).
        std::vector<double> means;
        if (!dir_.empty() && try_load_disk(spec, fp, strict, means)) {
          artifact = std::make_shared<const Scenario>(
              build_scenario_with_powers(spec, std::move(means)));
          std::unique_lock lock(mu_);
          ++stats_.disk_hits;
        } else {
          {
            std::unique_lock lock(mu_);
            ++stats_.misses;
          }
          artifact = std::make_shared<const Scenario>(build_scenario(spec));
          if (!dir_.empty()) spill_to_disk(fp, *artifact);
        }
      } catch (...) {
        {
          std::unique_lock lock(mu_);
          entries_.erase(fp);
        }
        build_promise.set_exception(std::current_exception());
        throw;
      }
      // The seal's CRC covers a local, so it is computed before locking;
      // the lock guards only the map update.
      std::string snap = snapshot_of(spec, *artifact);
      const std::uint32_t crc = crc32(snap);
      {
        std::unique_lock lock(mu_);
        auto it = entries_.find(fp);
        if (it != entries_.end()) {
          it->second.snapshot = std::move(snap);
          it->second.crc = crc;
          it->second.sealed = true;
        }
      }
      build_promise.set_value(artifact);
    } else {
      // Single flight: wait for the builder; a build failure propagates
      // to every waiter (the builder already removed the entry).
      artifact = wait_on.get();
    }

    // Revalidate the sealed entry before serving — builder and waiter
    // alike, so an injected corruption fires whatever the temperature.
    {
      std::unique_lock lock(mu_);
      auto it = entries_.find(fp);
      if (it == entries_.end() || !it->second.sealed) {
        // Quarantined or evicted between the build and now: the map no
        // longer vouches for this artifact, so take the miss path again.
        if (builder) return artifact;  // our own build, sealed above
        continue;
      }
      if (inject && !it->second.snapshot.empty()) {
        it->second.snapshot[it->second.snapshot.size() / 2] ^=
            static_cast<char>(0x20);
      }
      if (crc32(it->second.snapshot) != it->second.crc) {
        ++stats_.quarantined;
        entries_.erase(it);
        if (strict) {
          throw CacheCorruptError(
              "provision cache entry failed CRC revalidation "
              "(quarantined); strict mode refuses to rebuild");
        }
        inject = false;  // rebuild cleanly on the next pass
        continue;
      }
      if (!builder) ++stats_.hits;
    }
    return artifact;
  }
}

CacheStats ScenarioCache::stats() const {
  std::unique_lock lock(mu_);
  return stats_;
}

}  // namespace pv
