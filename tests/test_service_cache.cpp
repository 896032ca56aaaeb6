// ScenarioCache contracts beyond what the service soaks exercise:
// deterministic LRU eviction accounting, builder/waiter statistics under
// single-flight contention, exact quarantine counters in strict vs
// rebuild mode, capacity edges — and the persistent tier: spill on
// build, bit-exact warm reload, quarantine-on-corruption for torn,
// truncated and foreign disk artifacts.

#include "service/cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "trace/wal.hpp"

namespace pv {
namespace {

ScenarioSpec spec_of(std::uint64_t fleet_seed, std::size_t nodes = 8) {
  ScenarioSpec spec;
  spec.nodes = nodes;
  spec.fleet_seed = fleet_seed;
  return spec;
}

/// Fresh per-test cache directory (wiped so reruns start cold).
std::string cache_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/pv_scn_cache_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string artifact_path(const std::string& dir, const ScenarioSpec& spec) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(ScenarioCache::fingerprint(spec)));
  return dir + "/" + std::string(buf, 16) + ".scn";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
}

/// Bit-exact fleet comparison: the whole point of the persistent tier is
/// that a reloaded scenario is indistinguishable from the original.
void expect_same_fleet(const Scenario& a, const Scenario& b) {
  const auto ma = a.cluster->node_means();
  const auto mb = b.cluster->node_means();
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i) {
    EXPECT_EQ(ma[i], mb[i]) << "node " << i;  // bit-exact doubles
  }
}

TEST(ScenarioCacheEviction, LruOrderAndCountersAreDeterministic) {
  ScenarioCache cache(2);
  const ScenarioSpec a = spec_of(1), b = spec_of(2), c = spec_of(3);
  (void)cache.acquire(a);  // miss 1
  (void)cache.acquire(b);  // miss 2
  (void)cache.acquire(a);  // hit 1 — refreshes a's recency
  (void)cache.acquire(c);  // miss 3, evicts b (least recent)
  (void)cache.acquire(b);  // miss 4, evicts a (older than c)
  (void)cache.acquire(c);  // hit 2 — c survived both evictions
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evicted, 2u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_EQ(stats.spills, 0u);
}

TEST(ScenarioCacheEviction, CapacityZeroClampsToOne) {
  // A degenerate capacity still caches the most recent entry (the
  // single-flight future needs at least one slot to exist in).
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{1}}) {
    ScenarioCache cache(capacity);
    const ScenarioSpec a = spec_of(1), b = spec_of(2);
    (void)cache.acquire(a);  // miss
    (void)cache.acquire(a);  // hit — a is resident
    (void)cache.acquire(b);  // miss, evicts a
    (void)cache.acquire(a);  // miss again, evicts b
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u) << "capacity " << capacity;
    EXPECT_EQ(stats.misses, 3u) << "capacity " << capacity;
    EXPECT_EQ(stats.evicted, 2u) << "capacity " << capacity;
  }
}

TEST(ScenarioCacheContention, SingleFlightBuildsOnceWaitersCountHits) {
  // Eight threads race one fingerprint: exactly one builds (the miss),
  // the other seven wait on the shared future and count revalidated
  // hits — deterministic statistics under any interleaving, and one
  // shared immutable artifact for everyone.
  ScenarioCache cache(4);
  const ScenarioSpec spec = spec_of(42, 16);
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const Scenario>> got(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] { got[i] = cache.acquire(spec); });
    }
    for (auto& t : threads) t.join();
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads - 1);
  for (std::size_t i = 1; i < kThreads; ++i) {
    EXPECT_EQ(got[i].get(), got[0].get()) << "thread " << i;
  }
}

TEST(ScenarioCacheContention, RacingMissesEvictWhileOthersHoldEntries) {
  // Capacity 2 under four threads cycling six fingerprints: misses evict
  // entries that other threads still hold, wait on or revalidate.  Every
  // acquire still gets a scenario of its own spec, and each counts
  // exactly one hit or one miss whatever the interleaving.
  ScenarioCache cache(2);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 12;
  constexpr std::size_t kSpecs = 6;
  std::vector<std::size_t> wrong(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t r = 0; r < kRounds; ++r) {
          const std::size_t k = (t + r) % kSpecs;
          const ScenarioSpec spec = spec_of(100 + k, 8 + k);
          const std::shared_ptr<const Scenario> s = cache.acquire(spec);
          if (s->cluster->node_count() != spec.nodes) ++wrong[t];
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(wrong[t], 0u) << "thread " << t;
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds);
  EXPECT_GE(stats.misses, kSpecs);
  EXPECT_GT(stats.evicted, 0u);
  EXPECT_LE(stats.evicted, stats.misses);
  EXPECT_EQ(stats.quarantined, 0u);
}

TEST(ScenarioCacheQuarantine, RebuildModeCountsExactly) {
  ScenarioCache cache(4);
  const ScenarioSpec spec = spec_of(7);
  (void)cache.acquire(spec);  // miss 1: clean build
  // Injected corruption on a warm entry: quarantined, then rebuilt
  // transparently — the caller still gets an artifact, and the counters
  // say exactly what happened.
  const auto rebuilt = cache.acquire(spec, /*strict=*/false,
                                     /*inject_corruption=*/true);
  ASSERT_NE(rebuilt, nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.misses, 2u);  // the rebuild is a fresh build
  EXPECT_EQ(stats.hits, 0u);    // a quarantined entry never counts a hit
}

TEST(ScenarioCacheQuarantine, StrictModeRefusesAndCountsExactly) {
  ScenarioCache cache(4);
  const ScenarioSpec spec = spec_of(7);
  (void)cache.acquire(spec, /*strict=*/true);  // miss 1
  EXPECT_THROW((void)cache.acquire(spec, /*strict=*/true,
                                   /*inject_corruption=*/true),
               CacheCorruptError);
  {
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_EQ(stats.misses, 1u);  // strict refused; nothing was rebuilt
    EXPECT_EQ(stats.hits, 0u);
  }
  // The quarantined entry is really gone: the next acquire is a clean
  // cold build, not a hit on poisoned data.
  (void)cache.acquire(spec, /*strict=*/true);
  EXPECT_EQ(cache.stats().misses, 2u);
}

// --- the persistent tier -------------------------------------------------

TEST(ScenarioCachePersist, SpillOnBuildAndBitExactWarmReload) {
  const std::string dir = cache_dir("warm");
  const ScenarioSpec spec = spec_of(11);

  std::shared_ptr<const Scenario> cold;
  {
    ScenarioCache cache(4, dir);
    cold = cache.acquire(spec);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.spills, 1u);
    EXPECT_EQ(stats.disk_hits, 0u);
    EXPECT_TRUE(std::filesystem::exists(artifact_path(dir, spec)));
  }

  // A "restarted process": new cache, same directory.  The spilled
  // artifact replays the fleet draw bit-exactly — a disk hit, neither a
  // hit nor a miss — and repeat acquires are ordinary memory hits.
  ScenarioCache warm(4, dir);
  const auto reloaded = warm.acquire(spec);
  expect_same_fleet(*cold, *reloaded);
  (void)warm.acquire(spec);
  const CacheStats stats = warm.stats();
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.spills, 0u);  // nothing new was built, nothing spilled
}

TEST(ScenarioCachePersist, EvictionDropsMemoryButTheSpillSurvives) {
  const std::string dir = cache_dir("evict");
  ScenarioCache cache(1, dir);
  const ScenarioSpec a = spec_of(1), b = spec_of(2);
  (void)cache.acquire(a);  // miss + spill
  (void)cache.acquire(b);  // miss + spill, evicts a from memory only
  (void)cache.acquire(a);  // memory-cold but disk-warm: a disk hit
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.spills, 2u);
  EXPECT_EQ(stats.evicted, 2u);  // b was evicted by a's reload too
  EXPECT_EQ(stats.disk_hits, 1u);
}

TEST(ScenarioCachePersist, CorruptSpillIsQuarantinedAndRebuilt) {
  const std::string dir = cache_dir("flip");
  const ScenarioSpec spec = spec_of(21);
  std::shared_ptr<const Scenario> original;
  {
    ScenarioCache cache(4, dir);
    original = cache.acquire(spec);
  }
  const std::string path = artifact_path(dir, spec);
  std::string text = slurp(path);
  text[text.size() / 2] ^= 0x04;  // flip a bit mid-record
  dump(path, text);

  ScenarioCache cache(4, dir);
  const auto rebuilt = cache.acquire(spec);
  // Quarantine moved the carcass aside and the rebuild (same spec, same
  // seed) reproduced the identical fleet — then re-spilled a clean copy.
  expect_same_fleet(*original, *rebuilt);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_EQ(stats.spills, 1u);
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"));
  EXPECT_TRUE(std::filesystem::exists(path));  // the fresh spill
}

TEST(ScenarioCachePersist, StrictModeRefusesACorruptSpill) {
  const std::string dir = cache_dir("strict");
  const ScenarioSpec spec = spec_of(22);
  {
    ScenarioCache cache(4, dir);
    (void)cache.acquire(spec);
  }
  const std::string path = artifact_path(dir, spec);
  std::string text = slurp(path);
  text[text.size() - 3] ^= 0x01;  // inside the last record's CRC
  dump(path, text);

  ScenarioCache cache(4, dir);
  EXPECT_THROW((void)cache.acquire(spec, /*strict=*/true), CacheCorruptError);
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_FALSE(std::filesystem::exists(path));  // quarantined, not served
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"));
  // With the carcass out of the way the next strict acquire is a plain
  // cold build — strict mode refuses corruption, not cold misses.
  (void)cache.acquire(spec, /*strict=*/true);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.spills, 1u);
}

TEST(ScenarioCachePersist, ForeignJournalIsQuarantinedNotReplayed) {
  const std::string dir = cache_dir("foreign");
  const ScenarioSpec spec = spec_of(23);
  const std::string path = artifact_path(dir, spec);
  {
    // A CRC-valid WAL under the wrong fingerprint — say a stray drain
    // checkpoint dropped into the cache directory.  Its records must
    // never be interpreted as node means.
    WalWriter wal(path, 0xDEADBEEFULL);
    wal.append("0123456789abcdef");
  }
  ScenarioCache cache(4, dir);
  (void)cache.acquire(spec);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"));
}

TEST(ScenarioCachePersist, TruncatedSpillFailsTheNodeCountCheck) {
  const std::string dir = cache_dir("trunc");
  const ScenarioSpec spec = spec_of(24);  // 8 nodes -> 8 records
  {
    ScenarioCache cache(4, dir);
    (void)cache.acquire(spec);
  }
  const std::string path = artifact_path(dir, spec);
  // Drop the last three record lines cleanly (no tear, valid CRCs) — the
  // node-count revalidation must still refuse the artifact.
  std::string text = slurp(path);
  for (int lines = 0; lines < 3; ++lines) {
    text.erase(text.rfind('\n', text.size() - 2) + 1);
  }
  dump(path, text);

  ScenarioCache cache(4, dir);
  (void)cache.acquire(spec);
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ScenarioCachePersist, GarbageFileIsQuarantinedNotFatal) {
  const std::string dir = cache_dir("garbage");
  const ScenarioSpec spec = spec_of(25);
  dump(artifact_path(dir, spec), "t_s,power_w\n0,100\n");  // not a journal
  ScenarioCache cache(4, dir);
  const auto artifact = cache.acquire(spec);
  ASSERT_NE(artifact, nullptr);
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ScenarioCachePersist, UnwritableDirectoryDegradesToMemoryOnly) {
  // A bogus cache dir must not fail requests: the spill is best-effort
  // and the probe treats the unreadable path as a cold miss.
  ScenarioCache cache(4, "/nonexistent/powervar/cache");
  const auto artifact = cache.acquire(spec_of(26));
  ASSERT_NE(artifact, nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.spills, 0u);
  EXPECT_EQ(stats.disk_hits, 0u);
}

}  // namespace
}  // namespace pv
