// The perf gate (bench/bench_perf_gate.hpp) on synthetic documents:
// a clean pair passes, every hard contract and soft floor fails by
// row name, and a baseline that lacks a row or a gated ratio fails
// instead of skipping it.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_perf_gate.hpp"

namespace pv {
namespace {

using bench::contract_failures;
using bench::gate_failures;
using bench::kPerfRows;

// A fresh document that meets every contract with room to spare: flags
// true, counts exact in three reps, values at half their ceiling, ratios
// at 10x.
Json clean_doc() {
  Json doc = Json::object();
  doc["schema"] = bench::kPerfSchema;
  doc["scenarios"] = Json::object();
  for (const bench::PerfRow& row : kPerfRows) {
    Json e = Json::object();
    for (const char* key : row.must_hold) e[key] = true;
    for (const bench::Limit& l : row.exact) {
      e[l.key] = Json::array();
      for (int rep = 0; rep < 3; ++rep) e[l.key].push_back(l.value);
    }
    for (const bench::Limit& l : row.ceiling) e[l.key] = l.value / 2;
    for (const char* key : row.gated) e[key] = 10.0;
    doc["scenarios"][row.name] = e;
  }
  return doc;
}

Json& entry(Json& doc, const std::string& row) {
  return doc["scenarios"][row];
}

// `obj` without member `key` (Json has no erase).
Json without(const Json& obj, const std::string& key) {
  Json out = Json::object();
  for (const auto& [k, v] : obj.members()) {
    if (k != key) out[k] = v;
  }
  return out;
}

bool names_row(const std::vector<std::string>& failures,
               const std::string& row) {
  for (const std::string& f : failures) {
    if (f.rfind(row + ": ", 0) == 0) return true;
  }
  return false;
}

TEST(PerfGate, CleanPairPasses) {
  const Json fresh = clean_doc();
  EXPECT_TRUE(contract_failures(fresh).empty());
  EXPECT_TRUE(gate_failures(fresh, clean_doc(), 0.5).empty());
}

TEST(PerfGate, IdentityFalseFailsItsRow) {
  for (const char* row :
       {"rss_flat", "l1_pdu", "l3_pdu", "l3_perfect", "l3_reconcile",
        "async_collect", "fleet1k_l1", "fleet10k_l1", "fleet10k_l1_pdu",
        "fleet100k_l3"}) {
    Json fresh = clean_doc();
    entry(fresh, row)["identical"] = false;
    const auto failures = contract_failures(fresh);
    EXPECT_EQ(failures.size(), 1u) << row;
    EXPECT_TRUE(names_row(failures, row)) << row;
  }
}

TEST(PerfGate, NonOkResponseFailsItsRow) {
  for (const char* row :
       {"service_cold", "service_warm", "service_restart_warm"}) {
    Json fresh = clean_doc();
    entry(fresh, row)["all_ok"] = false;
    EXPECT_TRUE(names_row(contract_failures(fresh), row)) << row;
  }
}

// The gated ratios, by row: @1 and @8 at 240 nodes, @1 on the fleet,
// and the cache's warm-over-cold.
const std::vector<std::pair<std::string, std::string>> kGated = {
    {"service_warm", "warm_over_cold"},
    {"l1_pdu", "speedup_1t"},       {"l1_pdu", "speedup_8t"},
    {"l3_pdu", "speedup_1t"},       {"l3_pdu", "speedup_8t"},
    {"l3_perfect", "speedup_1t"},   {"l3_perfect", "speedup_8t"},
    {"l3_reconcile", "speedup_1t"}, {"l3_reconcile", "speedup_8t"},
    {"fleet1k_l1", "speedup_1t"},   {"fleet10k_l1", "speedup_1t"},
    {"fleet10k_l1_pdu", "speedup_1t"},
};

TEST(PerfGate, RatioBelowOneFailsEvenUnderALowBaseline) {
  for (const auto& [row, key] : kGated) {
    Json fresh = clean_doc();
    Json base = clean_doc();
    entry(fresh, row)[key] = 0.99;
    entry(base, row)[key] = 1.0;  // soft floor 0.5: only the hard one bites
    const auto failures = gate_failures(fresh, base, 0.5);
    EXPECT_EQ(failures.size(), 1u) << row << " " << key;
    EXPECT_TRUE(names_row(failures, row)) << row << " " << key;
  }
}

TEST(PerfGate, RssGrowthAboveSixteenMbFails) {
  Json fresh = clean_doc();
  entry(fresh, "rss_flat")["growth_mb"] = 16.0;
  EXPECT_TRUE(contract_failures(fresh).empty());
  entry(fresh, "rss_flat")["growth_mb"] = 16.01;
  EXPECT_TRUE(names_row(contract_failures(fresh), "rss_flat"));
}

TEST(PerfGate, FleetRssAbove1024MbFails) {
  Json fresh = clean_doc();
  entry(fresh, "fleet100k_l3")["peak_rss_mb"] = 1024.0;
  EXPECT_TRUE(contract_failures(fresh).empty());
  entry(fresh, "fleet100k_l3")["peak_rss_mb"] = 1024.5;
  EXPECT_TRUE(names_row(contract_failures(fresh), "fleet100k_l3"));
}

TEST(PerfGate, NanFailsCeilingsAndRatios) {
  Json fresh = clean_doc();
  entry(fresh, "rss_flat")["growth_mb"] = std::nan("");
  entry(fresh, "l3_pdu")["speedup_1t"] = std::nan("");
  const auto failures = gate_failures(fresh, clean_doc(), 0.5);
  EXPECT_TRUE(names_row(failures, "rss_flat"));
  EXPECT_TRUE(names_row(failures, "l3_pdu"));
}

// The exact cache counts, by row: cold misses once per request, warm
// once per batch, and a restarted service loads the spill once and
// builds nothing.
const std::vector<std::tuple<std::string, std::string, double>> kCounts = {
    {"service_cold", "cache_hits", 0},
    {"service_cold", "cache_misses", 12},
    {"service_warm", "cache_hits", 11},
    {"service_warm", "cache_misses", 1},
    {"service_restart_warm", "warmup_misses", 1},
    {"service_restart_warm", "warmup_spills", 1},
    {"service_restart_warm", "cache_hits", 11},
    {"service_restart_warm", "cache_misses", 0},
    {"service_restart_warm", "cache_disk_hits", 1},
    {"service_restart_warm", "cache_spills", 0},
};

TEST(PerfGate, OffByOneCacheCountInAnyRepFails) {
  for (const auto& [row, key, want] : kCounts) {
    Json fresh = clean_doc();
    EXPECT_EQ(entry(fresh, row)[key].items().at(1).number_value(), want)
        << row << " " << key;
    Json reps = Json::array();
    for (const double v : {want, want + 1, want}) reps.push_back(v);
    entry(fresh, row)[key] = reps;
    const auto failures = contract_failures(fresh);
    EXPECT_EQ(failures.size(), 1u) << row << " " << key;
    EXPECT_TRUE(names_row(failures, row)) << row << " " << key;
  }
}

TEST(PerfGate, MissingCountsFail) {
  Json fresh = clean_doc();
  entry(fresh, "service_warm")["cache_misses"] = Json::array();
  entry(fresh, "service_cold") =
      without(entry(fresh, "service_cold"), "cache_misses");
  const auto failures = contract_failures(fresh);
  EXPECT_TRUE(names_row(failures, "service_warm"));
  EXPECT_TRUE(names_row(failures, "service_cold"));
}

TEST(PerfGate, SoftFloorIsAllowanceTimesBaseline) {
  Json base = clean_doc();
  entry(base, "l3_pdu")["speedup_1t"] = 20.0;  // floor 10 at allowance 0.5
  Json fresh = clean_doc();
  entry(fresh, "l3_pdu")["speedup_1t"] = 9.99;
  const auto failures = gate_failures(fresh, base, 0.5);
  EXPECT_EQ(failures.size(), 1u);
  EXPECT_TRUE(names_row(failures, "l3_pdu"));
  entry(fresh, "l3_pdu")["speedup_1t"] = 10.01;
  EXPECT_TRUE(gate_failures(fresh, base, 0.5).empty());
  // The allowance scales the floor: 9.99 passes at 0.4.
  entry(fresh, "l3_pdu")["speedup_1t"] = 9.99;
  EXPECT_TRUE(gate_failures(fresh, base, 0.4).empty());
}

TEST(PerfGate, EveryGatedRatioHasASoftFloor) {
  for (const auto& [row, key] : kGated) {
    Json base = clean_doc();
    entry(base, row)[key] = 100.0;  // floor 50 > the fresh 10
    const auto failures = gate_failures(clean_doc(), base, 0.5);
    EXPECT_EQ(failures.size(), 1u) << row << " " << key;
    EXPECT_TRUE(names_row(failures, row)) << row << " " << key;
  }
}

TEST(PerfGate, GatedRatioMissingFromTheBaselineFails) {
  for (const auto& [row, key] : kGated) {
    Json base = clean_doc();
    entry(base, row) = without(entry(base, row), key);
    const auto failures = gate_failures(clean_doc(), base, 0.5);
    EXPECT_EQ(failures.size(), 1u) << row << " " << key;
    EXPECT_TRUE(names_row(failures, row)) << row << " " << key;
  }
}

TEST(PerfGate, RowMissingFromTheBaselineFails) {
  for (const bench::PerfRow& row : kPerfRows) {
    Json base = clean_doc();
    base["scenarios"] = without(base["scenarios"], row.name);
    const auto failures = gate_failures(clean_doc(), base, 0.5);
    EXPECT_EQ(failures.size(), 1u) << row.name;
    EXPECT_TRUE(names_row(failures, row.name)) << row.name;
  }
}

TEST(PerfGate, RowOrRatioMissingFromTheFreshRunFails) {
  Json fresh = clean_doc();
  fresh["scenarios"] = without(fresh["scenarios"], "async_collect");
  entry(fresh, "fleet10k_l1") =
      without(entry(fresh, "fleet10k_l1"), "speedup_1t");
  const auto failures = gate_failures(fresh, clean_doc(), 0.5);
  EXPECT_EQ(failures.size(), 2u);
  EXPECT_TRUE(names_row(failures, "async_collect"));
  EXPECT_TRUE(names_row(failures, "fleet10k_l1"));
}

TEST(PerfGate, ForeignSchemaFails) {
  Json old = clean_doc();
  old["schema"] = "powervar-bench-perf-v1";
  EXPECT_EQ(contract_failures(old).size(), 1u);
  EXPECT_EQ(gate_failures(clean_doc(), old, 0.5).size(), 1u);
  EXPECT_EQ(gate_failures(clean_doc(), Json(), 0.5).size(), 1u);
}

}  // namespace
}  // namespace pv
