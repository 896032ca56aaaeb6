#pragma once
// The perf gate of bench_perf as a pure function: a fresh
// powervar-bench-perf-v2 document (plus, for the soft floors, the
// committed baseline) in, the list of failed contracts out, each one
// prefixed with its row's name.  bench_perf.cpp runs the rows and calls
// it; tests/test_perf_gate.cpp feeds it synthetic documents.
//
// Every limit is a constant of kPerfRows below.  The gate never reads a
// limit or a gated-key list from a document: the baseline only supplies
// the ratios the soft floors scale (allowance x baseline), and a row or
// gated ratio missing from it is a failure, not a skip.

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "core/doc.hpp"

namespace pv::bench {

inline constexpr const char* kPerfSchema = "powervar-bench-perf-v2";

/// Requests per service row.
inline constexpr std::size_t kServiceRequests = 12;

/// Hard floor of every gated ratio: the fast path never loses outright.
inline constexpr double kRatioFloor = 1.0;

/// A numeric limit on one key of a row's document entry.
struct Limit {
  const char* key;
  double value;
};

/// One row of bench_perf and the contract its document entry must meet.
struct PerfRow {
  const char* name;
  std::vector<const char*> must_hold;  ///< booleans that must be true
  std::vector<Limit> exact;    ///< per-rep counts, each equal to `value`
  std::vector<Limit> ceiling;  ///< values that may not exceed `value`
  /// Ratios with the hard floor kRatioFloor and the soft floor
  /// allowance x baseline.
  std::vector<const char*> gated;
};

/// Every row of bench_perf.
inline const std::vector<PerfRow> kPerfRows = {
    // A 10x-longer live campaign may grow the RSS watermark by this much:
    // the O(windows) summaries plus allocator slack, far below what an
    // O(samples) trace would cost.
    {"rss_flat", {"identical"}, {}, {{"growth_mb", 16.0}}, {}},
    {"service_cold",
     {"all_ok"},
     {{"cache_hits", 0}, {"cache_misses", kServiceRequests}},
     {},
     {}},
    {"service_warm",
     {"all_ok"},
     {{"cache_hits", kServiceRequests - 1}, {"cache_misses", 1}},
     {},
     {"warm_over_cold"}},
    {"service_restart_warm",
     {"all_ok"},
     {{"warmup_misses", 1},
      {"warmup_spills", 1},
      {"cache_hits", kServiceRequests - 1},
      {"cache_misses", 0},
      {"cache_disk_hits", 1},
      {"cache_spills", 0}},
     {},
     {}},
    {"l1_pdu", {"identical"}, {}, {}, {"speedup_1t", "speedup_8t"}},
    {"l3_pdu", {"identical"}, {}, {}, {"speedup_1t", "speedup_8t"}},
    {"l3_perfect", {"identical"}, {}, {}, {"speedup_1t", "speedup_8t"}},
    {"l3_reconcile", {"identical"}, {}, {}, {"speedup_1t", "speedup_8t"}},
    {"async_collect", {"identical"}, {}, {}, {}},
    // Multi-thread fleet ratios are reported, not gated: on a box with
    // about one effective core they measure pool start-up, not scaling.
    {"fleet1k_l1", {"identical"}, {}, {}, {"speedup_1t"}},
    {"fleet10k_l1", {"identical"}, {}, {}, {"speedup_1t"}},
    {"fleet10k_l1_pdu", {"identical"}, {}, {}, {"speedup_1t"}},
    {"fleet100k_l3", {"identical"}, {}, {{"peak_rss_mb", 1024.0}}, {}},
};

namespace gate_detail {

inline const Json* member(const Json* obj, const std::string& key) {
  return obj != nullptr && obj->kind() == Json::Kind::kObject
             ? obj->find(key)
             : nullptr;
}

inline const Json* number(const Json* obj, const std::string& key) {
  const Json* v = member(obj, key);
  return v != nullptr && v->is_number() ? v : nullptr;
}

inline const Json* entry(const Json& doc, const char* row) {
  return member(member(&doc, "scenarios"), row);
}

inline bool has_schema(const Json& doc) {
  const Json* s = member(&doc, "schema");
  return s != nullptr && s->kind() == Json::Kind::kString &&
         s->string_value() == kPerfSchema;
}

inline std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

}  // namespace gate_detail

/// The hard contracts of `fresh`: schema, every row present, its flags
/// true, its per-rep counts exact, its ceilings held and its gated
/// ratios at least kRatioFloor.  NaN fails every one of these checks.
inline std::vector<std::string> contract_failures(const Json& fresh) {
  using namespace gate_detail;
  std::vector<std::string> out;
  if (!has_schema(fresh)) {
    out.push_back(std::string("fresh run: schema is not ") + kPerfSchema);
  }
  for (const PerfRow& row : kPerfRows) {
    const auto fail = [&](const std::string& what) {
      out.push_back(std::string(row.name) + ": " + what);
    };
    const Json* got = entry(fresh, row.name);
    if (got == nullptr) {
      fail("missing from the fresh run");
      continue;
    }
    for (const char* key : row.must_hold) {
      const Json* v = member(got, key);
      if (v == nullptr || v->kind() != Json::Kind::kBool || !v->bool_value()) {
        fail(std::string(key) + " is not true");
      }
    }
    for (const Limit& l : row.exact) {
      const Json* v = member(got, l.key);
      bool ok = v != nullptr && v->kind() == Json::Kind::kArray &&
                v->size() > 0;
      for (std::size_t i = 0; ok && i < v->size(); ++i) {
        const Json& rep = v->items()[i];
        ok = rep.is_number() && rep.number_value() == l.value;
      }
      if (!ok) {
        fail(std::string(l.key) + " = " + (v ? v->dump() : "missing") +
             ", want " + num(l.value) + " in every rep");
      }
    }
    for (const Limit& l : row.ceiling) {
      const Json* v = number(got, l.key);
      if (v == nullptr || !(v->number_value() <= l.value)) {
        fail(std::string(l.key) + " = " +
             (v ? num(v->number_value()) : "missing") + ", ceiling " +
             num(l.value));
      }
    }
    for (const char* key : row.gated) {
      const Json* v = number(got, key);
      if (v == nullptr) {
        fail(std::string(key) + " missing from the fresh run");
      } else if (!(v->number_value() >= kRatioFloor)) {
        fail(std::string(key) + " = " + num(v->number_value()) +
             "x, below the hard floor " + num(kRatioFloor) + "x");
      }
    }
  }
  return out;
}

/// contract_failures(fresh) plus the soft floors: every gated ratio at
/// least `allowance` times its value in `baseline`.
inline std::vector<std::string> gate_failures(const Json& fresh,
                                              const Json& baseline,
                                              double allowance) {
  using namespace gate_detail;
  std::vector<std::string> out = contract_failures(fresh);
  if (!has_schema(baseline)) {
    out.push_back(std::string("baseline: schema is not ") + kPerfSchema);
    return out;
  }
  for (const PerfRow& row : kPerfRows) {
    const auto fail = [&](const std::string& what) {
      out.push_back(std::string(row.name) + ": " + what);
    };
    const Json* base = entry(baseline, row.name);
    if (base == nullptr) {
      fail("missing from the baseline");
      continue;
    }
    for (const char* key : row.gated) {
      const Json* b = number(base, key);
      if (b == nullptr) {
        fail(std::string(key) + " missing from the baseline");
        continue;
      }
      const Json* g = number(entry(fresh, row.name), key);
      if (g == nullptr) continue;  // a contract failure already
      const double floor = allowance * b->number_value();
      if (g->number_value() < floor) {
        fail(std::string(key) + " = " + num(g->number_value()) +
             "x, below " + num(floor) + "x (= " + num(allowance) +
             " x baseline " + num(b->number_value()) + "x)");
      }
    }
  }
  return out;
}

}  // namespace pv::bench
