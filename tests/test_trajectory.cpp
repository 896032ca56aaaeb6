// The committed perf trajectory: BENCH_trajectory.json at the repository
// root holds one record per perf-moving change, so a reader sees a trend
// instead of one snapshot.  These tests keep every record complete
// and every number in it finite.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/doc.hpp"

namespace pv {
namespace {

constexpr const char* kWorkloads[] = {"campaign_clean", "service_mix"};
/// BENCHMARK.json's end-to-end metrics, plus the run's measured
/// effective parallelism and the number of runs the values summarize.
constexpr const char* kWorkloadKeys[] = {
    "samples_per_s", "campaigns_per_s", "latency_p50_ms", "latency_tail_ms",
    "setup_s",       "peak_rss_mb",     "effective_parallelism", "runs"};
constexpr const char* kLayerKeys[] = {
    "meter.ns_per_sample", "meter.faulted_ns_per_sample", "reconcile.ms"};

/// Every problem with `doc` as a trajectory: a missing key, a value of
/// the wrong type or a non-finite number.  Empty when it is complete.
std::vector<std::string> trajectory_problems(const Json& doc) {
  std::vector<std::string> problems;
  const auto number = [&problems](const Json& parent, const std::string& key,
                                  const std::string& where) {
    const Json* v = parent.find(key);
    if (v == nullptr) {
      problems.push_back(where + ": missing " + key);
    } else if (!v->is_number() || !std::isfinite(v->number_value())) {
      problems.push_back(where + ": " + key + " is not a finite number");
    }
  };
  const auto object = [&problems](const Json& parent, const std::string& key,
                                  const std::string& where) -> const Json* {
    const Json* v = parent.find(key);
    if (v == nullptr || v->kind() != Json::Kind::kObject) {
      problems.push_back(where + ": missing object " + key);
      return nullptr;
    }
    return v;
  };
  const Json* schema = doc.find("schema");
  if (schema == nullptr || schema->kind() != Json::Kind::kString ||
      schema->string_value() != "powervar-bench-trajectory-v1") {
    problems.push_back("schema is not powervar-bench-trajectory-v1");
  }
  const Json* records = doc.find("records");
  if (records == nullptr || records->kind() != Json::Kind::kArray ||
      records->size() == 0) {
    problems.push_back("records: missing or empty");
    return problems;
  }
  for (std::size_t r = 0; r < records->size(); ++r) {
    const Json& record = records->items()[r];
    const std::string where = "record " + std::to_string(r);
    for (const char* key : {"change", "commit", "source_digest"}) {
      const Json* v = record.find(key);
      if (v == nullptr || v->kind() != Json::Kind::kString ||
          v->string_value().empty()) {
        problems.push_back(where + ": missing " + key);
      }
    }
    number(record, "seed", where);
    number(record, "run_seconds", where);
    if (const Json* workloads = object(record, "workloads", where)) {
      for (const char* w : kWorkloads) {
        const std::string at = where + " " + w;
        if (const Json* block = object(*workloads, w, where)) {
          for (const char* key : kWorkloadKeys) number(*block, key, at);
        }
      }
    }
    if (const Json* layers = object(record, "layers", where)) {
      for (const char* key : kLayerKeys) number(*layers, key, where);
    }
  }
  return problems;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(BenchTrajectory, CommittedRecordsAreCompleteAndFinite) {
  const std::string text =
      read_file(std::string(PV_SOURCE_DIR) + "/BENCH_trajectory.json");
  ASSERT_FALSE(text.empty()) << "BENCH_trajectory.json missing or empty";
  const Json doc = Json::parse(text);
  for (const std::string& p : trajectory_problems(doc)) ADD_FAILURE() << p;
  // A trajectory needs at least a before and an after.
  ASSERT_NE(doc.find("records"), nullptr);
  EXPECT_GE(doc.find("records")->size(), 2u);
}

TEST(BenchTrajectory, MissingKeysAndNonFiniteValuesAreCaught) {
  const std::string complete = R"({
    "schema": "powervar-bench-trajectory-v1",
    "records": [{
      "change": "c", "commit": "abc", "source_digest": "d",
      "seed": 1, "run_seconds": 40,
      "workloads": {
        "campaign_clean": {"samples_per_s": 1, "campaigns_per_s": 1,
          "latency_p50_ms": 1, "latency_tail_ms": 1, "setup_s": 1,
          "peak_rss_mb": 1, "effective_parallelism": 1, "runs": 1},
        "service_mix": {"samples_per_s": 1, "campaigns_per_s": 1,
          "latency_p50_ms": 1, "latency_tail_ms": 1, "setup_s": 1,
          "peak_rss_mb": 1, "effective_parallelism": 1, "runs": 1}},
      "layers": {"meter.ns_per_sample": 1,
                 "meter.faulted_ns_per_sample": 1, "reconcile.ms": 1}}]})";
  EXPECT_TRUE(trajectory_problems(Json::parse(complete)).empty());

  // True when the edited text is refused, by the parser (a number that
  // overflows to infinity) or by the checker.
  const auto caught = [&complete](const std::string& from,
                                  const std::string& to) {
    std::string text = complete;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    try {
      return !trajectory_problems(Json::parse(text)).empty();
    } catch (const JsonParseError&) {
      return true;
    }
  };
  EXPECT_TRUE(caught("\"setup_s\": 1,", ""));
  EXPECT_TRUE(caught("\"reconcile.ms\": 1", "\"reconcile.ms\": null"));
  EXPECT_TRUE(caught("\"peak_rss_mb\": 1", "\"peak_rss_mb\": 1e999"));
  EXPECT_TRUE(caught("\"commit\": \"abc\",", ""));
  EXPECT_TRUE(caught("\"seed\": 1,", "\"seed\": \"1\","));
  EXPECT_TRUE(caught("\"service_mix\"", "\"service_max\""));
}

}  // namespace
}  // namespace pv
