// bench_perf: the in-tree perf gate.  Times every row of the end-to-end
// perf harness, writes the results to BENCH_perf.json in the working
// directory (schema powervar-bench-perf-v2) and checks each row's
// contract from bench_perf_gate.hpp.  Rows, in run order:
//
//   rss_flat        240 nodes, live, 150 vs 1500 min: the 10x-longer
//                   campaign grows the peak RSS by at most 16 MB, and its
//                   live report equals the batch one.  Runs first:
//                   ru_maxrss is a monotone high-watermark;
//   service_cold, service_warm, service_restart_warm
//                   12 requests of 240 nodes on 4 workers, through a
//                   cold cache, a warm one, and a fresh service warm only
//                   through its spill directory: exact cache counts, every
//                   response ok, warm_over_cold (cold / warm batch) gated;
//   l1_pdu, l3_pdu, l3_perfect, l3_reconcile
//                   240 nodes, 5 s interval: the eager reference Meter
//                   stage @1 against the engine @1 and @8; byte-identity,
//                   speedup_1t and speedup_8t gated;
//   async_collect   240 nodes, L3, the collector at threads 1 (polling
//                   inline) vs 8 (on the shared pool): byte-identity;
//   fleet1k_l1, fleet10k_l1, fleet10k_l1_pdu
//                   1 s interval, so the window kernels outweigh the fixed
//                   provisioning: reference @1 against the engine @1 and
//                   @8; byte-identity, speedup_1t gated;
//   fleet100k_l3    100k nodes, L3, 30 s, engine only, one rep: peak RSS
//                   at most 1024 MB, @1 == @8.  Runs last: its watermark
//                   would otherwise be every later row's peak_rss_mb.
//
// Usage: bench_perf [baseline.json]
//   Without an argument only the hard contracts are checked.  Given the
//   committed baseline (ctest perf_regression_gate passes
//   bench/BENCH_perf_baseline.json), every gated ratio must also reach
//   PV_PERF_ALLOWANCE (default 0.5) times its baseline value.  Exit 1
//   lists every failed contract; exit 2 means a bad argument or baseline,
//   or an unwritable BENCH_perf.json.
//   PV_PERF_REPS (default 5) sets the best-of reps per variant (four
//   times as many for the short service batches).  The three service
//   rows take their reps in turn, so both halves of warm_over_cold see
//   the same host load.
//   docs/performance.md describes the schema and the baseline update.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_perf_gate.hpp"
#include "collect/collector.hpp"
#include "core/campaign.hpp"
#include "core/plan.hpp"
#include "core/scenario.hpp"
#include "service/request.hpp"
#include "service/service.hpp"
#include "sim/streaming.hpp"

namespace {

using namespace pv;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Rig {
  std::unique_ptr<ClusterPowerModel> cluster;
  std::unique_ptr<SystemPowerModel> electrical;
  MeasurementPlan plan;
};

Rig make_rig(std::size_t nodes, Level level, double run_minutes = 30.0) {
  ScenarioSpec spec;
  spec.name = "perf-rig";
  spec.nodes = nodes;
  spec.cv = 0.03;
  spec.fleet_seed = 7;
  spec.run_minutes = run_minutes;
  Scenario built = build_scenario(spec);
  Rig rig;
  rig.cluster = std::move(built.cluster);
  rig.electrical = std::move(built.electrical);
  rig.plan = built.plan(MethodologySpec::get(level, Revision::kV2015), 11);
  return rig;
}

// Metered samples across the whole cohort for a plan at `interval`.
std::size_t planned_samples(const Rig& rig, Seconds interval) {
  std::size_t per_node = 0;
  for (const TimeWindow& w : metered_windows(rig.plan, interval)) {
    per_node += window_sample_count(w, interval);
  }
  return per_node * rig.plan.node_count();
}

// A row's contract as JSON, so the document carries its limits.  The
// gate reads them from kPerfRows, never from a document.
Json contract_json(const bench::PerfRow& row) {
  const auto limits = [](const std::vector<bench::Limit>& list) {
    Json values = Json::object();
    for (const bench::Limit& l : list) values[l.key] = l.value;
    return values;
  };
  std::vector<bench::Limit> floors;
  for (const char* key : row.gated) floors.push_back({key, bench::kRatioFloor});
  Json c = Json::object();
  c["must_hold"] = Json::array();
  for (const char* key : row.must_hold) c["must_hold"].push_back(key);
  if (!row.exact.empty()) c["exact"] = limits(row.exact);
  if (!row.ceiling.empty()) c["ceiling"] = limits(row.ceiling);
  if (!floors.empty()) c["gated"] = limits(floors);
  return c;
}

void add_row(Json& doc, const std::string& name, Json entry) {
  for (const bench::PerfRow& row : bench::kPerfRows) {
    if (name == row.name) entry["contract"] = contract_json(row);
  }
  doc["scenarios"][name] = std::move(entry);
}

// ---- rss_flat ---------------------------------------------------------

// Node-tap metering is bounded-memory: the peak RSS of a live campaign
// (window ring and sketch included) is flat in campaign length.  Both
// rigs are built up front, so the two watermark readings differ only by
// what the long run itself allocated.
Json run_rss_flat() {
  const Seconds interval{1.0};
  const Rig rig_short = make_rig(240, Level::kL3, 150.0);
  const Rig rig_long = make_rig(240, Level::kL3, 1500.0);

  CampaignConfig cfg;
  cfg.seed = 5;
  cfg.meter_interval_override = interval;
  cfg.live.enabled = true;  // the chunk-stepped live loop, partials dropped
  cfg.live_sink = [](const std::string&) {};

  (void)run_campaign(*rig_short.cluster, *rig_short.electrical,
                     rig_short.plan, cfg);
  const double rss_short = bench::peak_rss_mb();
  const CampaignResult live_long = run_campaign(
      *rig_long.cluster, *rig_long.electrical, rig_long.plan, cfg);
  const double rss_long = bench::peak_rss_mb();

  // The batch shape must report the live run's exact bytes (it runs
  // after both watermark reads).
  CampaignConfig batch = cfg;
  batch.live.enabled = false;
  batch.live_sink = nullptr;
  const CampaignResult batch_long = run_campaign(
      *rig_long.cluster, *rig_long.electrical, rig_long.plan, batch);

  Json r = Json::object();
  r["samples_short"] = planned_samples(rig_short, interval);
  r["samples_long"] = planned_samples(rig_long, interval);
  r["rss_short_mb"] = rss_short;
  r["rss_long_mb"] = rss_long;
  r["growth_mb"] = rss_long - rss_short;
  r["identical"] = bench::identical_reports(live_long, batch_long);
  return r;
}

// ---- service rows -----------------------------------------------------

constexpr std::size_t kServiceRepsPerRep = 4;

// Cold requests carry distinct seeds, hence distinct scenario
// fingerprints, so each one provisions; warm ones share one.
ServiceRequest make_request(bool cold, std::size_t i) {
  ServiceRequest req;
  req.id = (cold ? "cold-" : "warm-") + std::to_string(i);
  req.nodes = 240;
  req.seed = cold ? 1000 + i : 1000;
  req.interval_s = 10.0;
  return req;
}

// Submits `requests` requests and waits for every response: the timed
// loop of each service row.  Clears `all_ok` on a shed or non-ok answer.
double submit_and_wait(CampaignService& service, bool cold,
                       std::size_t requests, bool& all_ok) {
  const auto t0 = Clock::now();
  std::vector<std::size_t> tickets;
  for (std::size_t i = 0; i < requests; ++i) {
    const AdmissionVerdict verdict = service.submit(make_request(cold, i));
    if (verdict.decision == Admission::kShed) all_ok = false;
    tickets.push_back(verdict.ticket);
  }
  for (const std::size_t ticket : tickets) {
    if (service.wait(ticket).code != ResponseCode::kOk) all_ok = false;
  }
  return ms_since(t0);
}

// One service row, best of its reps, a fresh service per rep so the cache
// starts cold inside the timed window.  Single-flight accounting makes
// the cache counts exact under any interleaving; each rep's are kept.
// `restart`: an untimed first life spills the shared scenario to a cache
// directory, and the timed service is warm only through that directory.
class ServiceRow {
 public:
  ServiceRow(bool cold, bool restart) : cold_(cold), restart_(restart) {}

  void run_rep() {
    namespace fs = std::filesystem;
    // Named after the process, so runs side by side keep their own spill.
    const fs::path dir =
        fs::temp_directory_path() /
        ("pv_bench_perf_cache." + std::to_string(::getpid()));
    ServiceConfig config;
    config.workers = 4;
    config.max_queue = kRequests;
    config.cache_capacity = kRequests;  // no capacity-eviction noise
    if (restart_) {
      std::error_code ec;
      fs::remove_all(dir, ec);
      fs::create_directories(dir, ec);
      config.cache_dir = dir.string();
      CampaignService first_life(config);
      submit_and_wait(first_life, false, 1, all_ok_);
      const CacheStats spilled = first_life.drain().cache;
      record("warmup_misses", spilled.misses);
      record("warmup_spills", spilled.spills);
    }
    {
      CampaignService service(config);
      best_ms_ = std::min(best_ms_,
                          submit_and_wait(service, cold_, kRequests, all_ok_));
      const CacheStats cache = service.drain().cache;
      record("cache_hits", cache.hits);
      record("cache_misses", cache.misses);
      record("cache_disk_hits", cache.disk_hits);
      record("cache_spills", cache.spills);
    }
    if (restart_) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  }

  [[nodiscard]] double best_ms() const { return best_ms_; }

  [[nodiscard]] Json result() const {
    Json r = Json::object();
    r["requests"] = kRequests;
    r["best_ms"] = best_ms_;
    r["campaigns_per_sec"] =
        static_cast<double>(kRequests) / (best_ms_ / 1e3);
    for (const auto& [key, values] : counts_.members()) r[key] = values;
    r["all_ok"] = all_ok_;
    return r;
  }

 private:
  static constexpr std::size_t kRequests = bench::kServiceRequests;

  void record(const char* key, std::size_t v) {
    if (counts_.find(key) == nullptr) counts_[key] = Json::array();
    counts_[key].push_back(v);
  }

  bool cold_;
  bool restart_;
  bool all_ok_ = true;
  double best_ms_ = 1e300;
  Json counts_ = Json::object();
};

// ---- campaign and fleet rows -------------------------------------------

struct Row {
  const char* name;
  std::size_t nodes;
  Level level;
  MeterAccuracy acc;
  double interval_s;
  bool reference = true;  ///< also time the eager reference Meter stage @1
  bool reconcile = false;
  bool collect = false;   ///< the async collector; threads are pollers
  std::size_t reps = 0;   ///< 0: PV_PERF_REPS
};

const Row kRows[] = {
    {.name = "l1_pdu", .nodes = 240, .level = Level::kL1,
     .acc = MeterAccuracy::pdu_grade(), .interval_s = 5.0},
    {.name = "l3_pdu", .nodes = 240, .level = Level::kL3,
     .acc = MeterAccuracy::pdu_grade(), .interval_s = 5.0},
    // Perfect meters isolate the kernels from the noise draw.
    {.name = "l3_perfect", .nodes = 240, .level = Level::kL3,
     .acc = MeterAccuracy::perfect(), .interval_s = 5.0},
    {.name = "l3_reconcile", .nodes = 240, .level = Level::kL3,
     .acc = MeterAccuracy::pdu_grade(), .interval_s = 5.0,
     .reconcile = true},
    // No eager reference exists for the collector.
    {.name = "async_collect", .nodes = 240, .level = Level::kL3,
     .acc = MeterAccuracy::pdu_grade(), .interval_s = 5.0,
     .reference = false, .collect = true},
    {.name = "fleet1k_l1", .nodes = 1000, .level = Level::kL1,
     .acc = MeterAccuracy::perfect(), .interval_s = 1.0},
    {.name = "fleet10k_l1", .nodes = 10000, .level = Level::kL1,
     .acc = MeterAccuracy::perfect(), .interval_s = 1.0},
    {.name = "fleet10k_l1_pdu", .nodes = 10000, .level = Level::kL1,
     .acc = MeterAccuracy::pdu_grade(), .interval_s = 1.0},
    // The reference would take about 3 s here, dominated by its direct
    // ground-truth integral.
    {.name = "fleet100k_l3", .nodes = 100000, .level = Level::kL3,
     .acc = MeterAccuracy::perfect(), .interval_s = 30.0,
     .reference = false, .reps = 1},
};

struct Timed {
  CampaignResult result;
  double best_ms = 1e300;
};

// Best-of-`reps` wall time of `run`, with its last result.
template <class Run>
Timed best_of(std::size_t reps, const Run& run) {
  Timed t;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    CampaignResult res = run();
    t.best_ms = std::min(t.best_ms, ms_since(t0));
    t.result = std::move(res);
  }
  return t;
}

Json run_row(const Row& row, std::size_t default_reps) {
  const std::size_t reps = row.reps > 0 ? row.reps : default_reps;
  const Rig rig = make_rig(row.nodes, row.level);
  CampaignConfig base;
  base.seed = 5;
  base.meter_accuracy = row.acc;
  base.meter_interval_override = Seconds{row.interval_s};
  base.reconcile.enabled = row.reconcile;

  // One run of the row: the engine (or the collector) on `threads`, or
  // the eager reference.
  const auto run = [&](unsigned threads, bool reference) {
    if (row.collect) {
      CollectorConfig cfg;
      cfg.campaign = base;
      cfg.threads = threads;
      return collect_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg)
          .result;
    }
    CampaignConfig cfg = base;
    cfg.threads = threads;
    return reference ? bench::run_reference_campaign(
                           *rig.cluster, *rig.electrical, rig.plan, cfg)
                     : run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                                    cfg);
  };

  Json r = Json::object();
  r["nodes"] = row.nodes;
  const std::size_t samples = planned_samples(rig, Seconds{row.interval_s});
  r["samples"] = samples;
  Timed ref;
  if (row.reference) ref = best_of(reps, [&] { return run(1, true); });
  const Timed e1 = best_of(reps, [&] { return run(1, false); });
  const Timed e8 = best_of(reps, [&] { return run(8, false); });
  bool identical = bench::identical_reports(e1.result, e8.result);
  if (row.reference) {
    identical = identical && bench::identical_reports(ref.result, e1.result);
    r["ref1_ms"] = ref.best_ms;
  }
  r["eng1_ms"] = e1.best_ms;
  r["eng8_ms"] = e8.best_ms;
  if (row.reference) {
    r["speedup_1t"] = ref.best_ms / e1.best_ms;
    r["speedup_8t"] = ref.best_ms / e8.best_ms;
  }
  r["samples_per_sec"] = static_cast<double>(samples) / (e1.best_ms / 1e3);
  r["peak_rss_mb"] = bench::peak_rss_mb();
  r["identical"] = identical;
  return r;
}

// ---- output -------------------------------------------------------------

// Indented JSON with every container of scalars on one line, doubles
// to 6 significant digits: a baseline stays readable and diffs by line.
void write_pretty(std::ostream& out, const Json& v, const std::string& pad) {
  const bool object = v.kind() == Json::Kind::kObject;
  if (!object && v.kind() != Json::Kind::kArray) {
    if (v.kind() == Json::Kind::kNumber && std::isfinite(v.number_value())) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6g", v.number_value());
      out << buf;
    } else {
      out << v.dump();
    }
    return;
  }
  std::vector<std::pair<std::string, const Json*>> children;
  if (object) {
    for (const auto& [key, member] : v.members()) {
      children.emplace_back(Json::quote(key) + ": ", &member);
    }
  } else {
    for (const Json& item : v.items()) children.emplace_back("", &item);
  }
  // size() is non-zero only for a container with members or items.
  const bool flat =
      std::none_of(children.begin(), children.end(),
                   [](const auto& c) { return c.second->size() > 0; });
  const std::string inner = pad + "  ";
  out << (object ? "{" : "[");
  for (std::size_t i = 0; i < children.size(); ++i) {
    out << (i == 0 ? "" : ",") << (flat ? (i == 0 ? "" : " ") : "\n" + inner)
        << children[i].first;
    write_pretty(out, *children[i].second, inner);
  }
  if (!flat) out << "\n" << pad;
  out << (object ? "}" : "]");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2) {
    std::cerr << "usage: bench_perf [baseline.json]\n";
    return 2;
  }
  Json baseline;
  if (argc == 2) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "bench_perf: cannot read baseline " << argv[1] << "\n";
      return 2;
    }
    std::stringstream text;
    text << in.rdbuf();
    try {
      baseline = Json::parse(text.str());
    } catch (const JsonParseError& e) {
      std::cerr << "bench_perf: baseline " << argv[1] << ": " << e.what()
                << "\n";
      return 2;
    }
  }
  const char* allowance_env = std::getenv("PV_PERF_ALLOWANCE");
  char* end = nullptr;
  const double allowance =
      allowance_env != nullptr && *allowance_env != '\0'
          ? std::strtod(allowance_env, &end)
          : 0.5;
  if (end != nullptr && (*end != '\0' || !(allowance >= 0.0))) {
    std::cerr << "bench_perf: PV_PERF_ALLOWANCE must be a number >= 0\n";
    return 2;
  }
  const std::size_t reps = bench::env_size("PV_PERF_REPS", 5);

  bench::banner("perf", "end-to-end perf rows and their contracts");
  Json doc = Json::object();
  doc["schema"] = bench::kPerfSchema;
  doc["reps"] = reps;
  doc["scenarios"] = Json::object();
  add_row(doc, "rss_flat", run_rss_flat());
  // The service rows take their reps in turn, so a host that turns busy
  // part way through slows cold and warm alike.  A batch lasts 1-2 ms,
  // and on a busy host the best of a few such batches is decided by
  // which ones catch a quiet moment, so the service rows take
  // kServiceRepsPerRep times as many reps as the rows that last tens of
  // milliseconds.
  ServiceRow cold(/*cold=*/true, /*restart=*/false);
  ServiceRow warm(false, false);
  ServiceRow restart_warm(false, true);
  for (std::size_t rep = 0; rep < kServiceRepsPerRep * reps; ++rep) {
    cold.run_rep();
    warm.run_rep();
    restart_warm.run_rep();
  }
  Json warm_row = warm.result();
  warm_row["warm_over_cold"] = cold.best_ms() / warm.best_ms();
  add_row(doc, "service_cold", cold.result());
  add_row(doc, "service_warm", std::move(warm_row));
  add_row(doc, "service_restart_warm", restart_warm.result());
  for (const Row& row : kRows) add_row(doc, row.name, run_row(row, reps));

  std::ostringstream pretty;
  write_pretty(pretty, doc, "");
  pretty << "\n";
  std::cout << pretty.str();
  std::ofstream file("BENCH_perf.json");
  file << pretty.str();
  if (!file) {
    std::cerr << "bench_perf: cannot write BENCH_perf.json\n";
    return 2;
  }
  std::cout << "wrote BENCH_perf.json (best of " << reps
            << " reps per variant)\n";

  const std::vector<std::string> failures =
      argc == 2 ? bench::gate_failures(doc, baseline, allowance)
                : bench::contract_failures(doc);
  for (const std::string& f : failures) std::cout << "FAILED " << f << "\n";
  if (!failures.empty()) return 1;
  std::cout << (argc == 2 ? "all contracts hold, every gated ratio within "
                            "allowance of the baseline\n"
                          : "all hard contracts hold\n");
  return 0;
}
