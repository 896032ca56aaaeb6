// Fleet-scale perf bench for the node-tap metering engine.
//
// Times whole campaigns at 1k / 10k / 100k nodes through the engine
// (make_node_meter_stage, the default), single-threaded and on 8 worker
// threads, and — wherever it finishes within about a second — through
// the eager reference Meter stage (make_reference_node_meter_stage,
// swapped into the default stage list, which also integrates the ground
// truth directly) single-threaded:
//
//   fleet1k_l1       1k nodes, L1, perfect meters — the smoke scale
//                    run_tier1.sh exercises in the plain tier
//                    (PV_PERF_FLEET_SMOKE=1 runs only this scenario);
//   fleet10k_l1      10k nodes, L1, perfect meters — the headline kernel
//                    ratio.  Perfect meters because the per-sample noise
//                    draw (a scalar ZIGNOR ziggurat per lane and sample)
//                    would only dilute it;
//   fleet10k_l1_pdu  10k nodes with pdu-grade meters — the realistic mix;
//   fleet100k_l3     100k nodes, every node metered, 30 s interval, one
//                    rep, no reference (about 3 s there) — the scale
//                    contract: the campaign completes and peak RSS stays
//                    under an absolute ceiling (O(nodes + chunk), never
//                    O(total samples)).
//
// check_perf.sh gates the engine-over-reference speedup at 1 thread
// wherever the reference runs.  Hard in-binary contract: every scenario
// reports byte-identical campaign results from the engine at 1 and 8
// threads, and from the reference wherever it runs — this binary exits 1
// otherwise, or when a scenario breaches its RSS ceiling.  Ratios are only *reported* here;
// tools/check_perf.sh compares them to bench/BENCH_perf_fleet_baseline.json.
//
// Env overrides: PV_PERF_REPS (3), PV_PERF_JSON (BENCH_perf_fleet.json),
// PV_PERF_FLEET_SMOKE=1 (run fleet1k_l1 only).

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/campaign.hpp"
#include "core/plan.hpp"
#include "core/scenario.hpp"
#include "util/table.hpp"

namespace {

using namespace pv;

struct Rig {
  std::unique_ptr<ClusterPowerModel> cluster;
  std::unique_ptr<SystemPowerModel> electrical;
  MeasurementPlan plan;
};

Rig make_rig(std::size_t nodes, Level level) {
  ScenarioSpec spec;
  spec.name = "fleet-perf-rig";
  spec.nodes = nodes;
  spec.cv = 0.03;
  spec.fleet_seed = 7;
  Scenario built = build_scenario(spec);
  Rig rig;
  rig.cluster = std::move(built.cluster);
  rig.electrical = std::move(built.electrical);
  rig.plan = built.plan(MethodologySpec::get(level, Revision::kV2015), 11);
  return rig;
}

std::size_t planned_samples(const Rig& rig, const MeterAccuracy& acc,
                            Seconds interval) {
  Rng probe_rng(0);
  const MeterModel probe(acc, rig.plan.meter_mode, interval, probe_rng);
  std::size_t per_node = 0;
  for (const TimeWindow& w : metered_windows(rig.plan, interval)) {
    per_node += probe.samples_in(w);
  }
  return per_node * rig.plan.node_count();
}

struct Timed {
  CampaignResult result;
  double best_ms = 0.0;
};

// `reference` times the eager reference Meter stage instead of the
// engine.
Timed run_best_of(const Rig& rig, const CampaignConfig& cfg,
                  std::size_t reps, bool reference = false) {
  Timed out;
  out.best_ms = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    CampaignResult res =
        reference ? bench::run_reference_campaign(*rig.cluster,
                                                  *rig.electrical, rig.plan,
                                                  cfg)
                  : run_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    out.best_ms = std::min(
        out.best_ms,
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    out.result = std::move(res);
  }
  return out;
}

struct FleetScenario {
  std::string name;
  std::size_t nodes = 0;
  Level level = Level::kL1;
  MeterAccuracy acc;
  double interval_s = 5.0;
  std::size_t reps = 0;          ///< 0 = the global PV_PERF_REPS
  bool reference = false;        ///< also time the eager reference
  double rss_ceiling_mb = 0.0;   ///< absolute peak-RSS cap (0 = uncapped)
};

struct FleetResult {
  FleetScenario spec;
  std::size_t samples = 0;
  double ref1_ms = 0.0;          ///< eager reference, 1 thread
  double eng1_ms = 0.0;
  double eng8_ms = 0.0;
  double speedup_ref_1t = 0.0;   ///< ref@1 / engine@1 (the gated ratio)
  double samples_per_sec = 0.0;  ///< engine@1 throughput
  double peak_rss_mb = 0.0;
  bool identical = false;
};

FleetResult run_fleet_scenario(const FleetScenario& fs,
                               std::size_t default_reps) {
  const std::size_t reps = fs.reps > 0 ? fs.reps : default_reps;
  const Rig rig = make_rig(fs.nodes, fs.level);

  CampaignConfig one;
  one.seed = 5;
  one.meter_accuracy = fs.acc;
  one.meter_interval_override = Seconds{fs.interval_s};
  CampaignConfig eight = one;
  eight.threads = 8;

  const Timed te1 = run_best_of(rig, one, reps);
  const Timed te8 = run_best_of(rig, eight, reps);

  FleetResult r;
  r.spec = fs;
  r.samples = planned_samples(rig, fs.acc, Seconds{fs.interval_s});
  r.eng1_ms = te1.best_ms;
  r.eng8_ms = te8.best_ms;
  r.samples_per_sec = static_cast<double>(r.samples) / (te1.best_ms / 1e3);
  r.identical = bench::identical_reports(te1.result, te8.result);
  if (fs.reference) {
    const Timed tr = run_best_of(rig, one, reps, /*reference=*/true);
    r.ref1_ms = tr.best_ms;
    r.speedup_ref_1t = tr.best_ms / te1.best_ms;
    r.identical =
        r.identical && bench::identical_reports(tr.result, te1.result);
  }
  r.peak_rss_mb = bench::peak_rss_mb();
  return r;
}

void write_json(const std::string& path,
                const std::vector<FleetResult>& results, std::size_t reps) {
  std::ofstream out(path);
  out.precision(6);
  out << "{\n  \"schema\": \"powervar-bench-perf-fleet-v2\",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"scenarios\": {\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const FleetResult& r = results[i];
    out << "    \"" << r.spec.name << "\": {\n"
        << "      \"nodes\": " << r.spec.nodes << ",\n"
        << "      \"samples\": " << r.samples << ",\n";
    if (r.spec.reference) {
      out << "      \"ref1_ms\": " << r.ref1_ms << ",\n"
          << "      \"speedup_ref_1t\": " << r.speedup_ref_1t << ",\n";
    }
    out << "      \"eng1_ms\": " << r.eng1_ms << ",\n"
        << "      \"eng8_ms\": " << r.eng8_ms << ",\n";
    if (r.spec.rss_ceiling_mb > 0.0) {
      out << "      \"rss_ceiling_mb\": " << r.spec.rss_ceiling_mb << ",\n";
    }
    out << "      \"samples_per_sec\": " << r.samples_per_sec << ",\n"
        << "      \"peak_rss_mb\": " << r.peak_rss_mb << ",\n"
        << "      \"identical\": " << (r.identical ? "true" : "false")
        << "\n    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
}

}  // namespace

int main() {
  bench::banner("perf-fleet",
                "node-tap engine vs the eager reference, 1k-100k nodes");

  const std::size_t reps = bench::env_size("PV_PERF_REPS", 3);
  const bool smoke = bench::env_size("PV_PERF_FLEET_SMOKE", 0) != 0;
  const char* json_env = std::getenv("PV_PERF_JSON");
  const std::string json_path =
      (json_env != nullptr && *json_env != '\0') ? json_env
                                                 : "BENCH_perf_fleet.json";

  // 1 s meter interval at the small scales: the headline ratio gates the
  // window kernels, so the fixed provision cost must not dominate the
  // sampled work (at 5 s an L1 campaign meters only ~36 samples/node and
  // the ratio mostly measures provisioning).
  std::vector<FleetScenario> specs;
  specs.push_back({"fleet1k_l1", 1000, Level::kL1, MeterAccuracy::perfect(),
                   1.0, 0, /*reference=*/true, 0.0});
  if (!smoke) {
    specs.push_back({"fleet10k_l1", 10000, Level::kL1,
                     MeterAccuracy::perfect(), 1.0, 0, true, 0.0});
    specs.push_back({"fleet10k_l1_pdu", 10000, Level::kL1,
                     MeterAccuracy::pdu_grade(), 1.0, 0, true, 0.0});
    // 100k nodes, every node metered: one rep — the contract here is
    // completion within an absolute memory ceiling, not a tight ratio.
    specs.push_back({"fleet100k_l3", 100000, Level::kL3,
                     MeterAccuracy::perfect(), 30.0, 1, false,
                     /*rss ceiling=*/1024.0});
  }

  std::vector<FleetResult> results;
  for (const FleetScenario& fs : specs) {
    results.push_back(run_fleet_scenario(fs, reps));
  }

  TextTable t({"scenario", "nodes", "samples", "ref@1", "engine@1",
               "engine@8", "x ref@1", "samples/s", "peak rss",
               "identical"});
  const auto ms = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f ms", v);
    return std::string(buf);
  };
  const auto x = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2fx", v);
    return std::string(buf);
  };
  const auto mb = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f MB", v);
    return std::string(buf);
  };
  const auto rate = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3g/s", v);
    return std::string(buf);
  };
  for (const FleetResult& r : results) {
    t.add_row({r.spec.name, std::to_string(r.spec.nodes),
               std::to_string(r.samples),
               r.spec.reference ? ms(r.ref1_ms) : "-", ms(r.eng1_ms),
               ms(r.eng8_ms), r.spec.reference ? x(r.speedup_ref_1t) : "-",
               rate(r.samples_per_sec), mb(r.peak_rss_mb),
               r.identical ? "yes" : "NO"});
  }
  std::cout << t.render();

  write_json(json_path, results, reps);
  std::cout << "\nwrote " << json_path << " (best of " << reps
            << " reps per variant"
            << (smoke ? ", smoke scale only" : "") << ")\n";

  bool ok = true;
  for (const FleetResult& r : results) {
    if (!r.identical) {
      std::cout << "CONTRACT VIOLATED: " << r.spec.name
                << " reports differ across threads or from the reference\n";
      ok = false;
    }
    if (r.spec.rss_ceiling_mb > 0.0 && r.peak_rss_mb > r.spec.rss_ceiling_mb) {
      std::cout << "CONTRACT VIOLATED: " << r.spec.name << " peak RSS "
                << r.peak_rss_mb << " MB above the " << r.spec.rss_ceiling_mb
                << " MB ceiling\n";
      ok = false;
    }
  }
  std::cout << (ok ? "\nall fleet identity/memory contracts hold\n"
                   : "\nsome contracts VIOLATED\n");
  return ok ? 0 : 1;
}
