// End-to-end perf-regression bench for the node-tap metering engine.
//
// Times whole campaigns — plan in, CampaignResult out — on a 240-node rig
// in these scenarios:
//
//   l1_pdu       L1 (smallest cohort) with the default pdu-grade meters;
//   l3_pdu       L3 (every node) with pdu-grade meters — the headline
//                configuration;
//   l3_perfect   L3 with perfect meters, isolating the simulation kernels
//                from the (shared, irreducible) noise-draw floor;
//   l3_reconcile L3 with pdu-grade meters and cross-validation enabled —
//                times the analysis-bucket accounting on top of metering;
//   async_collect  the asynchronous collector (pollers over a clean
//                transport) on the L3 cohort — no eager reference exists
//                for this path, so it reports 1-vs-8-thread wall times
//                and byte-identity across thread counts instead of
//                engine speedups.
//
// Each scenario runs the eager reference Meter stage
// (make_reference_node_meter_stage, swapped into the default stage list)
// single-threaded as the `eager@1` column, then the engine
// single-threaded and on 8 worker threads, best-of-PV_PERF_REPS wall time
// per variant.  Contracts (ctest `perf_regression_gate` runs this binary
// through tools/check_perf.sh):
//
//   1. all three variants produce byte-identical campaign reports
//      (submitted power/energy, every per-node mean, CI, error);
//   2. the engine is not slower than the eager reference (ratio >= 1.0
//      after the generous machine-noise allowance baked into
//      check_perf.sh; this binary only *reports* ratios, the gate
//      compares them to the committed baseline);
//   3. node-tap metering is bounded-memory: before any timing scenario
//      runs (ru_maxrss is a monotone high-watermark), the `rss_flat`
//      scenario compares the peak RSS of a short live campaign against
//      one 10x as long — growth above kRssGrowthCeilingMb fails the
//      bench, and the long run's report must still be byte-identical to
//      the batch run's.
//
// Results land in BENCH_perf.json (override with PV_PERF_JSON) for
// tools/check_perf.sh, which diffs them against the committed
// bench/BENCH_perf_baseline.json.  docs/performance.md describes the
// format and the baseline-update procedure.
//
// Env overrides: PV_PERF_NODES (240), PV_PERF_REPS (5), PV_PERF_JSON.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "collect/collector.hpp"
#include "core/campaign.hpp"
#include "core/plan.hpp"
#include "core/scenario.hpp"
#include "sim/fleet.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace pv;

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

struct ScenarioResult {
  std::string name;
  std::size_t samples = 0;  // metered samples across the cohort
  double eager1_ms = 0.0;
  double stream1_ms = 0.0;
  double stream8_ms = 0.0;
  double speedup_1t = 0.0;   // eager@1 / engine@1
  double speedup_8t = 0.0;   // eager@1 / engine@8
  double samples_per_sec = 0.0;  // engine@1 throughput
  double peak_rss_mb = 0.0;  // process high-watermark after this scenario
  bool identical = false;
  /// async_collect has no eager reference: eager1_ms and the speedups are
  /// omitted from its JSON entry (check_perf.sh only gates keys the
  /// baseline entry carries).
  bool has_engine_speedups = true;
};

// Bounded-memory contract for node-tap metering: the peak RSS of a
// campaign must be flat in campaign length (O(nodes + chunk), never
// O(total samples)).  Measured on the live loop, which adds the window
// ring and sketch to the batch shape's footprint.  Measured as the watermark delta between a short
// live campaign and one 10x as long, taken before anything larger runs.
struct RssFlatResult {
  std::size_t samples_short = 0;
  std::size_t samples_long = 0;
  double rss_short_mb = 0.0;
  double rss_long_mb = 0.0;
  double growth_mb = 0.0;
  bool identical = false;  // live long-run final == batch long-run final
};

// A 10x-longer campaign may grow the watermark by at most this much
// (covers the O(windows) summaries plus allocator slack) — far below the
// tens of MB a materialized O(samples) trace would cost at this scale.
constexpr double kRssGrowthCeilingMb = 16.0;

RssFlatResult run_rss_flat(std::size_t nodes) {
  // ru_maxrss is a monotone high-watermark: this scenario MUST run before
  // the timing scenarios, and both rigs are built up front so the two
  // readings differ only by what the long run itself allocated.
  const Seconds interval{1.0};
  const Rig rig_short = make_rig(nodes, Level::kL3, 150.0);
  const Rig rig_long = make_rig(nodes, Level::kL3, 1500.0);

  CampaignConfig cfg;
  cfg.seed = 5;
  cfg.meter_interval_override = interval;
  cfg.live.enabled = true;  // the chunk-stepped live loop, partials dropped
  cfg.live_sink = [](const std::string&) {};

  RssFlatResult r;
  r.samples_short =
      planned_samples(rig_short, cfg.meter_accuracy, interval);
  r.samples_long = planned_samples(rig_long, cfg.meter_accuracy, interval);

  const CampaignResult live_short =
      run_campaign(*rig_short.cluster, *rig_short.electrical, rig_short.plan,
                   cfg);
  (void)live_short;
  r.rss_short_mb = bench::peak_rss_mb();
  const CampaignResult live_long = run_campaign(
      *rig_long.cluster, *rig_long.electrical, rig_long.plan, cfg);
  r.rss_long_mb = bench::peak_rss_mb();
  r.growth_mb = r.rss_long_mb - r.rss_short_mb;

  // The long campaign in the batch shape must still report the exact
  // bytes the live run produced (runs after both watermark reads).
  CampaignConfig batch = cfg;
  batch.live.enabled = false;
  batch.live_sink = nullptr;
  const CampaignResult batch_long = run_campaign(
      *rig_long.cluster, *rig_long.electrical, rig_long.plan, batch);
  r.identical = bench::identical_reports(live_long, batch_long);
  return r;
}

ScenarioResult run_scenario(const std::string& name, Level level,
                            const MeterAccuracy& acc, std::size_t nodes,
                            std::size_t reps, bool reconcile = false) {
  const Rig rig = make_rig(nodes, level);

  CampaignConfig base;
  base.seed = 5;
  base.meter_accuracy = acc;
  base.meter_interval_override = Seconds{5.0};
  base.reconcile.enabled = reconcile;

  CampaignConfig stream8 = base;
  stream8.threads = 8;

  const Timed te = run_best_of(rig, base, reps, /*reference=*/true);
  const Timed t1 = run_best_of(rig, base, reps);
  const Timed t8 = run_best_of(rig, stream8, reps);

  ScenarioResult s;
  s.name = name;
  s.samples = planned_samples(rig, base.meter_accuracy, Seconds{5.0});
  s.eager1_ms = te.best_ms;
  s.stream1_ms = t1.best_ms;
  s.stream8_ms = t8.best_ms;
  s.speedup_1t = te.best_ms / t1.best_ms;
  s.speedup_8t = te.best_ms / t8.best_ms;
  s.samples_per_sec = static_cast<double>(s.samples) / (t1.best_ms / 1e3);
  s.identical = bench::identical_reports(te.result, t1.result) &&
                bench::identical_reports(te.result, t8.result);
  s.peak_rss_mb = bench::peak_rss_mb();
  return s;
}

// The asynchronous collection path: pollers over a clean (fault-free)
// transport, journalling disabled.  There is no eager reference for this
// pipeline; the contract is thread-count byte-identity and the wall times
// are reported 1-vs-8 threads.
ScenarioResult run_async_collect(std::size_t nodes, std::size_t reps) {
  const Rig rig = make_rig(nodes, Level::kL3);

  CollectorConfig base;
  base.campaign.seed = 5;
  base.campaign.meter_interval_override = Seconds{5.0};
  base.queue_capacity = 64;

  const auto best_of = [&](unsigned threads) {
    CollectorConfig cfg = base;
    cfg.threads = threads;
    double best_ms = 1e300;
    CollectionOutcome out;
    for (std::size_t r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      out = collect_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg);
      const auto t1 = std::chrono::steady_clock::now();
      best_ms = std::min(
          best_ms, std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    return std::pair<double, CollectionOutcome>(best_ms, std::move(out));
  };

  const auto [ms1, out1] = best_of(1);
  const auto [ms8, out8] = best_of(8);

  ScenarioResult s;
  s.name = "async_collect";
  s.has_engine_speedups = false;
  s.samples =
      planned_samples(rig, base.campaign.meter_accuracy, Seconds{5.0});
  s.stream1_ms = ms1;
  s.stream8_ms = ms8;
  s.samples_per_sec = static_cast<double>(s.samples) / (ms1 / 1e3);
  s.identical = bench::identical_reports(out1.result, out8.result);
  s.peak_rss_mb = bench::peak_rss_mb();
  return s;
}

void write_json(const std::string& path,
                const std::vector<ScenarioResult>& scenarios,
                const RssFlatResult& rss, std::size_t nodes,
                std::size_t reps) {
  std::ofstream out(path);
  out.precision(6);
  out << "{\n  \"schema\": \"powervar-bench-perf-v1\",\n"
      << "  \"nodes\": " << nodes << ",\n  \"reps\": " << reps << ",\n"
      << "  \"rss_flat\": {\n"
      << "    \"samples_short\": " << rss.samples_short << ",\n"
      << "    \"samples_long\": " << rss.samples_long << ",\n"
      << "    \"rss_short_mb\": " << rss.rss_short_mb << ",\n"
      << "    \"rss_long_mb\": " << rss.rss_long_mb << ",\n"
      << "    \"growth_mb\": " << rss.growth_mb << ",\n"
      << "    \"growth_ceiling_mb\": " << kRssGrowthCeilingMb << ",\n"
      << "    \"identical\": " << (rss.identical ? "true" : "false")
      << "\n  },\n"
      << "  \"scenarios\": {\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioResult& s = scenarios[i];
    out << "    \"" << s.name << "\": {\n"
        << "      \"samples\": " << s.samples << ",\n";
    if (s.has_engine_speedups) {
      out << "      \"eager1_ms\": " << s.eager1_ms << ",\n";
    }
    out << "      \"stream1_ms\": " << s.stream1_ms << ",\n"
        << "      \"stream8_ms\": " << s.stream8_ms << ",\n";
    if (s.has_engine_speedups) {
      out << "      \"speedup_1t\": " << s.speedup_1t << ",\n"
          << "      \"speedup_8t\": " << s.speedup_8t << ",\n";
    }
    out << "      \"samples_per_sec\": " << s.samples_per_sec << ",\n"
        << "      \"peak_rss_mb\": " << s.peak_rss_mb << ",\n"
        << "      \"identical\": " << (s.identical ? "true" : "false")
        << "\n    }" << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
}

}  // namespace

int main() {
  bench::banner("perf-campaign",
                "engine vs eager reference, end-to-end campaigns");

  const std::size_t nodes = bench::env_size("PV_PERF_NODES", 240);
  const std::size_t reps = bench::env_size("PV_PERF_REPS", 5);
  const char* json_env = std::getenv("PV_PERF_JSON");
  const std::string json_path =
      (json_env != nullptr && *json_env != '\0') ? json_env
                                                 : "BENCH_perf.json";

  // Peak-RSS first: ru_maxrss only ever rises, so the growth comparison
  // is meaningless once the 240-node timing scenarios have run.
  const RssFlatResult rss = run_rss_flat(nodes);
  {
    TextTable rt({"run", "samples", "peak rss", "growth"});
    const auto mb = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.1f MB", v);
      return std::string(buf);
    };
    rt.add_row({"live short", std::to_string(rss.samples_short),
                mb(rss.rss_short_mb), "-"});
    rt.add_row({"live long (10x)", std::to_string(rss.samples_long),
                mb(rss.rss_long_mb), mb(rss.growth_mb)});
    std::cout << rt.render();
    std::cout << "live-vs-batch long-run reports identical: "
              << (rss.identical ? "yes" : "NO") << "\n\n";
  }

  std::vector<ScenarioResult> scenarios;
  scenarios.push_back(run_scenario("l1_pdu", Level::kL1,
                                   MeterAccuracy::pdu_grade(), nodes, reps));
  scenarios.push_back(run_scenario("l3_pdu", Level::kL3,
                                   MeterAccuracy::pdu_grade(), nodes, reps));
  scenarios.push_back(run_scenario("l3_perfect", Level::kL3,
                                   MeterAccuracy::perfect(), nodes, reps));
  scenarios.push_back(run_scenario("l3_reconcile", Level::kL3,
                                   MeterAccuracy::pdu_grade(), nodes, reps,
                                   /*reconcile=*/true));
  scenarios.push_back(run_async_collect(nodes, reps));

  TextTable t({"scenario", "samples", "eager@1", "stream@1", "stream@8",
               "speedup@1", "speedup@8", "peak rss", "identical"});
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
  for (const ScenarioResult& s : scenarios) {
    t.add_row({s.name, std::to_string(s.samples),
               s.has_engine_speedups ? ms(s.eager1_ms) : "-",
               ms(s.stream1_ms), ms(s.stream8_ms),
               s.has_engine_speedups ? x(s.speedup_1t) : "-",
               s.has_engine_speedups ? x(s.speedup_8t) : "-",
               mb(s.peak_rss_mb), s.identical ? "yes" : "NO"});
  }
  std::cout << t.render();

  write_json(json_path, scenarios, rss, nodes, reps);
  std::cout << "\nwrote " << json_path << " (best of " << reps
            << " reps per variant)\n";

  bool ok = true;
  for (const ScenarioResult& s : scenarios) {
    if (!s.identical) {
      std::cout << "CONTRACT VIOLATED: " << s.name
                << " reports differ across engines/threads\n";
      ok = false;
    }
  }
  if (!rss.identical) {
    std::cout << "CONTRACT VIOLATED: rss_flat live report differs from "
                 "the batch engine\n";
    ok = false;
  }
  if (rss.growth_mb > kRssGrowthCeilingMb) {
    std::cout << "CONTRACT VIOLATED: rss_flat grew "
              << rss.growth_mb << " MB over a 10x-longer campaign "
              << "(ceiling " << kRssGrowthCeilingMb << " MB)\n";
    ok = false;
  }
  std::cout << (ok ? "\nall engine-identity contracts hold\n"
                   : "\nsome contracts VIOLATED\n");
  return ok ? 0 : 1;
}
