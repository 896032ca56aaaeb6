// The campaign_clean workload.  It builds its seeded scenario (the
// set-up), then runs one campaign after another — plan, run, rendered JSON
// document — until the run's seconds are spent.  Untraced runs call
// run_campaign directly; traced runs assemble the same default stage list
// with make_campaign_stages and wrap every stage in a TimedStage.
//
// The traced run also drives the faulted live path and collect_campaign
// for a few campaigns each, for their layer metrics and correctness
// checks.  They are not timed end to end: on a shared host their run
// times spread 20-30% across seeds (memory-bound paths), against ~8% for
// the clean kernel, so no regression bound could hold on them.

#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "bench.hpp"
#include "collect/collector.hpp"
#include "core/campaign.hpp"
#include "core/doc.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/spec.hpp"

namespace pvb {
namespace {

/// Set-up repeats scenario build + planning for at least this long (and
/// at least kSetupRepeats times); set-up time is the fastest decile.
constexpr double kSetupMinMs = 300.0;
constexpr std::size_t kSetupRepeats = 3;
/// Fewest timed campaigns per measured phase, however long they take.
constexpr std::size_t kMinCampaigns = 3;
/// |submitted - true| / true every campaign must stay within.
constexpr double kTruthBound = 0.05;
/// The byzantine-defense contract: defended error with 5% lying meters.
constexpr double kDefendedBound = 0.02;

/// Partial documents one live campaign emitted.
struct LiveCount {
  std::size_t partials = 0;
  std::size_t bytes = 0;
  std::vector<std::string> lines;
};

/// One campaign from plan to rendered document.
struct Campaign {
  double wall_ms = 0.0;
  std::string doc;
  pv::CampaignResult result;
  Spans spans;  ///< traced: plan, each stage (or collect), render
  Spans inner;  ///< traced collect: the collector's own stage traces
  LiveCount live;
};

/// Runs a plan on a built scenario at `threads`, recording live partials
/// and, when traced, spans into `out`.
using Execute = std::function<pv::CampaignResult(
    const pv::Scenario&, const pv::MeasurementPlan&, std::size_t threads,
    Campaign& out, bool traced)>;

struct CampaignCase {
  std::string name;
  std::string label;
  pv::ScenarioSpec scenario;
  pv::MethodologySpec spec;
  std::uint64_t seed = 1;
  Execute execute;
  /// Collection documents carry the modeled poll makespan, which divides
  /// by the poller count; only their assessment block is thread-invariant.
  bool compare_assessment_only = false;
};

/// Runs the configured pipeline: run_campaign untraced, or the same
/// default stage list, each stage timed, when traced.
pv::CampaignResult run_pipeline_campaign(const pv::Scenario& sc,
                                         const pv::MeasurementPlan& plan,
                                         const pv::CampaignConfig& config,
                                         Campaign& out, bool traced) {
  if (!traced) return pv::run_campaign(*sc.cluster, *sc.electrical, plan, config);
  const auto stages = timed(pv::make_campaign_stages(plan, config), out.spans);
  return pv::run_campaign_stages(*sc.cluster, *sc.electrical, plan, config,
                                 stages);
}

Campaign run_one(const CampaignCase& c, const pv::Scenario& sc,
                 std::size_t threads, bool traced) {
  Campaign out;
  const auto t0 = Clock::now();
  const pv::MeasurementPlan plan = sc.plan(c.spec, c.seed);
  if (traced) out.spans.emplace_back("plan", ms_between(t0, Clock::now()));
  out.result = c.execute(sc, plan, threads, out, traced);
  const auto t1 = Clock::now();
  out.doc = pv::render_json(pv::assessment_document(plan, out.result));
  const auto t2 = Clock::now();
  out.wall_ms = ms_between(t0, t2);
  if (traced) out.spans.emplace_back("render", ms_between(t1, t2));
  return out;
}

std::optional<Campaign> attempt(Tally& tally,
                                const std::function<Campaign()>& fn) {
  try {
    Campaign c = fn();
    tally.operation(true, "");
    return c;
  } catch (const std::exception& e) {
    tally.operation(false, std::string("campaign threw: ") + e.what());
    return std::nullopt;
  }
}

std::string assessment_block(const std::string& doc) {
  const pv::Json parsed = pv::Json::parse(doc);
  const pv::Json* block = parsed.find("assessment");
  return block != nullptr ? block->dump() : "";
}

struct Phase {
  std::vector<double> wall_ms;
  std::vector<Spans> spans;
  std::vector<Spans> inner;
  std::optional<Campaign> last;
};

/// A case with its scenario built and its reference campaign checked.
struct Prepared {
  std::unique_ptr<pv::Scenario> sc;
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::optional<Campaign> ref;
  std::size_t samples = 0;  ///< metered samples per campaign
};

/// Set-up (scenario build + planning, repeated), then one warm-up
/// campaign — the reference document — checked against ground truth.
Prepared prepare(const CampaignCase& c, Report& rep) {
  Prepared p;
  const auto setup_start = Clock::now();
  while (p.setup_s.size() < kSetupRepeats ||
         ms_between(setup_start, Clock::now()) < kSetupMinMs) {
    p.sc.reset();  // one scenario alive at a time, so set-up adds no peak rss
    const auto t0 = Clock::now();
    p.sc = std::make_unique<pv::Scenario>(pv::build_scenario(c.scenario));
    const auto t1 = Clock::now();
    (void)p.sc->plan(c.spec, c.seed);
    p.build_ms.push_back(ms_between(t0, t1));
    p.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  p.ref = attempt(rep.tally, [&] { return run_one(c, *p.sc, 1, false); });
  if (!p.ref) return p;
  const pv::CampaignResult& r = p.ref->result;
  if (const pv::StageTrace* meter = find_stage(r, "meter")) {
    p.samples = meter->samples;
  }
  rep.tally.record(r.relative_error <= kTruthBound,
                   "submitted power off true power by " +
                       std::to_string(r.relative_error));
  rep.tally.record(
      std::isfinite(r.node_mean_ci.lo) && std::isfinite(r.node_mean_ci.hi),
      "Eq. 1 confidence interval is not finite");
  if (r.data_quality.reconcile_ran) {
    rep.tally.record(r.relative_error <= kDefendedBound,
                     "defended error " + std::to_string(r.relative_error) +
                         " above the 2% byzantine contract");
  }
  for (const std::string& line : p.ref->live.lines) {
    bool ok = true;
    try {
      (void)pv::parse_assessment_line(line);
    } catch (const std::exception&) {
      ok = false;
    }
    rep.tally.record(ok, "live partial is not a valid assessment line");
  }
  return p;
}

/// Campaigns back to back until `budget_ms` is spent (at least
/// kMinCampaigns), each document checked against the reference.
Phase measure(const CampaignCase& c, const Prepared& prep, Report& rep,
              bool traced, double budget_ms) {
  Phase p;
  const auto start = Clock::now();
  std::size_t iterations = 0;
  do {
    ++iterations;
    std::optional<Campaign> run =
        attempt(rep.tally, [&] { return run_one(c, *prep.sc, 1, traced); });
    if (!run) continue;
    p.wall_ms.push_back(run->wall_ms);
    if (prep.ref) {
      rep.tally.record(run->doc == prep.ref->doc,
                       "document differs from the warm-up campaign's");
    }
    if (traced) {
      p.spans.push_back(run->spans);
      p.inner.push_back(run->inner);
    }
    p.last = std::move(run);
  } while (ms_between(start, Clock::now()) < budget_ms ||
           iterations < kMinCampaigns);
  return p;
}

/// Thread invariance: the reference campaign again at threads=2.
void check_threads(const CampaignCase& c, const Prepared& prep, Report& rep) {
  if (!prep.ref) return;
  const std::optional<Campaign> two =
      attempt(rep.tally, [&] { return run_one(c, *prep.sc, 2, false); });
  if (!two) return;
  const bool same =
      c.compare_assessment_only
          ? assessment_block(two->doc) == assessment_block(prep.ref->doc)
          : two->doc == prep.ref->doc;
  rep.tally.record(same, c.name + ": document differs between threads=1 "
                                  "and 2");
}

double median_span(const std::vector<Spans>& all, const std::string& name) {
  std::vector<double> v;
  for (const Spans& s : all) v.push_back(span_ms(s, name));
  return median(v);
}

/// Per-layer metrics of the clean batch campaign: every stage, plan,
/// render, and the time no span covers.
void add_clean_layers(const Prepared& prep, const Phase& plain,
                      const Phase& tr, Report& rep) {
  const std::string n = "n=" + std::to_string(tr.wall_ms.size()) + " traced";
  const Campaign& last = *tr.last;
  for (const char* stage : {"provision", "meter", "aggregate", "assess"}) {
    rep.add(std::string(stage) + ".ms", median_span(tr.spans, stage), "ms", n);
  }
  rep.add("meter.samples", static_cast<double>(prep.samples), "count");
  if (prep.samples > 0) {
    rep.add("meter.ns_per_sample",
            median_span(tr.spans, "meter") * 1e6 / prep.samples, "ns");
  }
  rep.add("assess.relative_error", last.result.relative_error, "ratio");
  rep.add("scenario.build_ms", median(prep.build_ms), "ms",
          "median of " + std::to_string(prep.build_ms.size()));
  rep.add("plan.ms", median_span(tr.spans, "plan"), "ms", n);
  rep.add("render.ms", median_span(tr.spans, "render"), "ms",
          "assessment_document + render_json, " + n);
  rep.add("render.bytes", static_cast<double>(last.doc.size()), "bytes");
  std::vector<double> unattributed;
  for (std::size_t i = 0; i < tr.spans.size(); ++i) {
    unattributed.push_back(tr.wall_ms[i] - span_sum_ms(tr.spans[i]));
  }
  rep.add("trace.unattributed_ms", median(unattributed), "ms",
          "campaign wall minus plan, stage and render spans, " + n);
  const double base = fastest_decile_time(plain.wall_ms);
  rep.add("trace.overhead_frac",
          (fastest_decile_time(tr.wall_ms) - base) / base, "ratio",
          "traced vs untraced fastest-decile campaign wall (" +
              std::to_string(plain.wall_ms.size()) + " untraced)");
  rep.note("accounting (last traced campaign): wall " +
           std::to_string(last.wall_ms) + " ms = spans " +
           std::to_string(span_sum_ms(last.spans)) + " ms + unattributed " +
           std::to_string(last.wall_ms - span_sum_ms(last.spans)) + " ms");
}

/// Per-layer metrics of the faulted live campaign: the faulted meter path,
/// repair, reconcile and the live partials.
void add_faulted_layers(const Prepared& prep, const Phase& tr, Report& rep) {
  const std::string n = "n=" + std::to_string(tr.wall_ms.size()) +
                        " traced faulted campaigns";
  const pv::CampaignResult& r = tr.last->result;
  if (prep.samples > 0) {
    rep.add("meter.faulted_ns_per_sample",
            median_span(tr.spans, "meter") * 1e6 / prep.samples, "ns", n);
  }
  rep.add("repair.ms", median_span(tr.spans, "repair"), "ms", n);
  rep.add("repair.samples_repaired",
          stage_counter(r, "repair", "samples_repaired"), "count");
  rep.add("reconcile.ms", median_span(tr.spans, "reconcile"), "ms", n);
  rep.add("reconcile.quarantined",
          stage_counter(r, "reconcile", "quarantined"), "count");
  rep.add("live.partials", static_cast<double>(tr.last->live.partials),
          "count", "per campaign");
  rep.add("live.partial_bytes", static_cast<double>(tr.last->live.bytes),
          "bytes", "per campaign");
}

/// Per-layer metrics of the lossy collection campaign.
void add_collect_layers(const Phase& tr, Report& rep) {
  const std::string n = "n=" + std::to_string(tr.wall_ms.size()) +
                        " traced collections";
  const pv::CollectionQuality& cq = tr.last->result.data_quality.collection;
  rep.add("collect.polls", static_cast<double>(cq.polls_attempted), "count");
  rep.add("collect.timeouts", static_cast<double>(cq.polls_timed_out),
          "count");
  rep.add("collect.retries", static_cast<double>(cq.polls_retried), "count");
  rep.add("collect.breaker_trips", static_cast<double>(cq.breaker_trips),
          "count");
  rep.add("collect.useful_poll_ratio",
          static_cast<double>(cq.polls_attempted - cq.polls_timed_out) /
              static_cast<double>(cq.polls_attempted),
          "ratio",
          "answered polls / " + std::to_string(cq.polls_attempted) + " polls");
  rep.add("collect.virtual_makespan_s", cq.makespan_s, "s", "modeled");
  rep.add("collect.ms", median_span(tr.spans, "collect"), "ms",
          "collect_campaign call, " + n);
  rep.add("collect.meter_ms", median_span(tr.inner, "meter"), "ms",
          "collector's own stage trace, " + n);
  rep.add("collect.assess_ms", median_span(tr.inner, "assess"), "ms",
          "collector's own stage trace, " + n);
}

pv::ScenarioSpec scenario_for(const Options& opt, std::size_t nodes) {
  pv::ScenarioSpec s;
  s.nodes = nodes;
  s.fleet_seed = opt.seed ^ 0x99;  // the CLI's fleet-seed mixing
  return s;
}

const pv::MethodologySpec kLevel3 =
    pv::MethodologySpec::get(pv::Level::kL3, pv::Revision::kV2015);

/// 20k-node clean batch campaign: the noise-driven meter kernel is ~99%
/// of the run.
CampaignCase clean_case(const Options& opt) {
  CampaignCase c;
  c.name = "clean";
  c.label =
      "campaign_clean: 20000 nodes, Level 3 node tap, PDU-grade meters, 1 s "
      "interval, threads=1, batch (no faults, reconcile, cache or service)";
  c.scenario = scenario_for(opt, 20000);
  c.spec = kLevel3;
  c.seed = opt.seed;
  c.execute = [seed = opt.seed](const pv::Scenario& sc,
                                const pv::MeasurementPlan& plan,
                                std::size_t threads, Campaign& out,
                                bool traced) {
    pv::CampaignConfig config;
    config.seed = seed;
    config.meter_interval_override = pv::Seconds{1.0};
    config.threads = threads;
    return run_pipeline_campaign(sc, plan, config, out, traced);
  };
  return c;
}

/// 2k-node live campaign with harsh faults and lying meters: the faulted
/// per-node meter path, repair and reconcile.
CampaignCase faulted_case(const Options& opt) {
  CampaignCase c;
  c.name = "faulted";
  c.label =
      "faulted: 2000 nodes, Level 3 live, harsh faults, 4 dead meters, 5% "
      "byzantine meters, reconcile on, a partial every 300 virtual s to a "
      "counting sink, threads=1";
  c.scenario = scenario_for(opt, 2000);
  c.spec = kLevel3;
  c.seed = opt.seed;
  c.execute = [seed = opt.seed](const pv::Scenario& sc,
                                const pv::MeasurementPlan& plan,
                                std::size_t threads, Campaign& out,
                                bool traced) {
    pv::CampaignConfig config;
    config.seed = seed;
    config.meter_interval_override = pv::Seconds{1.0};
    config.threads = threads;
    config.faults.spec = pv::FaultSpec::harsh();
    for (std::size_t i = 0; i < 4; ++i) {
      config.faults.dead_meters.push_back(plan.node_indices[i]);
    }
    pv::force_byzantine_meters(config, plan, 0.05);
    config.reconcile.enabled = true;
    config.live.enabled = true;
    config.live.emit_every_s = 300.0;
    LiveCount& live = out.live;
    config.live_sink = [&live](const std::string& line) {
      ++live.partials;
      live.bytes += line.size();
      live.lines.push_back(line);
    };
    return run_pipeline_campaign(sc, plan, config, out, traced);
  };
  return c;
}

/// 4k-node collection over a lossy transport: the poller, retries,
/// breakers and the collector's own tail.
CampaignCase collect_case(const Options& opt) {
  CampaignCase c;
  c.name = "collect";
  c.label =
      "collect: collect_campaign, 4000 nodes, Level 3, 1 s interval, 5% "
      "drop, 2% blackhole, 4 dead meters, one poller thread";
  c.scenario = scenario_for(opt, 4000);
  c.spec = kLevel3;
  c.seed = opt.seed;
  c.compare_assessment_only = true;
  c.execute = [seed = opt.seed](const pv::Scenario& sc,
                                const pv::MeasurementPlan& plan,
                                std::size_t threads, Campaign& out,
                                bool traced) {
    pv::CollectorConfig config;
    config.campaign.seed = seed;
    config.campaign.meter_interval_override = pv::Seconds{1.0};
    config.transport.drop_prob = 0.05;
    config.transport.blackhole_fraction = 0.02;
    for (std::size_t i = 0; i < 4; ++i) {
      config.campaign.faults.dead_meters.push_back(plan.node_indices[i]);
    }
    config.threads = static_cast<unsigned>(threads);
    const auto t0 = Clock::now();
    pv::CollectionOutcome outcome =
        pv::collect_campaign(*sc.cluster, *sc.electrical, plan, config);
    if (traced) {
      out.spans.emplace_back("collect", ms_between(t0, Clock::now()));
      for (const pv::StageTrace& t : outcome.result.stage_traces) {
        out.inner.emplace_back(t.stage, t.wall_ms);
      }
    }
    return std::move(outcome.result);
  };
  return c;
}

}  // namespace

Report run_campaign_clean(const Options& opt) {
  Report rep;
  const CampaignCase clean = clean_case(opt);
  rep.note("workload: " + clean.label);
  rep.note("warm-up: one campaign before timing, excluded from the timings "
           "(a fresh process runs its first campaign slower)");
  const Prepared prep = prepare(clean, rep);
  const double budget_ms = opt.seconds * 1000.0;

  if (!opt.trace) {
    const Phase p = measure(clean, prep, rep, false, budget_ms);
    // A window is one campaign, so its p50 and tail are its wall time.
    const double fast = fastest_decile_time(p.wall_ms);
    const std::string n = "fastest decile (p10) of " +
                          std::to_string(p.wall_ms.size()) + " campaigns";
    rep.add("samples_per_s", prep.samples / (fast / 1000.0), "1/s",
            std::to_string(prep.samples) + " samples per campaign, " + n);
    rep.add("campaigns_per_s", 1000.0 / fast, "1/s", n);
    rep.add("latency_p50_ms", fast, "ms", "plan -> rendered JSON, " + n);
    rep.add("latency_tail_ms", fast, "ms", n);
    rep.add("setup_s", fastest_decile_time(prep.setup_s), "s",
            "build_scenario + plan, fastest decile of " +
                std::to_string(prep.setup_s.size()));
    rep.add("peak_rss_mb", peak_rss_mb(), "MB", "whole process");
    rep.note("all campaigns: median " + std::to_string(median(p.wall_ms)) +
             " ms, slowest " + std::to_string(quantile(p.wall_ms, 1.0)) +
             " ms");
    return rep;
  }

  // --- traced run: an untraced half, then a traced half ----------------
  const Phase plain = measure(clean, prep, rep, false, budget_ms / 2.0);
  const Phase tr = measure(clean, prep, rep, true, budget_ms / 2.0);
  check_threads(clean, prep, rep);
  if (tr.last) add_clean_layers(prep, plain, tr, rep);

  // The faulted and collection paths: a few traced campaigns each, for
  // their layers and their correctness checks.
  const CampaignCase faulted = faulted_case(opt);
  const CampaignCase collect = collect_case(opt);
  for (const CampaignCase* c : {&faulted, &collect}) {
    rep.note("traced companion: " + c->label);
    const Prepared cp = prepare(*c, rep);
    const Phase ctr = measure(*c, cp, rep, true, 0.0);
    check_threads(*c, cp, rep);
    if (!ctr.last) continue;
    if (c == &faulted) {
      add_faulted_layers(cp, ctr, rep);
    } else {
      add_collect_layers(ctr, rep);
    }
  }
  return rep;
}

}  // namespace pvb
