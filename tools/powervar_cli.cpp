// powervar — command-line front end for the measurement methodology.
//
//   powervar sample-size --nodes N --cv F --lambda F [--alpha F]
//       Required metered-node counts under every rule (Eq. 5, 1/64, 2015,
//       Chebyshev, Hoeffding).
//
//   powervar accuracy --nodes N --cv F --n K [--alpha F]
//       Achievable relative accuracy with K metered nodes (Eq. 1, t-based).
//
//   powervar audit --trace FILE --core-begin S --core-end S
//       Window-gaming audit of a wall-power CSV trace (t_s,power_w rows):
//       honest core-phase average vs best/worst legal v1.2 L1 windows.
//
//   powervar normality --values FILE [--alpha F]
//       Jarque-Bera + Anderson-Darling normality check of a per-node power
//       sample (one value per line) — the §4.2 pilot-sample sanity check.
//
//   powervar tco --power-kw F --accuracy F [--cost-per-kwh F] [--pue F]
//                [--duty F] [--years F]
//       Energy-cost projection with measurement uncertainty propagated.
//
//   powervar campaign --nodes N --cv F --level 1|2|3 [--seed S]
//                     [--faults none|mild|harsh] [--dropout F] [--dead N]
//                     [--byzantine F] [--reconcile 1] [--threads N]
//                     [--live] [--live-every S]
//       Simulates a full measurement campaign on a synthetic cluster and
//       prints the accuracy assessment; with faults, also the data-quality
//       block (meters lost, coverage, repairs).  --live streams partial
//       assessment documents (JSON lines) to stdout as the campaign
//       advances — every --live-every virtual seconds, or at every closed
//       window when omitted — before the final (byte-identical) report.
//
//   powervar reconcile --nodes N [--cv F] [--seed S] [--byzantine F]
//                      [--defend 0|1] [--windows K] [--threads N]
//       Byzantine-defense demonstration: a Level 3 campaign (every node
//       metered) with a fraction of meters forced to lie (gain drift,
//       unit mixups, clock skew, recalibration steps), cross-validated
//       against the meter hierarchy, quarantined and reconciled.  The
//       report gains an integrity block; --defend 0 shows the undefended
//       damage.
//
//   powervar collect --nodes N [--cv F] [--level 1|2|3] [--seed S]
//                    [--drop F] [--dup F] [--blackhole F] [--dead N]
//                    [--latency MS] [--jitter MS] [--timeout S]
//                    [--retries K] [--chunk S] [--breaker-after K]
//                    [--cooldown S] [--threads N] [--interval S]
//                    [--checkpoint FILE] [--resume 1] [--crash-after K]
//       Same synthetic campaign, collected through the asynchronous
//       pipeline: flaky transport, retry/backoff, circuit breakers, and a
//       crash-safe journal.  The accuracy report goes to stdout (it is
//       byte-identical between a clean run and a kill-and-resume pair);
//       collection progress goes to stderr.
//
//   powervar serve --requests FILE|- [--resume CHECKPOINT] [--stream]
//                  [--once] [--workers N] [--queue N] [--tenant-queue N]
//                  [--deadline-ms MS] [--retry-after S] [--cache N]
//                  [--strict-cache] [--cache-dir DIR] [--checkpoint FILE]
//                  [--drain-after K] [--crash-after K] [--json]
//                  [--chaos-* ...]
//       The resident campaign service.  Each input line is a
//       powervar-request-v1 JSON object; each gets exactly one
//       powervar-response-v1 line — in submission order by default, or
//       in completion order tagged with a "seq" submission index under
//       --stream — then a drain report.  Admission is bounded globally
//       (--queue) and per tenant (--tenant-queue, fair-share dispatch by
//       the request's tenant/priority fields), deadlines cooperative
//       (--deadline-ms), Provision artifacts cached, CRC-revalidated and
//       optionally spilled to a persistent tier (--cache/--strict-cache/
//       --cache-dir), drained work checkpointed to the WAL
//       (--checkpoint, --drain-after K holds all but the first K
//       submissions for the drain), and --resume CHECKPOINT replays a
//       drain journal — byte-identical responses under the original
//       ids/seeds, torn or foreign journals refused.  --crash-after K
//       simulates dying mid-drain after K checkpoint appends (exit 3).
//       Exit code is the worst outcome: 8 checkpoint refused, 7 corrupt
//       cache refused, 6 deadline exceeded, 5 shed, 3 simulated crash,
//       1 other failures, 0 all ok.

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collect/collector.hpp"
#include "core/baselines.hpp"
#include "service/request.hpp"
#include "service/service.hpp"
#include "core/campaign.hpp"
#include "core/gaming.hpp"
#include "core/report.hpp"
#include "core/sample_size.hpp"
#include "core/scenario.hpp"
#include "core/tco.hpp"
#include "stats/normality.hpp"
#include "trace/io.hpp"
#include "util/table.hpp"

namespace {

using namespace pv;

/// A bad command line (as opposed to a campaign that ran and failed):
/// maps to the usage text and exit code 2.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

/// Strict --key value / --key=value argument map.  Numbers must parse in
/// full (no silent atof-to-zero), rates must land in [0, 1], and every
/// option needs a value — violations throw and the CLI exits non-zero.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    // Boolean switches that may appear bare (no value); anything else
    // keeps the strict --key value contract.
    static const std::set<std::string> kBareFlags = {
        "json", "trace-stages", "once", "strict-cache", "stream", "live"};
    for (int i = first; i < argc; ++i) {
      const std::string token = argv[i];
      if (token.rfind("--", 0) != 0 || token.size() <= 2) {
        throw std::runtime_error("expected --option, got '" + token + "'");
      }
      const std::string body = token.substr(2);
      const std::size_t eq = body.find('=');
      if (eq != std::string::npos) {
        values_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (kBareFlags.contains(body) &&
                 (i + 1 >= argc ||
                  std::string(argv[i + 1]).rfind("--", 0) == 0)) {
        // A moved std::string, not = "1": GCC 12 flags the literal's
        // assignment at -O3 (-Wrestrict, a false positive).
        values_[body] = std::string("1");
      } else {
        if (i + 1 >= argc) {
          throw std::runtime_error("option " + token + " is missing a value");
        }
        values_[body] = argv[++i];
      }
    }
  }

  [[nodiscard]] double number(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::runtime_error("missing required option --" + key);
    }
    used_.insert(key);
    return parse_number(key, it->second);
  }
  [[nodiscard]] double number_or(const std::string& key, double fallback) const {
    used_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : parse_number(key, it->second);
  }
  /// A boolean switch: bare `--key`, `--key 1` and `--key=1` all enable.
  [[nodiscard]] bool flag_or(const std::string& key,
                             bool fallback = false) const {
    return number_or(key, fallback ? 1.0 : 0.0) > 0.0;
  }
  /// A probability/fraction knob: a number constrained to [0, 1].
  [[nodiscard]] double rate_or(const std::string& key, double fallback) const {
    const double v = number_or(key, fallback);
    if (v < 0.0 || v > 1.0) {
      throw std::runtime_error("option --" + key + " must be in [0, 1], got " +
                               std::to_string(v));
    }
    return v;
  }
  /// A rate knob without a default: empty when the option is absent.
  [[nodiscard]] std::optional<double> rate_if(const std::string& key) const {
    used_.insert(key);
    if (!values_.contains(key)) return std::nullopt;
    return rate_or(key, 0.0);
  }
  [[nodiscard]] std::string text(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::runtime_error("missing required option --" + key);
    }
    used_.insert(key);
    return it->second;
  }
  [[nodiscard]] std::string text_or(const std::string& key,
                                    const std::string& fallback) const {
    used_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// Call once every option has been read: a leftover key means a typo'd
  /// or misplaced flag, which must fail loudly rather than silently run
  /// with defaults.
  void reject_unknown() const {
    for (const auto& [key, value] : values_) {
      if (!used_.contains(key)) {
        throw std::runtime_error("unknown option --" + key);
      }
    }
  }

 private:
  static double parse_number(const std::string& key, const std::string& raw) {
    const char* begin = raw.c_str();
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(begin, &end);
    if (end == begin || *end != '\0' || errno == ERANGE) {
      throw std::runtime_error("option --" + key + " expects a number, got '" +
                               raw + "'");
    }
    return v;
  }

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> used_;
};

int cmd_sample_size(const Args& args) {
  const auto nodes = static_cast<std::size_t>(args.number("nodes"));
  const double cv = args.number("cv");
  const double lambda = args.number("lambda");
  const double alpha = args.number_or("alpha", 0.05);
  args.reject_unknown();

  TextTable t({"rule", "metered nodes"});
  t.add_row({"Equation 5 (paper)",
             std::to_string(required_sample_size(alpha, lambda, cv, nodes))});
  t.add_row({"old 1/64 rule", std::to_string(rule_1_64(nodes))});
  t.add_row({"2015 rule max(16, 10%)", std::to_string(rule_2015(nodes))});
  t.add_row({"Chebyshev (distribution-free)",
             std::to_string(chebyshev_required_sample_size(alpha, lambda, cv))});
  t.add_row({"Hoeffding (6-sigma range)",
             std::to_string(hoeffding_required_sample_size(
                 alpha, lambda, 1.0, 6.0 * cv))});
  std::cout << "N = " << nodes << ", sigma/mu = " << fmt_percent(cv, 2)
            << ", target lambda = " << fmt_percent(lambda, 2)
            << " at confidence " << fmt_percent(1.0 - alpha, 0) << "\n\n"
            << t.render();
  return 0;
}

int cmd_accuracy(const Args& args) {
  const auto nodes = static_cast<std::size_t>(args.number("nodes"));
  const double cv = args.number("cv");
  const auto n = static_cast<std::size_t>(args.number("n"));
  const double alpha = args.number_or("alpha", 0.05);
  args.reject_unknown();
  const double lambda = achievable_accuracy(alpha, cv, n, nodes);
  std::cout << "metering " << n << " of " << nodes << " nodes (sigma/mu "
            << fmt_percent(cv, 2) << "): +/-" << fmt_percent(lambda, 2)
            << " at " << fmt_percent(1.0 - alpha, 0) << " confidence\n";
  return 0;
}

int cmd_audit(const Args& args) {
  const PowerTrace trace = load_trace_csv(args.text("trace"));
  RunPhases run;
  if (args.number_or("auto-phases", 0.0) > 0.0) {
    const TimeWindow core =
        detect_core_phase(trace, args.number_or("phase-threshold", 0.5));
    run.setup = Seconds{core.begin.value() - trace.t0().value()};
    run.core = core.duration();
    std::cout << "detected core phase: [" << to_string(core.begin) << ", "
              << to_string(core.end) << ")\n";
  } else {
    const double begin = args.number("core-begin");
    const double end = args.number("core-end");
    run.setup = Seconds{begin - trace.t0().value()};
    run.core = Seconds{end - begin};
  }
  args.reject_unknown();
  const auto g = analyze_window_gaming(trace, run);
  TextTable t({"quantity", "value"});
  t.add_row({"core phase average", to_string(g.full_core_avg)});
  t.add_row({"best legal window", to_string(g.best_window.mean)});
  t.add_row({"  at t =", to_string(g.best_window.window.begin)});
  t.add_row({"worst legal window", to_string(g.worst_window.mean)});
  t.add_row({"best-window reduction", fmt_percent(g.best_reduction, 1)});
  t.add_row({"legal-window spread", fmt_percent(g.spread, 1)});
  std::cout << t.render();
  std::cout << (g.best_reduction > 0.02
                    ? "verdict: window choice materially affects this run; "
                      "require the full core phase.\n"
                    : "verdict: profile is flat; window choice immaterial.\n");
  return 0;
}

int cmd_normality(const Args& args) {
  std::ifstream f(args.text("values"));
  if (!f) throw std::runtime_error("cannot open values file");
  std::vector<double> xs;
  double v;
  while (f >> v) xs.push_back(v);
  if (xs.size() < 8) throw std::runtime_error("need at least 8 values");
  const double alpha = args.number_or("alpha", 0.05);
  args.reject_unknown();
  const NormalityResult jb = jarque_bera(xs);
  const NormalityResult ad = anderson_darling(xs);
  TextTable t({"test", "statistic", "p-value", "verdict"});
  const auto verdict = [&](const NormalityResult& r) {
    return r.consistent_with_normal(alpha)
               ? std::string("consistent with normal")
               : std::string("REJECTS normality");
  };
  t.add_row({"Jarque-Bera", fmt_fixed(jb.statistic, 3),
             fmt_fixed(jb.p_value, 4), verdict(jb)});
  t.add_row({"Anderson-Darling", fmt_fixed(ad.statistic, 3),
             fmt_fixed(ad.p_value, 4), verdict(ad)});
  std::cout << "n = " << xs.size() << "\n" << t.render();
  std::cout << "(If normality is rejected, validate the sample-size rule by\n"
               "bootstrap coverage before trusting Equation 5 — see §4.2.)\n";
  return 0;
}

int cmd_tco(const Args& args) {
  TcoParams p;
  p.electricity_cost_per_kwh = args.number_or("cost-per-kwh", 0.15);
  p.pue = args.number_or("pue", 1.4);
  p.duty_cycle = args.number_or("duty", 0.85);
  p.years = args.number_or("years", 5.0);
  const TcoEstimate est = project_energy_cost(
      kilowatts(args.number("power-kw")), args.number("accuracy"), p);
  args.reject_unknown();
  TextTable t({"quantity", "value"});
  t.add_row({"annual energy cost", fmt_fixed(est.annual_energy_cost, 0)});
  t.add_row({"lifetime energy cost", fmt_fixed(est.lifetime_energy_cost, 0)});
  // Appended, not "[" + ...: GCC 12 flags that operator+ at -O3
  // (-Wrestrict, a false positive).
  std::string band = "[";
  band += fmt_fixed(est.lifetime_cost_ci.lo, 0);
  band += ", ";
  band += fmt_fixed(est.lifetime_cost_ci.hi, 0);
  band += "]";
  t.add_row({"uncertainty band", band});
  t.add_row({"value of 1 accuracy point",
             fmt_fixed(est.cost_per_accuracy_point, 0)});
  std::cout << t.render();
  return 0;
}

/// The synthetic campaign a `campaign`, `reconcile` or `collect` command
/// line names, as the service request it is: the node count, cv, level,
/// seed and meter interval every one of them takes.  A FIRESTARTER-style
/// constant-load run, typical CPU fleet spread scaled to the requested
/// cv, planned per the requested methodology level.
ServiceRequest synthetic_request(const Args& args, int default_level) {
  ServiceRequest req;
  req.nodes = static_cast<std::size_t>(args.number("nodes"));
  if (req.nodes < 2) throw std::runtime_error("--nodes must be >= 2");
  req.level = static_cast<int>(args.number_or("level", default_level));
  if (req.level < 1 || req.level > 3) {
    throw std::runtime_error("--level must be 1, 2 or 3");
  }
  req.seed = static_cast<std::uint64_t>(args.number_or("seed", 1.0));
  req.cv = args.number_or("cv", 0.02);
  req.interval_s = args.number_or("interval", 0.0);
  return req;
}

/// The rig a request names, materialized by the helpers the service uses,
/// so a command line and the equivalent request run the same campaign.
struct SyntheticRig {
  Scenario scenario;
  MeasurementPlan plan;
  CampaignConfig config;
};

SyntheticRig make_synthetic_rig(const ServiceRequest& req) {
  SyntheticRig rig;
  rig.scenario = build_scenario(scenario_spec_of(req));
  rig.plan = plan_of(req, rig.scenario);
  rig.config = campaign_config_of(req, rig.plan);
  return rig;
}

int cmd_campaign(const Args& args) {
  ServiceRequest req = synthetic_request(args, /*default_level=*/1);
  // Fault knobs: a named preset, optionally overridden field by field.
  req.faults = args.text_or("faults", "none");
  if (req.faults != "none" && req.faults != "mild" && req.faults != "harsh") {
    throw std::runtime_error("--faults must be none, mild or harsh");
  }
  req.dropout = args.rate_if("dropout");
  req.dead = static_cast<std::size_t>(args.number_or("dead", 0.0));
  req.byzantine = args.rate_or("byzantine", 0.0);
  req.reconcile = args.number_or("reconcile", 0.0) > 0.0;
  req.threads = static_cast<unsigned>(args.number_or("threads", 0.0));
  // Live mode: partial assessment documents stream to stdout as JSON
  // lines while the campaign runs; the final document (printed last) is
  // byte-identical to a non-live run's.
  const bool live = args.flag_or("live");
  const double live_every = args.number_or("live-every", 0.0);
  if (live_every > 0.0 && !live) {
    throw std::runtime_error("--live-every requires --live");
  }
  if (live_every < 0.0) {
    throw std::runtime_error("--live-every must be >= 0");
  }
  const bool json = args.flag_or("json");
  ReportOptions ropts;
  ropts.trace_stages = args.flag_or("trace-stages");
  args.reject_unknown();

  SyntheticRig rig = make_synthetic_rig(req);
  rig.config.live.enabled = live;
  rig.config.live.emit_every_s = live_every;
  if (live) {
    rig.config.live_sink = [](const std::string& line) { std::cout << line; };
  }
  const auto result = run_campaign(*rig.scenario.cluster,
                                   *rig.scenario.electrical, rig.plan,
                                   rig.config);
  const Document doc = assessment_document(rig.plan, result, ropts);
  std::cout << (json ? render_json(doc) : render_text(doc));
  return 0;
}

int cmd_reconcile(const Args& args) {
  // Level 3 by default: full node metering gives reconciliation both the
  // sibling cohort and fully metered racks to cross-validate.
  ServiceRequest req = synthetic_request(args, /*default_level=*/3);
  req.byzantine = args.rate_or("byzantine", 0.05);
  req.reconcile = args.number_or("defend", 1.0) > 0.0;
  const auto windows =
      static_cast<std::size_t>(args.number_or("windows", 16.0));
  req.threads = static_cast<unsigned>(args.number_or("threads", 0.0));
  const bool json = args.flag_or("json");
  ReportOptions ropts;
  ropts.trace_stages = args.flag_or("trace-stages");
  args.reject_unknown();

  SyntheticRig rig = make_synthetic_rig(req);
  rig.config.reconcile.analysis_windows = windows;
  const auto result = run_campaign(*rig.scenario.cluster,
                                   *rig.scenario.electrical, rig.plan,
                                   rig.config);
  const Document doc = assessment_document(rig.plan, result, ropts);
  std::cout << (json ? render_json(doc) : render_text(doc));
  return 0;
}

int cmd_collect(const Args& args) {
  ServiceRequest req = synthetic_request(args, /*default_level=*/1);
  req.dead = static_cast<std::size_t>(args.number_or("dead", 0.0));

  CollectorConfig config;
  config.transport.latency.base_s = args.number_or("latency", 20.0) / 1000.0;
  config.transport.latency.jitter_s = args.number_or("jitter", 30.0) / 1000.0;
  config.transport.drop_prob = args.rate_or("drop", 0.0);
  config.transport.duplicate_prob = args.rate_or("dup", 0.0);
  config.transport.blackhole_fraction = args.rate_or("blackhole", 0.0);

  config.poller.timeout_s = args.number_or("timeout", 1.0);
  config.poller.max_attempts =
      static_cast<std::size_t>(args.number_or("retries", 2.0)) + 1;
  config.poller.chunk_duration = Seconds{args.number_or("chunk", 60.0)};
  config.poller.breaker.open_after =
      static_cast<std::size_t>(args.number_or("breaker-after", 3.0));
  config.poller.breaker.cooldown_s = args.number_or("cooldown", 60.0);

  config.journal_path = args.text_or("checkpoint", "");
  config.resume = args.number_or("resume", 0.0) > 0.0;
  config.crash_after_meters =
      static_cast<std::size_t>(args.number_or("crash-after", 0.0));
  // The poller count, not the campaign's fan-out.
  config.threads = static_cast<unsigned>(args.number_or("threads", 4.0));
  const bool json = args.flag_or("json");
  ReportOptions ropts;
  ropts.trace_stages = args.flag_or("trace-stages");
  args.reject_unknown();

  SyntheticRig rig = make_synthetic_rig(req);
  config.campaign = rig.config;
  const CollectionOutcome outcome = collect_campaign(
      *rig.scenario.cluster, *rig.scenario.electrical, rig.plan, config);
  // Progress to stderr; the report alone on stdout so a clean run and a
  // kill-and-resume pair diff byte-identical.
  std::cerr << "collect: " << outcome.meters_polled << " meters polled, "
            << outcome.meters_resumed << " resumed from journal";
  if (outcome.journal_torn_lines > 0) {
    std::cerr << ", " << outcome.journal_torn_lines << " torn journal lines";
  }
  std::cerr << "\n";
  const Document doc = assessment_document(rig.plan, outcome.result, ropts);
  std::cout << (json ? render_json(doc) : render_text(doc));
  return 0;
}

/// Severity order for the batch exit code: the worst thing that happened
/// to any request wins.  Corrupt cache (refused data) outranks a blown
/// deadline outranks load shedding outranks other failures.
int serve_exit_code(const std::vector<ServiceResponse>& responses) {
  int worst = 0;
  for (const auto& resp : responses) {
    int rank = 0;
    switch (resp.code) {
      case ResponseCode::kOk:
      case ResponseCode::kCheckpointed:
        rank = 0;
        break;
      case ResponseCode::kCacheCorrupt:
        rank = 7;
        break;
      case ResponseCode::kDeadlineExceeded:
        rank = 6;
        break;
      case ResponseCode::kShed:
        rank = 5;
        break;
      default:
        rank = 1;
        break;
    }
    worst = std::max(worst, rank);
  }
  return worst;
}

/// One response as its human-readable line.  `seq` tags streaming-mode
/// lines with the request's submission index ("#N "), mirroring the
/// JSON rendering's "seq" field.
void print_response_text(const ServiceResponse& resp, long seq = -1) {
  if (seq >= 0) std::cout << "#" << seq << " ";
  std::cout << "request " << (resp.id.empty() ? "(invalid)" : resp.id) << ": "
            << to_string(resp.code);
  if (resp.code == ResponseCode::kShed) {
    std::cout << " (retry after " << fmt_fixed(resp.retry_after_s, 1) << "s)";
  }
  if (!resp.fault_injected.empty()) {
    std::cout << " [chaos: " << resp.fault_injected << "]";
  }
  if (!resp.message.empty()) std::cout << " — " << resp.message;
  std::cout << "\n";
}

void print_drain_report(const DrainReport& report, bool json) {
  if (json) {
    std::cout << "{\"schema\":\"powervar-drain-v1\",\"submitted\":"
              << report.submitted << ",\"invalid\":" << report.invalid
              << ",\"shed\":" << report.shed
              << ",\"admitted\":" << report.admitted
              << ",\"completed\":" << report.completed
              << ",\"checkpointed\":" << report.checkpointed
              << ",\"workers_replaced\":" << report.workers_replaced
              << ",\"cache\":{\"hits\":" << report.cache.hits
              << ",\"misses\":" << report.cache.misses
              << ",\"quarantined\":" << report.cache.quarantined
              << ",\"evicted\":" << report.cache.evicted
              << ",\"disk_hits\":" << report.cache.disk_hits
              << ",\"spills\":" << report.cache.spills << "}";
    // std::map iteration: tenants render sorted by name, deterministic.
    std::cout << ",\"tenants\":{";
    bool first = true;
    for (const auto& [tenant, t] : report.tenants) {
      if (!first) std::cout << ",";
      first = false;
      std::cout << "\"" << tenant << "\":{\"submitted\":" << t.submitted
                << ",\"shed\":" << t.shed << ",\"admitted\":" << t.admitted
                << ",\"completed\":" << t.completed
                << ",\"checkpointed\":" << t.checkpointed << "}";
    }
    std::cout << "}}\n";
  } else {
    std::cout << "drain: " << report.submitted << " submitted, "
              << report.invalid << " invalid, " << report.shed << " shed, "
              << report.admitted << " admitted, " << report.completed
              << " completed, " << report.checkpointed << " checkpointed, "
              << report.workers_replaced << " workers replaced; cache "
              << report.cache.hits << " hits / " << report.cache.misses
              << " misses / " << report.cache.quarantined
              << " quarantined / " << report.cache.evicted << " evicted / "
              << report.cache.disk_hits << " disk hits / "
              << report.cache.spills << " spills\n";
    for (const auto& [tenant, t] : report.tenants) {
      std::cout << "tenant " << tenant << ": " << t.submitted
                << " submitted, " << t.shed << " shed, " << t.admitted
                << " admitted, " << t.completed << " completed, "
                << t.checkpointed << " checkpointed\n";
    }
  }
}

int cmd_serve(const Args& args) {
  std::string requests_path;
  std::string resume_path;
  ServiceConfig config;
  bool json = false;
  bool stream = false;
  double drain_after = -1.0;  // < 0: disabled; K >= 0: hold past the Kth
  try {
    resume_path = args.text_or("resume", "");
    requests_path = args.text_or("requests", "");
    if (requests_path.empty() && resume_path.empty()) {
      throw std::runtime_error("missing required option --requests");
    }
    config.workers = static_cast<unsigned>(args.number_or("workers", 2.0));
    config.max_queue = static_cast<std::size_t>(args.number_or("queue", 8.0));
    config.default_deadline_ms = args.number_or("deadline-ms", 0.0);
    config.retry_after_s = args.number_or("retry-after", 1.0);
    config.cache_capacity =
        static_cast<std::size_t>(args.number_or("cache", 8.0));
    config.strict_cache = args.flag_or("strict-cache");
    config.cache_dir = args.text_or("cache-dir", "");
    config.checkpoint_path = args.text_or("checkpoint", "");
    config.tenant_queue =
        static_cast<std::size_t>(args.number_or("tenant-queue", 0.0));
    config.crash_after_checkpoints =
        static_cast<std::size_t>(args.number_or("crash-after", 0.0));
    drain_after = args.number_or("drain-after", -1.0);
    config.chaos.seed =
        static_cast<std::uint64_t>(args.number_or("chaos-seed", 0.0));
    config.chaos.throw_prob = args.rate_or("chaos-throw", 0.0);
    config.chaos.stall_prob = args.rate_or("chaos-stall", 0.0);
    config.chaos.cache_corrupt_prob = args.rate_or("chaos-cache", 0.0);
    config.chaos.worker_death_prob = args.rate_or("chaos-death", 0.0);
    config.chaos.drain_after =
        static_cast<std::size_t>(args.number_or("chaos-drain-after", 0.0));
    json = args.flag_or("json");
    stream = args.flag_or("stream");
    // Accepted for forward compatibility: the CLI always runs one batch
    // (submit every line, answer every ticket, drain) — a resident
    // deployment drives CampaignService directly.
    (void)args.flag_or("once");
    if (config.crash_after_checkpoints > 0 && config.checkpoint_path.empty()) {
      throw std::runtime_error("--crash-after needs a --checkpoint journal");
    }
    args.reject_unknown();
  } catch (const std::exception& e) {
    // Everything above is command-line validation, not campaign failure.
    throw UsageError(e.what());
  }

  // The cache treats an unusable directory as memory-only; the CLI's
  // job is to make a merely-absent one usable.  Best effort: if the
  // path cannot be created the batch still runs, just without spills.
  if (!config.cache_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.cache_dir, ec);
  }

  std::ifstream file;
  std::istream* in = nullptr;
  if (!requests_path.empty()) {
    if (requests_path == "-") {
      in = &std::cin;
    } else {
      file.open(requests_path);
      if (!file) {
        throw UsageError("cannot open requests file '" + requests_path + "'");
      }
      in = &file;
    }
  }

  CampaignService service(config);

  // The streaming front-end prints each response the moment it
  // completes, tagged with its submission index ("seq"), from a single
  // consumer thread; batch mode collects everything and prints in
  // submission order.  Either way the transcript is a deterministic
  // *set* of lines.
  std::vector<ServiceResponse> responses;  // for the exit code
  std::mutex resp_mu;
  std::thread consumer;
  if (stream) {
    consumer = std::thread([&] {
      while (const auto ticket = service.next_completed()) {
        const ServiceResponse resp = service.wait(*ticket);
        if (json) {
          std::cout << render_response_json(resp, *ticket) << "\n";
        } else {
          print_response_text(resp, static_cast<long>(*ticket));
        }
        std::cout.flush();
        std::unique_lock lock(resp_mu);
        responses.push_back(resp);
      }
    });
  }

  // Submission sequence: resumed checkpoint records first (their WAL
  // order), then the request file.  --drain-after K dispatches the first
  // K submissions normally and admits the rest held-for-drain, making
  // the completed-vs-checkpointed split deterministic at any worker
  // count.
  std::vector<std::size_t> tickets;
  std::vector<std::size_t> dispatched;
  const auto held = [&] {
    return drain_after >= 0.0 &&
           tickets.size() >= static_cast<std::size_t>(drain_after);
  };
  if (!resume_path.empty()) {
    const ResumeOutcome resumed = service.resume_from(resume_path);
    std::cerr << "serve: resumed " << resumed.tickets.size()
              << " checkpointed request(s)";
    if (resumed.duplicates > 0) {
      std::cerr << ", dropped " << resumed.duplicates << " duplicate(s)";
    }
    std::cerr << "\n";
    for (const std::size_t ticket : resumed.tickets) {
      tickets.push_back(ticket);
      dispatched.push_back(ticket);
    }
  }
  if (in != nullptr) {
    std::string line;
    while (std::getline(*in, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      const bool hold = held();
      tickets.push_back(service.submit_line(line, hold).ticket);
      if (!hold) dispatched.push_back(tickets.back());
    }
  }

  // Wait for everything dispatchable, then drain (checkpointing the
  // held remainder).  A simulated crash-mid-drain must still join the
  // consumer before unwinding to the exit-code mapping.
  for (const std::size_t ticket : dispatched) (void)service.wait(ticket);
  DrainReport report;
  try {
    report = service.drain();
  } catch (...) {
    if (consumer.joinable()) consumer.join();
    throw;
  }
  if (consumer.joinable()) consumer.join();

  if (!stream) {
    responses.reserve(tickets.size());
    for (const std::size_t ticket : tickets) {
      responses.push_back(service.wait(ticket));
    }
    for (const auto& resp : responses) {
      if (json) {
        std::cout << render_response_json(resp) << "\n";
      } else {
        print_response_text(resp);
      }
    }
  }
  print_drain_report(report, json);
  std::unique_lock lock(resp_mu);
  return serve_exit_code(responses);
}

int usage() {
  std::cerr <<
      "usage: powervar <command> [--option value ...]\n"
      "commands:\n"
      "  sample-size --nodes N --cv F --lambda F [--alpha F]\n"
      "  accuracy    --nodes N --cv F --n K [--alpha F]\n"
      "  audit       --trace FILE (--core-begin S --core-end S |\n"
      "               --auto-phases 1 [--phase-threshold F])\n"
      "  normality   --values FILE [--alpha F]\n"
      "  tco         --power-kw F --accuracy F [--cost-per-kwh F] [--pue F]"
      " [--duty F] [--years F]\n"
      "  campaign    --nodes N [--cv F] [--level 1|2|3] [--seed S]\n"
      "              [--faults none|mild|harsh] [--dropout F] [--dead N]"
      " [--interval S]\n"
      "              [--byzantine F] [--reconcile 1] [--threads N]\n"
      "              [--live] [--live-every S]\n"
      "              [--json] [--trace-stages]\n"
      "  reconcile   --nodes N [--cv F] [--seed S] [--byzantine F]\n"
      "              [--defend 0|1] [--windows K] [--threads N]"
      " [--interval S]\n"
      "              [--json] [--trace-stages]\n"
      "  collect     --nodes N [--cv F] [--level 1|2|3] [--seed S]\n"
      "              [--drop F] [--dup F] [--blackhole F] [--dead N]\n"
      "              [--latency MS] [--jitter MS] [--timeout S]"
      " [--retries K]\n"
      "              [--chunk S] [--breaker-after K] [--cooldown S]\n"
      "              [--threads N] [--interval S] [--checkpoint FILE]\n"
      "              [--resume 1] [--crash-after K] [--json]"
      " [--trace-stages]\n"
      "  serve       --requests FILE|- [--resume CHECKPOINT] [--stream]\n"
      "              [--once] [--workers N] [--queue N] [--tenant-queue N]\n"
      "              [--deadline-ms MS] [--retry-after S] [--cache N]\n"
      "              [--strict-cache] [--cache-dir DIR]"
      " [--checkpoint FILE]\n"
      "              [--drain-after K] [--crash-after K] [--json]\n"
      "              [--chaos-seed S] [--chaos-throw F] [--chaos-stall F]\n"
      "              [--chaos-cache F] [--chaos-death F]"
      " [--chaos-drain-after K]\n"
      "options accept '--key value' or '--key=value';\n"
      "--json, --trace-stages, --once, --stream, --strict-cache and --live "
      "may also appear bare.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (cmd == "sample-size") return cmd_sample_size(args);
    if (cmd == "accuracy") return cmd_accuracy(args);
    if (cmd == "audit") return cmd_audit(args);
    if (cmd == "normality") return cmd_normality(args);
    if (cmd == "tco") return cmd_tco(args);
    if (cmd == "campaign") return cmd_campaign(args);
    if (cmd == "reconcile") return cmd_reconcile(args);
    if (cmd == "collect") return cmd_collect(args);
    if (cmd == "serve") return cmd_serve(args);
    std::cerr << "unknown command: " << cmd << "\n";
    return usage();
  } catch (const UsageError& e) {
    std::cerr << "powervar " << cmd << ": " << e.what() << '\n';
    return usage();
  } catch (const pv::ScenarioError& e) {
    // A scenario the builders refuse to construct (zero/absurd node
    // count, sample accounting past 2^53): bad input, exit code 2.
    std::cerr << "powervar " << cmd << ": " << e.what() << '\n';
    return usage();
  } catch (const pv::CollectionAborted& e) {
    // The simulated crash (--crash-after): the journal on disk is valid
    // and a --resume run will finish the campaign.
    std::cerr << "powervar " << cmd << ": " << e.what() << '\n';
    return 3;
  } catch (const pv::ServiceAbortedError& e) {
    // serve's simulated crash-mid-drain: same contract as collect's —
    // the checkpoint journal keeps a valid prefix, resume finishes it.
    std::cerr << "powervar " << cmd << ": " << e.what() << '\n';
    return 3;
  } catch (const pv::CheckpointError& e) {
    // A resume journal the service refuses to trust (missing, torn,
    // foreign fingerprint, bad record): a distinct exit code, and no
    // partial or forged responses were emitted.
    std::cerr << "powervar " << cmd << ": " << e.what() << '\n';
    return 8;
  } catch (const pv::NoUsableDataError& e) {
    // Every meter in scope was lost: there is no number to submit, which
    // is a campaign outcome, not a usage error.
    std::cerr << "powervar " << cmd << ": " << e.what() << '\n';
    return 4;
  } catch (const std::exception& e) {
    std::cerr << "powervar " << cmd << ": " << e.what() << '\n'
              << "(run 'powervar' without arguments for usage)\n";
    return 1;
  }
}
