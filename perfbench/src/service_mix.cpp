// The service_mix workload: a CampaignService with 2 workers, driven as a
// closed loop by one generator thread that keeps 4 requests in flight —
// `serve` callers wait for their replies, so the backlog stays bounded.
//
// The run is a sequence of batches.  Each batch constructs a fresh
// service, pushes kBatch requests through it, drains it and keeps only
// its summary, so memory and cache temperature do not depend on how fast
// the service is.  A seeded sample of each batch's responses is replayed solo with
// scenario_spec_of / plan_of / campaign_config_of and must match byte for
// byte; traced runs time those replays stage by stage.

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/campaign.hpp"
#include "core/doc.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "service/request.hpp"
#include "service/service.hpp"
#include "util/parallel.hpp"

namespace pvb {
namespace {

constexpr unsigned kWorkers = 2;
/// Room for the 4 reused scenarios next to the fresh ones (serve --cache).
constexpr std::size_t kCacheCapacity = 16;
constexpr std::size_t kInFlight = 4;
/// Requests per service instance.  A batch is also the window the
/// end-to-end metrics are taken over: 1000 requests leave ten beyond the
/// window's p99.
constexpr std::size_t kBatch = 1000;
/// Responses per batch replayed solo (untraced run / traced phase).
constexpr std::size_t kSampledPlain = 1;
constexpr std::size_t kSampledTraced = 8;
/// |submitted - true| / true every replayed campaign must stay within.
constexpr double kTruthBound = 0.05;

/// The seeded request stream: 256 or 1024 nodes, levels L1/L1/L2/L3, a
/// 30 s interval, 3 tenants, ~40% of requests on one of 4 reused
/// scenarios (cache hits), half of them asking for threads=2.
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed) : rng_(seed) {
    for (std::uint64_t& s : hot_) s = 1 + rng_() % (1u << 20);
  }

  pv::ServiceRequest next() {
    static constexpr int kLevels[4] = {1, 1, 2, 3};
    pv::ServiceRequest req;
    req.id = "r" + std::to_string(count_++);
    req.level = kLevels[rng_() % 4];
    req.interval_s = 30.0;
    req.tenant = "tenant" + std::to_string(rng_() % 3);
    if (rng_() % 10 < 4) {
      // A reused scenario: the cache key is (nodes, cv, seed), so each
      // hot seed keeps one node count.
      const std::size_t k = rng_() % 4;
      req.seed = hot_[k];
      req.nodes = k % 2 == 0 ? 256 : 1024;
    } else {
      // Fresh seeds sit above the hot range, so only hot scenarios repeat.
      req.seed = (1u << 20) + rng_() % (1ull << 40);
      req.nodes = rng_() % 2 == 0 ? 256 : 1024;
    }
    req.threads = rng_() % 2 == 0 ? 2 : 1;
    return req;
  }

  std::size_t pick(std::size_t n) { return rng_() % n; }

 private:
  std::mt19937_64 rng_;
  std::uint64_t hot_[4] = {};
  std::size_t count_ = 0;
};

pv::ServiceConfig service_config() {
  pv::ServiceConfig config;
  config.workers = kWorkers;
  config.cache_capacity = kCacheCapacity;
  return config;
}

/// Set-up time: constructing the service, the fastest decile of repeated
/// constructions (each instance is drained and destroyed untimed).
double setup_seconds() {
  std::vector<double> s;
  const auto start = Clock::now();
  while (s.size() < 20 || ms_between(start, Clock::now()) < 250.0) {
    const auto t0 = Clock::now();
    pv::CampaignService service(service_config());
    s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  return fastest_decile_time(s);
}

/// One request replayed outside the service.
struct Solo {
  std::string doc;
  pv::CampaignResult result;
  Spans spans;  ///< traced: plan, each stage, render
  double build_ms = 0.0;
  double wall_ms = 0.0;  ///< plan -> rendered document (build excluded)
};

Solo run_solo(const pv::ServiceRequest& req, bool traced) {
  Solo out;
  const auto t0 = Clock::now();
  const pv::Scenario sc = pv::build_scenario(pv::scenario_spec_of(req));
  const auto t1 = Clock::now();
  const pv::MeasurementPlan plan = pv::plan_of(req, sc);
  if (traced) out.spans.emplace_back("plan", ms_between(t1, Clock::now()));
  const pv::CampaignConfig config = pv::campaign_config_of(req, plan);
  std::vector<pv::StagePtr> stages = pv::make_campaign_stages(plan, config);
  if (traced) stages = timed(std::move(stages), out.spans);
  out.result = pv::run_campaign_stages(*sc.cluster, *sc.electrical, plan,
                                       config, stages);
  const auto t2 = Clock::now();
  out.doc = pv::render_json(pv::assessment_document(plan, out.result));
  const auto t3 = Clock::now();
  if (traced) out.spans.emplace_back("render", ms_between(t2, t3));
  out.build_ms = ms_between(t0, t1);
  out.wall_ms = ms_between(t1, t3);
  return out;
}

struct Sampled {
  pv::ServiceRequest request;
  std::string assessment_json;
  double latency_ms = 0.0;
};

struct Batch {
  double wall_ms = 0.0;
  double drain_ms = 0.0;
  std::size_t completed = 0;
  std::size_t samples = 0;
  std::size_t spawning = 0;  ///< requests asking for threads=2
  double p50_ms = 0.0;       ///< submit -> completion, over the batch
  double p99_ms = 0.0;
  std::vector<double> submit_us;
  std::vector<Sampled> sampled;
  pv::DrainReport drain;
};

/// Metered samples of a request: a function of its node count and level
/// only (plans differ by seed in which nodes they pick, not how many).
class SampleTable {
 public:
  std::size_t of(const pv::ServiceRequest& req) {
    const std::size_t key = req.nodes * 4 + static_cast<std::size_t>(req.level);
    for (const auto& [k, v] : entries_) {
      if (k == key) return v;
    }
    pv::ServiceRequest probe = req;
    probe.seed = 1;
    const Solo solo = run_solo(probe, false);
    const pv::StageTrace* meter = find_stage(solo.result, "meter");
    const std::size_t samples = meter != nullptr ? meter->samples : 0;
    entries_.emplace_back(key, samples);
    return samples;
  }

 private:
  std::vector<std::pair<std::size_t, std::size_t>> entries_;
};

Batch run_batch(RequestStream& stream, SampleTable& table, Tally& tally,
                std::size_t n_sampled, bool traced) {
  Batch b;
  std::vector<pv::ServiceRequest> reqs;
  reqs.reserve(kBatch);
  std::vector<bool> sampled(kBatch, false);
  for (std::size_t i = 0; i < kBatch; ++i) reqs.push_back(stream.next());
  for (std::size_t i = 0; i < n_sampled; ++i) sampled[stream.pick(kBatch)] = true;
  for (const pv::ServiceRequest& r : reqs) {
    b.samples += table.of(r);
    b.spawning += r.threads >= 2 ? 1 : 0;
  }
  std::vector<double> latency_ms(kBatch, 0.0);

  pv::CampaignService service(service_config());

  std::vector<Clock::time_point> sent(kBatch);
  std::vector<std::size_t> index_of_ticket(kBatch, kBatch);
  std::size_t next = 0;
  const auto submit = [&] {
    sent[next] = Clock::now();
    const pv::AdmissionVerdict v = service.submit(reqs[next]);
    if (traced) {
      b.submit_us.push_back(ms_between(sent[next], Clock::now()) * 1000.0);
    }
    if (v.ticket < kBatch) index_of_ticket[v.ticket] = next;
    ++next;
  };

  const auto start = Clock::now();
  while (next < kInFlight && next < kBatch) submit();
  while (b.completed < kBatch) {
    const std::optional<std::size_t> ticket = service.next_completed();
    if (!ticket) break;
    const auto done = Clock::now();
    const std::size_t i = *ticket < kBatch ? index_of_ticket[*ticket] : kBatch;
    const pv::ServiceResponse resp = service.wait(*ticket);
    ++b.completed;
    tally.operation(resp.code == pv::ResponseCode::kOk && i < kBatch,
                    "request " + resp.id + ": " + pv::to_string(resp.code) +
                        " " + resp.message);
    if (i < kBatch) {
      latency_ms[i] = ms_between(sent[i], done);
      if (sampled[i]) {
        b.sampled.push_back({reqs[i], resp.assessment_json, latency_ms[i]});
      }
    }
    if (next < kBatch) submit();
  }
  b.wall_ms = ms_between(start, Clock::now());
  b.p50_ms = median(latency_ms);
  b.p99_ms = quantile(latency_ms, 0.99);
  const auto d0 = Clock::now();
  b.drain = service.drain();
  b.drain_ms = ms_between(d0, Clock::now());
  tally.record(b.completed == kBatch,
               "service completed " + std::to_string(b.completed) + " of " +
                   std::to_string(kBatch) + " requests");
  tally.record(b.drain.cache.hits + b.drain.cache.misses == b.drain.admitted,
               "cache hits + misses != requests admitted");
  return b;
}

/// Replays one sampled response solo and checks it.
Solo check_sampled(const Sampled& s, Tally& tally, bool traced) {
  Solo solo = run_solo(s.request, traced);
  tally.record(solo.doc == s.assessment_json,
               "response " + s.request.id + " differs from its solo replay");
  tally.record(solo.result.relative_error <= kTruthBound,
               "submitted power off true power by " +
                   std::to_string(solo.result.relative_error));
  tally.record(std::isfinite(solo.result.node_mean_ci.lo) &&
                   std::isfinite(solo.result.node_mean_ci.hi),
               "Eq. 1 confidence interval is not finite");
  return solo;
}

/// A sequence of batches and each batch's window metrics.
struct Phase {
  std::vector<Batch> batches;
  std::size_t completed = 0;
  std::vector<double> campaigns_per_s;
  std::vector<double> samples_per_s;
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
};

Phase run_phase(RequestStream& stream, SampleTable& table, Tally& tally,
                double budget_ms, std::size_t n_sampled, bool traced) {
  Phase p;
  double elapsed = 0.0;
  do {
    p.batches.push_back(run_batch(stream, table, tally, n_sampled, traced));
    const Batch& b = p.batches.back();
    elapsed += b.wall_ms + b.drain_ms;
    const double wall_s = b.wall_ms / 1000.0;
    p.completed += b.completed;
    p.campaigns_per_s.push_back(b.completed / wall_s);
    p.samples_per_s.push_back(b.samples / wall_s);
    p.p50_ms.push_back(b.p50_ms);
    p.p99_ms.push_back(b.p99_ms);
  } while (elapsed < budget_ms);
  return p;
}

}  // namespace

Report run_service_mix(const Options& opt) {
  Report rep;
  rep.note("workload: service_mix: CampaignService, 2 workers, closed loop of "
           "one generator holding 4 requests in flight, batches of " +
           std::to_string(kBatch) +
           " requests per service instance; requests: 256|1024 nodes, "
           "L1/L1/L2/L3, 30 s interval, 3 tenants, ~40% on 4 reused "
           "scenario seeds, half at threads=2");
  const double setup_s = setup_seconds();
  RequestStream stream(opt.seed);
  SampleTable table;
  const double budget_ms = opt.seconds * 1000.0;

  // Warm-up: one untimed batch, so lazy set-up is not in the timings.
  (void)run_batch(stream, table, rep.tally, 0, false);
  rep.note("warm-up: one batch before timing, excluded from the timings");

  if (!opt.trace) {
    const Phase p = run_phase(stream, table, rep.tally, budget_ms,
                              kSampledPlain, false);
    for (const Batch& b : p.batches) {
      for (const Sampled& s : b.sampled) (void)check_sampled(s, rep.tally, false);
    }
    const std::string n = "fastest decile of " +
                          std::to_string(p.batches.size()) + " batches of " +
                          std::to_string(kBatch) + " requests";
    rep.add("samples_per_s", fastest_decile_rate(p.samples_per_s), "1/s", n);
    rep.add("campaigns_per_s", fastest_decile_rate(p.campaigns_per_s), "1/s",
            n);
    rep.add("latency_p50_ms", fastest_decile_time(p.p50_ms), "ms",
            "per-batch median submit -> completion, " + n);
    rep.add("latency_tail_ms", fastest_decile_time(p.p99_ms), "ms",
            "per-batch p99 (10 requests beyond), " + n);
    rep.add("setup_s", setup_s, "s",
            "service construction, fastest decile over 0.25 s of "
            "constructions");
    rep.note("all " + std::to_string(p.batches.size()) +
             " batches: median of the per-batch p50 " +
             std::to_string(median(p.p50_ms)) + " ms and p99 " +
             std::to_string(median(p.p99_ms)) + " ms");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB", "whole process");
    return rep;
  }

  // --- traced run: an untraced half, then a traced half ----------------
  const Phase plain =
      run_phase(stream, table, rep.tally, budget_ms / 2.0, 0, false);
  const Phase tr = run_phase(stream, table, rep.tally, budget_ms / 2.0,
                             kSampledTraced, true);

  std::vector<double> submit_us, drain_ms, queue_wait, solo_ms, build_ms,
      plan_ms, render_ms, render_bytes, unattributed, rel_err, ns_per_sample,
      meter_samples;
  std::vector<std::pair<std::string, std::vector<double>>> stage_ms;
  std::size_t hits = 0, misses = 0, evicted = 0, shed = 0, spawning = 0;
  for (const Batch& b : tr.batches) {
    submit_us.insert(submit_us.end(), b.submit_us.begin(), b.submit_us.end());
    drain_ms.push_back(b.drain_ms);
    hits += b.drain.cache.hits;
    misses += b.drain.cache.misses;
    evicted += b.drain.cache.evicted;
    shed += b.drain.shed;
    spawning += b.spawning;
    for (const Sampled& s : b.sampled) {
      const Solo solo = check_sampled(s, rep.tally, true);
      // Thread invariance: the same request with its thread count flipped.
      pv::ServiceRequest flipped = s.request;
      flipped.threads = s.request.threads >= 2 ? 1 : 2;
      rep.tally.record(run_solo(flipped, false).doc == solo.doc,
                       "document differs between threads=1 and 2");
      solo_ms.push_back(solo.wall_ms);
      queue_wait.push_back(s.latency_ms - solo.wall_ms);
      build_ms.push_back(solo.build_ms);
      plan_ms.push_back(span_ms(solo.spans, "plan"));
      render_ms.push_back(span_ms(solo.spans, "render"));
      render_bytes.push_back(static_cast<double>(solo.doc.size()));
      unattributed.push_back(solo.wall_ms - span_sum_ms(solo.spans));
      rel_err.push_back(solo.result.relative_error);
      for (const auto& [stage, ms] : solo.spans) {
        if (stage == "plan" || stage == "render") continue;
        auto it = stage_ms.begin();
        while (it != stage_ms.end() && it->first != stage) ++it;
        if (it == stage_ms.end()) {
          stage_ms.emplace_back(stage, std::vector<double>{});
          it = stage_ms.end() - 1;
        }
        it->second.push_back(ms);
      }
      const pv::StageTrace* meter = find_stage(solo.result, "meter");
      if (meter != nullptr && meter->samples > 0) {
        meter_samples.push_back(static_cast<double>(meter->samples));
        ns_per_sample.push_back(span_ms(solo.spans, "meter") * 1e6 /
                                static_cast<double>(meter->samples));
      }
    }
  }

  // Pool start-up and join, as every threads=2 campaign pays it per stage.
  std::vector<double> pool_us;
  for (int i = 0; i < 100; ++i) {
    const auto t0 = Clock::now();
    pv::ThreadPool pool(2);
    pool.shutdown();
    pool_us.push_back(ms_between(t0, Clock::now()) * 1000.0);
  }

  const std::string ns = "n=" + std::to_string(solo_ms.size()) +
                         " solo replays of sampled requests";
  for (const auto& [stage, v] : stage_ms) {
    rep.add(stage + ".ms", median(v), "ms", ns);
  }
  rep.add("meter.samples", median(meter_samples), "count", "median, " + ns);
  rep.add("meter.ns_per_sample", median(ns_per_sample), "ns", ns);
  rep.add("assess.relative_error", median(rel_err), "ratio", ns);
  rep.add("scenario.build_ms", median(build_ms), "ms",
          "build_scenario of a request's spec (a cache miss), " + ns);
  rep.add("plan.ms", median(plan_ms), "ms", ns);
  rep.add("render.ms", median(render_ms), "ms", ns);
  rep.add("render.bytes", median(render_bytes), "bytes", ns);
  rep.add("service.submit_us", median(submit_us), "us",
          "n=" + std::to_string(submit_us.size()) + " submit() calls");
  rep.add("service.solo_ms", median(solo_ms), "ms",
          "plan -> rendered document, scenario build excluded, " + ns);
  rep.add("service.queue_wait_ms", median(queue_wait), "ms",
          "latency minus solo replay, " + ns);
  rep.add("service.cache_hit_ratio",
          static_cast<double>(hits) / static_cast<double>(hits + misses),
          "ratio",
          std::to_string(hits) + " hits / " + std::to_string(hits + misses) +
              " acquires");
  const double n_batches = static_cast<double>(tr.batches.size());
  rep.add("service.cache_evicted", static_cast<double>(evicted) / n_batches,
          "count", "per " + std::to_string(kBatch) + "-request batch");
  rep.add("service.drain_ms", median(drain_ms), "ms",
          "n=" + std::to_string(tr.batches.size()) + " batches");
  rep.add("service.shed", static_cast<double>(shed), "count",
          "of " + std::to_string(tr.completed) + " requests");
  rep.add("pool.start_join_us", median(pool_us), "us",
          "ThreadPool(2) construct + shutdown, n=100");
  rep.add("pool.campaigns_spawning", static_cast<double>(spawning) / n_batches,
          "count",
          "threads=2 requests per " + std::to_string(kBatch) +
              "-request batch");
  rep.add("trace.unattributed_ms", median(unattributed), "ms",
          "solo wall minus plan, stage and render spans, " + ns);
  const double plain_rate = fastest_decile_rate(plain.campaigns_per_s);
  rep.add("trace.overhead_frac",
          plain_rate / fastest_decile_rate(tr.campaigns_per_s) - 1.0, "ratio",
          "traced vs untraced fastest-decile time per request (" +
              std::to_string(plain.completed) + " untraced requests)");
  return rep;
}

}  // namespace pvb
