#include "collect/collector.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "trace/wal.hpp"
#include "util/expects.hpp"
#include "util/parallel.hpp"

namespace pv {
namespace {

std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  return mix_streams(h, v);
}

std::uint64_t mix_f64(std::uint64_t h, double v) {
  return mix_u64(h, std::bit_cast<std::uint64_t>(v));
}

/// The poll-time knobs that decide what a resumed run must match.
std::uint64_t fingerprint_config(std::uint64_t h,
                                 const CollectorConfig& config) {
  const CampaignConfig& c = config.campaign;
  h = mix_u64(h, c.seed);
  h = mix_f64(h, c.meter_interval_override.value());
  h = mix_f64(h, c.meter_accuracy.gain_error_sd);
  h = mix_f64(h, c.meter_accuracy.offset_error_sd_w);
  h = mix_f64(h, c.meter_accuracy.noise_sd);

  const TransportSpec& t = config.transport;
  h = mix_f64(h, t.latency.base_s);
  h = mix_f64(h, t.latency.jitter_s);
  h = mix_f64(h, t.drop_prob);
  h = mix_f64(h, t.duplicate_prob);
  h = mix_f64(h, t.blackhole_fraction);
  for (std::size_t m : t.blackhole_meters) h = mix_u64(h, m);
  for (std::size_t m : c.faults.dead_meters) h = mix_u64(h, m);

  const PollerConfig& p = config.poller;
  h = mix_f64(h, p.timeout_s);
  h = mix_u64(h, p.max_attempts);
  h = mix_u64(h, p.breaker.enabled ? 1 : 0);
  h = mix_u64(h, p.breaker.open_after);
  h = mix_f64(h, p.breaker.cooldown_s);
  h = mix_f64(h, p.chunk_duration.value());
  return h;
}

/// How many meters are polled at a time, and so how many workers the
/// makespan model divides busy time over.
unsigned effective_workers(const CollectorConfig& config) {
  if (config.threads > 0) return config.threads;
  return default_pool().size();
}

}  // namespace

std::uint64_t collection_fingerprint(const MeasurementPlan& plan,
                                     const CollectorConfig& config) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  h = mix_u64(h, static_cast<std::uint64_t>(plan.point));
  h = mix_u64(h, static_cast<std::uint64_t>(plan.timing));
  h = mix_u64(h, static_cast<std::uint64_t>(plan.conversion));
  h = mix_u64(h, static_cast<std::uint64_t>(plan.meter_mode));
  h = mix_f64(h, plan.meter_interval.value());
  h = mix_f64(h, plan.spot_duration.value());
  h = mix_f64(h, plan.vendor_nominal_efficiency);
  h = mix_f64(h, plan.window.begin.value());
  h = mix_f64(h, plan.window.end.value());
  h = mix_u64(h, plan.node_count());
  for (std::size_t node : plan.node_indices) h = mix_u64(h, node);
  // The makespan printed in the report divides busy time by the worker
  // count, so a resume must also match it to stay byte-identical.
  h = mix_u64(h, effective_workers(config));
  return fingerprint_config(h, config);
}

namespace {

// The asynchronous collection path as a pipeline Meter stage: transport
// polling with retries, circuit breakers and crash-safe journaling fills
// the same `devices` + `readings` artifacts the node-tap engine produces,
// from the lanes and windows Provision derived, so collect_campaign runs
// the campaign's own stage list with only the Meter slot swapped.  Each
// device carries its meter's sample tallies for Repair; the collection
// tallies (polls, retries, breakers, makespan) have no other stage to
// feed and go straight into DataQuality::collection.
class AsyncMeterStage final : public CampaignStage {
 public:
  AsyncMeterStage(const CollectorConfig& config, CollectionOutcome& outcome)
      : config_(config), outcome_(outcome) {}

  [[nodiscard]] const char* name() const override { return "meter"; }

  void run(CampaignContext& ctx, StageTrace& trace) override;

 private:
  const CollectorConfig& config_;
  CollectionOutcome& outcome_;
};

void AsyncMeterStage::run(CampaignContext& ctx, StageTrace& trace) {
  PV_EXPECTS(ctx.fleet != nullptr, "meter stage needs a provisioned fleet");
  const MeasurementPlan& plan = *ctx.plan;
  const FleetState& fleet = *ctx.fleet;
  const CollectorConfig& config = config_;
  const CampaignConfig& campaign = config.campaign;
  CollectionOutcome& outcome = outcome_;

  // Deterministically dead channels (PR 1's dead_meters) are blackholes of
  // the transport: they answer nothing, the breaker writes them off, and
  // the shared degradation path re-bases the extrapolation without them.
  TransportSpec transport_spec = config.transport;
  for (std::size_t m : campaign.faults.dead_meters) {
    transport_spec.blackhole_meters.push_back(m);
  }
  const SimTransport transport(transport_spec, campaign.seed);

  // The poll-chunk grid and its shape tables, built once and read by
  // every poller.
  const PollChunks chunks =
      plan_poll_chunks(*ctx.cluster, ctx.windows, plan.window, ctx.interval,
                       plan.meter_mode, config.poller);

  const std::uint64_t fingerprint = collection_fingerprint(plan, config);

  // --- journal replay (resume) -------------------------------------------
  std::unordered_map<std::size_t, MeterRecord> replayed;
  std::optional<WalWriter> journal;
  if (!config.journal_path.empty()) {
    if (config.resume) {
      const WalReplay replay = replay_wal(config.journal_path);
      if (replay.exists) {
        if (replay.fingerprint != fingerprint) {
          throw std::runtime_error(
              "collect: journal '" + config.journal_path +
              "' belongs to a different campaign (fingerprint mismatch); "
              "refusing to merge");
        }
        for (const std::string& payload : replay.records) {
          const MeterRecord rec = decode_meter_record(payload);
          replayed.emplace(rec.reading.node, rec);
        }
        outcome.journal_torn_lines = replay.torn_lines;
        journal.emplace(
            WalWriter::append_to(config.journal_path, fingerprint));
      } else {
        journal.emplace(config.journal_path, fingerprint);
      }
    } else {
      journal.emplace(config.journal_path, fingerprint);
    }
  }

  // --- poll every meter the journal does not already cover ---------------
  const std::size_t n = plan.node_count();
  std::vector<MeterRecord> records(n);
  std::vector<std::size_t> to_poll;
  to_poll.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = replayed.find(plan.node_indices[i]);
    if (it != replayed.end()) {
      records[i] = it->second;
      ++outcome.meters_resumed;
    } else {
      to_poll.push_back(i);
    }
  }

  // Each poller journals its own record.  A record is only "collected"
  // once its line hit the log: under the journal lock the crash hook
  // counts journaled meters and stops the collection, so an aborted run
  // leaves exactly crash_after_meters records behind.  At a width of one
  // the pollers run inline and the pool is never started, as Provision
  // leaves `ctx.pool` null.
  const unsigned width = effective_workers(config);
  ThreadPool* pool = width > 1 ? &default_pool() : nullptr;
  std::mutex journal_mu;
  std::size_t journaled = 0;
  std::atomic<bool> stopped{false};
  const auto crashed = [&] {
    return config.crash_after_meters > 0 &&
           journaled >= config.crash_after_meters;
  };
  parallel_for_dynamic(
      pool, to_poll.size(),
      [&](std::size_t k) {
        if (stopped.load(std::memory_order_relaxed)) return;
        try {
          const std::size_t i = to_poll[k];
          MeterRecord rec = poll_meter(
              PollJob{&fleet, i, &chunks, campaign.seed}, transport,
              config.poller);
          if (!rec.reading.lost) {
            rec.reading = node_reading(ctx, i, rec.reading.mean_w,
                                       rec.reading.energy_j);
          }
          const std::lock_guard lock(journal_mu);
          if (crashed()) return;
          if (journal) journal->append(encode_meter_record(rec));
          records[i] = std::move(rec);
          ++journaled;
          if (crashed()) stopped.store(true, std::memory_order_relaxed);
        } catch (...) {
          stopped.store(true, std::memory_order_relaxed);
          throw;
        }
      },
      width);

  if (crashed()) {
    throw CollectionAborted(
        "collect: simulated crash after " + std::to_string(journaled) +
        " meters journaled; resume from '" + config.journal_path + "'");
  }
  outcome.meters_polled = journaled;

  // --- hand Repair and the campaign tail their artifacts ----------------
  CollectionQuality& cq = ctx.dq().collection;
  cq.used = true;
  ctx.devices.resize(n);
  ctx.readings.reserve(n);
  std::size_t samples = 0;
  std::size_t lost = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const MeterRecord& rec = records[i];
    DeviceReading& device = ctx.devices[i];
    device.lost = rec.reading.lost;
    device.samples_expected = rec.samples_expected;
    device.samples_lost = rec.samples_lost;
    samples += rec.samples_expected;
    cq.polls_attempted += rec.polls;
    cq.polls_timed_out += rec.timeouts;
    cq.polls_retried += rec.retries;
    cq.duplicates_discarded += rec.duplicates;
    cq.breaker_trips += rec.breaker_trips;
    if (rec.abandoned) ++cq.meters_abandoned;
    cq.busy_total_s += rec.busy_s;
    cq.busy_max_meter_s = std::max(cq.busy_max_meter_s, rec.busy_s);
    lost += rec.reading.lost ? 1 : 0;
    ctx.readings.push_back(rec.reading);
  }
  cq.makespan_s = std::max(
      cq.busy_max_meter_s,
      cq.busy_total_s / static_cast<double>(std::max(1u, width)));

  trace.items = n;
  trace.samples = samples;
  // Virtual time: the transport model's wall clock, not host time —
  // deterministic, unlike the trace's own wall_ms.
  trace.virtual_s = cq.makespan_s;
  trace.counters = {
      {"polls", static_cast<double>(cq.polls_attempted)},
      {"timeouts", static_cast<double>(cq.polls_timed_out)},
      {"retries", static_cast<double>(cq.polls_retried)},
      {"breaker_trips", static_cast<double>(cq.breaker_trips)},
      {"abandoned", static_cast<double>(cq.meters_abandoned)},
      {"resumed", static_cast<double>(outcome.meters_resumed)},
      {"lost", static_cast<double>(lost)},
  };
}

}  // namespace

CollectionOutcome collect_campaign(const ClusterPowerModel& cluster,
                                   const SystemPowerModel& electrical,
                                   const MeasurementPlan& plan,
                                   const CollectorConfig& config) {
  PV_EXPECTS(plan.point == MeasurementPoint::kNodeAc ||
                 plan.point == MeasurementPoint::kNodeDc,
             "the collector only serves node-tap plans");
  const CampaignConfig& campaign = config.campaign;
  PV_EXPECTS(!campaign.faults.spec.any() &&
                 campaign.faults.byzantine_meters.empty(),
             "data-fault injection is run_campaign's job; the collector "
             "models channel faults (see TransportSpec)");
  PV_EXPECTS(!campaign.reconcile.enabled,
             "reconciliation is run_campaign's job; the collector does "
             "not cross-validate meters");
  PV_EXPECTS(!config.journal_path.empty() ||
                 (!config.resume && config.crash_after_meters == 0),
             "resume and crash injection need a journal path");

  // The async transport is just another Meter-stage implementation: swap
  // it into the campaign's own stage list (core/pipeline), so Provision,
  // Repair, Aggregate and Assess run exactly as a campaign runs them.
  CollectionOutcome outcome;
  std::vector<StagePtr> stages = make_campaign_stages(plan, campaign);
  stages[1] = std::make_unique<AsyncMeterStage>(config, outcome);  // Meter
  outcome.result =
      run_campaign_stages(cluster, electrical, plan, campaign, stages);
  return outcome;
}

}  // namespace pv
