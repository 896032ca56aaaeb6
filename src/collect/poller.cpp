#include "collect/poller.hpp"

#include <algorithm>
#include <cmath>

#include "util/expects.hpp"

namespace pv {
namespace {

constexpr std::uint64_t kBackoffSalt = 0xBAC0FF5ALL;

}  // namespace

PollChunks plan_poll_chunks(const ClusterPowerModel& cluster,
                            const std::vector<TimeWindow>& windows,
                            TimeWindow campaign_window, Seconds interval,
                            MeterMode mode, const PollerConfig& config) {
  PV_EXPECTS(config.chunk_duration.value() > 0.0,
             "poll chunk duration must be positive");
  const double dt = interval.value();
  const auto chunk_samples = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::floor(config.chunk_duration.value() / dt + 1e-9)));
  PollChunks plan;
  std::uint64_t window_first = 0;
  for (std::size_t wi = 0; wi < windows.size(); ++wi) {
    const TimeWindow& w = windows[wi];
    plan.window_s.push_back(w.duration().value());
    const std::size_t n = window_sample_count(w, interval);
    for (std::size_t first = 0; first < n; first += chunk_samples) {
      const std::size_t len = std::min(chunk_samples, n - first);
      PollChunk& c = plan.chunks.emplace_back();
      c.window = {Seconds{w.begin.value() + dt * static_cast<double>(first)},
                  Seconds{w.begin.value() +
                          dt * static_cast<double>(first + len)}};
      c.window_index = wi;
      c.first = window_first + first;
      c.avail_s = c.window.end.value() - campaign_window.begin.value();
      build_shape_chunk(cluster, c.window, interval, mode, 0, len, c.table);
    }
    window_first += n;
  }
  return plan;
}

MeterRecord poll_meter(const PollJob& job, const SimTransport& transport,
                       const PollerConfig& config) {
  PV_EXPECTS(job.fleet != nullptr && job.lane < job.fleet->size(),
             "poll job has no fleet lane");
  PV_EXPECTS(job.chunks != nullptr, "poll job has no chunk grid");
  PV_EXPECTS(config.timeout_s > 0.0 && config.max_attempts >= 1,
             "poller needs a positive timeout and at least one attempt");

  const FleetState& fleet = *job.fleet;
  const std::size_t lane = job.lane;
  const std::size_t meter_id = fleet.node[lane];
  const std::vector<PollChunk>& chunks = job.chunks->chunks;
  const std::vector<double>& window_s = job.chunks->window_s;

  MeterRecord rec;
  rec.reading.node = meter_id;

  CircuitBreaker breaker(config.breaker);
  Rng backoff_rng(job.seed ^ kBackoffSalt, meter_id);

  // Per-plan-window sums of delivered samples (the sync campaign averages
  // per window, then across windows — mirrored here).
  std::vector<double> window_sum(window_s.size(), 0.0);
  std::vector<std::size_t> window_count(window_s.size(), 0);

  double now_s = 0.0;   // virtual clock: 0 == campaign window begin
  double busy_s = 0.0;  // time actually spent waiting on this meter
  std::size_t delivered = 0;
  StreamScratch scratch;  // chunk reply buffers, reused per chunk

  for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
    const PollChunk& chunk = chunks[ci];
    rec.samples_expected += chunk.table.samples;
    now_s = std::max(now_s, chunk.avail_s);  // data must exist first

    bool got = false;
    for (std::size_t attempt = 0; attempt < config.max_attempts; ++attempt) {
      if (!breaker.allow(now_s)) break;  // open: fast-fail, no budget spent
      ++rec.polls;
      if (attempt > 0) ++rec.retries;
      const Exchange ex =
          transport.exchange(meter_id, ci, attempt, config.timeout_s);
      now_s += ex.elapsed_s;
      busy_s += ex.elapsed_s;
      if (ex.ok) {
        if (ex.duplicate) ++rec.duplicates;
        breaker.on_success();
        got = true;
        break;
      }
      ++rec.timeouts;
      breaker.on_failure(now_s);
      if (attempt + 1 < config.max_attempts &&
          breaker.state() == BreakerState::kClosed) {
        const double delay = config.backoff.delay_s(attempt, backoff_rng);
        now_s += delay;
        busy_s += delay;
      }
    }
    if (!got) continue;  // chunk lost: its samples become a gap

    // The reply: this chunk's readings at their meter-global draw
    // indices, so retries, duplicates and resumed runs see identical
    // values.
    stream_node_window(chunk.table, fleet.mean_w[lane], fleet.curve[lane],
                       fleet.meters[lane], fleet.noise[lane], chunk.first,
                       scratch);
    const std::vector<double>& readings = scratch.readings;
    double sum = 0.0;
    for (double w : readings) sum += w;
    window_sum[chunk.window_index] += sum;
    window_count[chunk.window_index] += readings.size();
    delivered += readings.size();
  }

  rec.busy_s = busy_s;
  rec.breaker_trips = breaker.trips();
  rec.abandoned = breaker.state() == BreakerState::kOpen;
  rec.samples_lost = rec.samples_expected - delivered;

  double mean_acc = 0.0;
  double energy_j = 0.0;
  std::size_t windows_used = 0;
  for (std::size_t wi = 0; wi < window_s.size(); ++wi) {
    if (window_count[wi] == 0) continue;  // window fully lost
    const double wmean =
        window_sum[wi] / static_cast<double>(window_count[wi]);
    mean_acc += wmean;
    energy_j += wmean * window_s[wi];
    ++windows_used;
  }
  const double coverage =
      rec.samples_expected == 0
          ? 0.0
          : static_cast<double>(delivered) /
                static_cast<double>(rec.samples_expected);
  if (windows_used == 0 || coverage < config.min_coverage) {
    // Below the floor: the whole record is untrustworthy — the dead-meter
    // degradation path excludes this node and re-bases the extrapolation.
    rec.reading.lost = true;
    rec.samples_lost = rec.samples_expected;
    return rec;
  }
  rec.reading.mean_w = mean_acc / static_cast<double>(windows_used);
  rec.reading.energy_j = energy_j;
  return rec;
}

}  // namespace pv
