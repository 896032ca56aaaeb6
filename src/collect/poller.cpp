#include "collect/poller.hpp"

#include <algorithm>
#include <cmath>

#include "util/expects.hpp"

namespace pv {
namespace {

constexpr std::uint64_t kBackoffSalt = 0xBAC0FF5ALL;

// One request's worth of trace.
struct Chunk {
  TimeWindow window;
  std::size_t window_index = 0;  ///< which plan window it belongs to
  std::uint64_t first = 0;       ///< meter-global index of its sample 0
  std::size_t samples = 0;
  double avail_s = 0.0;  ///< virtual time the data exists (chunk end)
};

std::vector<Chunk> build_chunks(const PollJob& job,
                                const PollerConfig& config) {
  const double dt = job.meter->interval().value();
  const auto chunk_samples = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::floor(config.chunk_duration.value() / dt + 1e-9)));
  std::vector<Chunk> chunks;
  std::uint64_t window_first = 0;
  for (std::size_t wi = 0; wi < job.windows.size(); ++wi) {
    const TimeWindow& w = job.windows[wi];
    const std::size_t n = job.meter->samples_in(w);
    for (std::size_t first = 0; first < n; first += chunk_samples) {
      const std::size_t len = std::min(chunk_samples, n - first);
      Chunk c;
      c.window = {Seconds{w.begin.value() + dt * static_cast<double>(first)},
                  Seconds{w.begin.value() +
                          dt * static_cast<double>(first + len)}};
      c.window_index = wi;
      c.first = window_first + first;
      c.samples = len;
      c.avail_s = c.window.end.value() - job.campaign_window.begin.value();
      chunks.push_back(c);
    }
    window_first += n;
  }
  return chunks;
}

}  // namespace

MeterRecord poll_meter(const PollJob& job, const SimTransport& transport,
                       const PollerConfig& config) {
  PV_EXPECTS(job.meter != nullptr, "poll job has no meter");
  PV_EXPECTS(config.timeout_s > 0.0 && config.max_attempts >= 1,
             "poller needs a positive timeout and at least one attempt");
  PV_EXPECTS(config.chunk_duration.value() > 0.0,
             "poll chunk duration must be positive");

  MeterRecord rec;
  rec.reading.node = job.meter_id;

  const std::vector<Chunk> chunks = build_chunks(job, config);
  CircuitBreaker breaker(config.breaker);
  Rng backoff_rng(job.seed ^ kBackoffSalt, job.meter_id);

  // Per-plan-window sums of delivered samples (the sync campaign averages
  // per window, then across windows — mirrored here).
  std::vector<double> window_sum(job.windows.size(), 0.0);
  std::vector<std::size_t> window_count(job.windows.size(), 0);

  double now_s = 0.0;   // virtual clock: 0 == campaign window begin
  double busy_s = 0.0;  // time actually spent waiting on this meter
  std::size_t delivered = 0;
  std::vector<double> readings;  // chunk reply buffer, reused per chunk

  for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
    const Chunk& chunk = chunks[ci];
    rec.samples_expected += chunk.samples;
    now_s = std::max(now_s, chunk.avail_s);  // data must exist first

    bool got = false;
    for (std::size_t attempt = 0; attempt < config.max_attempts; ++attempt) {
      if (!breaker.allow(now_s)) break;  // open: fast-fail, no budget spent
      ++rec.polls;
      if (attempt > 0) ++rec.retries;
      const Exchange ex =
          transport.exchange(job.meter_id, ci, attempt, config.timeout_s);
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
    job.meter->measure_into(job.truth, chunk.window.begin, chunk.window.end,
                            job.noise, chunk.first, readings);
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
  for (std::size_t wi = 0; wi < job.windows.size(); ++wi) {
    if (window_count[wi] == 0) continue;  // window fully lost
    const double wmean =
        window_sum[wi] / static_cast<double>(window_count[wi]);
    mean_acc += wmean;
    energy_j += wmean * job.windows[wi].duration().value();
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
