#pragma once
// Per-meter poller: drives one meter through the simulated transport with
// deadlines, capped exponential backoff and a circuit breaker, on a
// virtual clock.
//
// The poller fetches a meter's windows in *chunks* (a bounded span of
// trace per request — what a buffered PDU logger or PMDB-style collector
// actually returns per query).  A chunk becomes available once the data
// it covers has been produced, so virtual time also models the live poll
// schedule.  Failed chunks are retried with backoff until the chunk's
// attempt budget runs out; persistent failure trips the breaker, after
// which further chunks fast-fail for the cooldown — costing zero poll
// time — and the meter is probed again (half-open) when its cooldown
// passes.
//
// Chunk sample values draw the meter's noise stream at their
// meter-global sample indices (the campaign's own draws for those
// samples), never from a sequential stream, so a retried or re-polled
// chunk yields bit-identical readings — duplicates deduplicate trivially
// and a resumed campaign reproduces an uninterrupted one exactly.

#include <cstdint>
#include <vector>

#include "collect/journal.hpp"
#include "collect/retry.hpp"
#include "collect/transport.hpp"
#include "meter/meter.hpp"
#include "stats/rng.hpp"
#include "trace/time_series.hpp"

namespace pv {

/// Poll-loop tuning shared by every meter of a campaign.
struct PollerConfig {
  double timeout_s = 1.0;        ///< per-request deadline
  std::size_t max_attempts = 3;  ///< attempts per chunk, first included
  BackoffPolicy backoff;         ///< delay between a chunk's attempts
  BreakerConfig breaker;         ///< per-meter circuit breaker
  Seconds chunk_duration{60.0};  ///< trace seconds fetched per request
  /// Meters delivering less than this fraction of expected samples are
  /// declared lost and handed to the dead-meter degradation path.
  double min_coverage = 0.5;
};

/// One meter's polling assignment.
struct PollJob {
  std::size_t meter_id = 0;  ///< node id; also the RNG stream key
  const MeterModel* meter = nullptr;
  NoiseStream noise{0};               ///< the meter's per-sample noise
  PowerFunction truth;                ///< ground truth behind the meter
  std::vector<TimeWindow> windows;    ///< the plan's metered windows
  TimeWindow campaign_window;         ///< full plan window (clock origin)
  std::uint64_t seed = 0;             ///< campaign seed
};

/// Runs the full poll loop for one meter.  Deterministic per (seed,
/// meter): thread interleaving, prior crashes and resume cannot change
/// the outcome.  The returned record's reading carries continuous-timing
/// energy; the collector applies spot-timing and DC-conversion policy.
[[nodiscard]] MeterRecord poll_meter(const PollJob& job,
                                     const SimTransport& transport,
                                     const PollerConfig& config);

}  // namespace pv
