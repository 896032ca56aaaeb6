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
// The chunk grid is the same for every meter of a collection, so
// plan_poll_chunks builds it once and every poller reads it.  Each chunk
// carries the shape table of its samples on the chunk's own time grid
// (sample i at chunk begin + dt*i): the grid the collect goldens pin,
// which at fractional intervals rounds differently from the engine's
// window-global grid.  A delivered chunk is filled by the lane kernel
// (stream_node_window) from the meter's FleetState lane — its mean draw,
// PSU curve, calibration and noise.
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
#include "sim/fleet_state.hpp"
#include "sim/streaming.hpp"
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

/// One request's worth of trace, the same for every meter.
struct PollChunk {
  TimeWindow window;             ///< the span the request returns
  std::size_t window_index = 0;  ///< which metered window it belongs to
  std::uint64_t first = 0;       ///< meter-global index of its sample 0
  double avail_s = 0.0;  ///< virtual time the data exists (chunk end)
  /// Shape factors of the chunk's samples, on the chunk's own time grid
  /// (table.samples is the chunk's sample count).
  ShapeTable table;
};

/// A collection's poll-chunk grid, shared read-only by every poller.
struct PollChunks {
  std::vector<PollChunk> chunks;  ///< window by window, in time order
  std::vector<double> window_s;   ///< each metered window's duration
};

/// Splits every metered window into requests of at most
/// config.chunk_duration and builds each chunk's table with
/// build_shape_chunk(cluster, chunk window, interval, mode, 0, len).  The
/// virtual clock starts at campaign_window.begin.  Memory is
/// O(samples per meter), whatever the cohort size.
[[nodiscard]] PollChunks plan_poll_chunks(
    const ClusterPowerModel& cluster, const std::vector<TimeWindow>& windows,
    TimeWindow campaign_window, Seconds interval, MeterMode mode,
    const PollerConfig& config);

/// One meter's polling assignment: lane `lane` of `fleet`, over `chunks`.
struct PollJob {
  const FleetState* fleet = nullptr;
  std::size_t lane = 0;  ///< fleet->node[lane] is the meter id
  const PollChunks* chunks = nullptr;
  std::uint64_t seed = 0;  ///< campaign seed
};

/// Runs the full poll loop for one meter.  Deterministic per (seed,
/// meter): thread interleaving, prior crashes and resume cannot change
/// the outcome.  The returned record's reading carries continuous-timing
/// energy; the collector applies spot-timing and DC-conversion policy.
[[nodiscard]] MeterRecord poll_meter(const PollJob& job,
                                     const SimTransport& transport,
                                     const PollerConfig& config);

}  // namespace pv
