#pragma once
// The asynchronous collection campaign: node meters polled over a flaky
// simulated transport by a pool of pollers, finished readings journaled
// to a crash-safe write-ahead log, and the surviving data aggregated
// through the exact arithmetic of the synchronous campaign.
//
// Determinism contract: the outcome of a collection is a pure function of
// (plan, config) — thread count, scheduling, prior crashes and resumes
// cannot change a single bit of the final report.  Per-meter polling is
// keyed by (seed, meter id); the journal stores per-meter results with
// max_digits10 doubles; aggregation walks meters in plan order.  A run
// killed after K meters and resumed therefore produces a report
// byte-identical to an uninterrupted run.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "collect/poller.hpp"
#include "collect/transport.hpp"
#include "core/campaign.hpp"

namespace pv {

/// Everything a collection campaign needs beyond the measurement plan.
struct CollectorConfig {
  CampaignConfig campaign;  ///< seed, meter accuracy, interval override
  TransportSpec transport;  ///< channel fault model
  PollerConfig poller;      ///< deadlines, backoff, breaker
  /// Write-ahead journal path.  Empty disables checkpointing (and with it
  /// resume and crash injection).
  std::string journal_path;
  /// Resume from an existing journal at `journal_path` instead of
  /// truncating it.  The journal's fingerprint must match this campaign.
  bool resume = false;
  /// Test hook: simulate a crash after this many meters have been
  /// journaled *this run* (0 = never).  collect_campaign throws
  /// CollectionAborted, leaving a valid journal behind.
  std::size_t crash_after_meters = 0;
  /// Poller threads.  0 = the process-wide default pool.
  unsigned threads = 0;
  /// Bounded queue between pollers and the journal writer (backpressure).
  std::size_t queue_capacity = 16;
};

/// Thrown by the simulated crash (crash_after_meters).  The journal on
/// disk is valid and a resume run will complete the campaign.
class CollectionAborted : public std::runtime_error {
 public:
  explicit CollectionAborted(const std::string& what)
      : std::runtime_error(what) {}
};

/// A finished collection: the standard campaign result plus what the
/// collection run itself did.
struct CollectionOutcome {
  CampaignResult result;
  std::size_t meters_polled = 0;   ///< polled live this run
  std::size_t meters_resumed = 0;  ///< replayed from the journal
  std::size_t journal_torn_lines = 0;  ///< torn tail dropped on replay
};

/// Identity of a collection campaign: a hash over every knob that changes
/// its results.  Stored in the journal header so a resume against the
/// wrong campaign (different seed, plan, transport, ...) is rejected
/// instead of silently merging incompatible data.
[[nodiscard]] std::uint64_t collection_fingerprint(
    const MeasurementPlan& plan, const CollectorConfig& config);

/// Runs the asynchronous collection pipeline for a node-tap plan: the
/// campaign's own stage list (make_campaign_stages) with the Meter slot
/// swapped for the poller pool.
///
/// Restrictions, each a contract_error: the plan must tap nodes (kNodeAc
/// / kNodeDc) — facility and rack taps stay on the synchronous path —
/// and `electrical` must be `cluster`'s own model (make_system_power_model
/// on this cluster object, checked by run_campaign_stages).  The
/// campaign's FaultPlan may only name dead_meters (they are routed into
/// the transport's blackhole list); data-corruption faults, byzantine
/// meters and reconciliation belong to run_campaign.
[[nodiscard]] CollectionOutcome collect_campaign(
    const ClusterPowerModel& cluster, const SystemPowerModel& electrical,
    const MeasurementPlan& plan, const CollectorConfig& config);

}  // namespace pv
