#pragma once
// Campaign execution: run a MeasurementPlan against a simulated system and
// produce what a site would submit — the extrapolated system power — plus
// the accuracy assessment the paper says should accompany every
// submission, and the ground truth the simulation uniquely provides.

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/plan.hpp"
#include "core/reconcile.hpp"
#include "core/sample_size.hpp"
#include "meter/faults.hpp"
#include "meter/hierarchy.hpp"
#include "sim/cluster.hpp"

namespace pv {

class CancelToken;  // util/cancel.hpp — run_campaign takes it by pointer

/// Thrown when a campaign ends with no usable data at all — every meter
/// dead, degraded below the coverage floor, or written off by the
/// collection layer — so there is nothing to extrapolate from.  The CLI
/// maps this to its own exit code (4) so scripted campaigns can tell
/// "the data died" apart from "the invocation was wrong".
class NoUsableDataError : public std::runtime_error {
 public:
  explicit NoUsableDataError(const std::string& what)
      : std::runtime_error(what) {}
};

/// What one pipeline stage did: the first observability layer over the
/// campaign hot path.  Counters and virtual (modeled) time are pure
/// functions of (plan, config) and appear in the JSON rendering;
/// `wall_ms` is host wall clock — useful for profiling, inherently
/// non-deterministic, and therefore surfaced in the text rendering only.
struct StageTrace {
  std::string stage;      ///< "provision", "meter", "repair", ...
  std::size_t items = 0;  ///< units processed (meters, readings, series)
  std::size_t samples = 0;  ///< meter samples the stage touched
  double virtual_s = 0.0;   ///< modeled/simulated seconds covered
  double wall_ms = 0.0;     ///< host wall clock (text renderer only)
  /// Stage-specific counters, in a fixed order (rendered as-is).
  std::vector<std::pair<std::string, double>> counters;
};

/// Live metering options.  When enabled with a live_sink, the node-tap
/// Meter stage advances one chunk at a time across the cohort and emits
/// partial assessment Documents mid-run on a pinned virtual-time
/// schedule, keeping the last 8 closed-window summaries in a
/// fixed-capacity ring.  The final result is byte-identical to the batch
/// run (ctest-enforced by test_meter_engine).
struct LiveOptions {
  bool enabled = false;
  /// Virtual seconds between partial emissions; 0 emits one partial at
  /// every closed metering window.  The schedule is pinned in virtual
  /// time, so reruns emit identical partials.
  double emit_every_s = 0.0;
  /// Samples streamed per kernel chunk, live or not — the peak
  /// per-worker footprint of clean node-tap metering is
  /// O(chunk_samples), independent of campaign length.
  std::size_t chunk_samples = 4096;
};

/// Execution knobs of a campaign.
struct CampaignConfig {
  MeterAccuracy meter_accuracy = MeterAccuracy::pdu_grade();
  std::uint64_t seed = 1;
  /// Meter reporting interval override.  The specs demand 1 s; large/long
  /// simulations may coarsen this for speed (statistically immaterial for
  /// mean power over minutes-to-hours windows).  0 = use the plan's value.
  Seconds meter_interval_override{0.0};
  /// Fault injection (see FaultPlan).  The default plan is disabled, and
  /// a disabled plan leaves the campaign bit-identical to the fault-free
  /// path (no extra RNG draws).
  FaultPlan faults;
  /// Byzantine defense: hierarchical cross-validation + quarantine of
  /// lying meters (core/reconcile).  Disabled by default; a disabled
  /// policy draws no extra RNG and leaves output bit-identical.  Only
  /// node-tap campaigns reconcile — rack/facility taps have no sibling
  /// cohort to cross-validate against.
  ReconcilePolicy reconcile;
  /// Worker threads for the node-metering fan-out.  Every
  /// RNG stream is keyed by node id and every result lands in its own
  /// slot, so output is bit-identical at any thread count.  1 = serial.
  std::size_t threads = 1;
  /// Live metering (see LiveOptions).
  LiveOptions live;
  /// Receives each partial assessment Document as one complete rendered
  /// JSON line (render_json output: compact, trailing newline) — a single
  /// call per partial, so a consumer never observes a torn write.  Null
  /// runs the live stage without emitting.
  std::function<void(const std::string&)> live_sink;
};

/// What the *collection path* (src/collect's asynchronous transport +
/// retry + circuit-breaker pipeline) did to get the data home.  All-zero
/// with `used == false` for the synchronous in-memory path.
struct CollectionQuality {
  bool used = false;
  std::size_t polls_attempted = 0;   ///< transport exchanges issued
  std::size_t polls_timed_out = 0;   ///< exchanges lost to timeout/drop
  std::size_t polls_retried = 0;     ///< attempts beyond a chunk's first
  std::size_t duplicates_discarded = 0;  ///< extra replies deduplicated
  std::size_t breaker_trips = 0;     ///< transitions into the open state
  std::size_t meters_abandoned = 0;  ///< written off by an open breaker
  double busy_total_s = 0.0;         ///< summed per-meter active poll time
  double busy_max_meter_s = 0.0;     ///< slowest single meter
  double makespan_s = 0.0;           ///< modeled wall clock on the pool
};

/// What fault injection and degradation did to a campaign's data — the
/// quality disclosure the paper's §6 accuracy-assessment recommendation
/// implies once meters are allowed to fail.
struct DataQuality {
  bool faults_enabled = false;
  // --- meters ------------------------------------------------------------
  std::size_t meters_planned = 0;  ///< node/rack/facility meters deployed
  std::size_t meters_lost = 0;     ///< dead or below the coverage floor
  std::vector<std::size_t> lost_meter_ids;
  // --- samples (across surviving + lost meters) --------------------------
  std::size_t samples_expected = 0;
  std::size_t samples_lost = 0;      ///< missing or flagged invalid
  std::size_t samples_repaired = 0;  ///< gap-filled on surviving meters
  std::size_t spikes_filtered = 0;   ///< Hampel-replaced readings
  std::size_t stuck_flagged = 0;     ///< stuck-run samples invalidated
  // --- coverage ----------------------------------------------------------
  double planned_node_fraction = 0.0;   ///< metered nodes / machine, planned
  double achieved_node_fraction = 0.0;  ///< after exclusions
  double sample_coverage = 1.0;         ///< valid / expected samples
  /// True when meters were lost and the Eq. 1 CI was recomputed over the
  /// smaller surviving sample (and is therefore wider than planned).
  bool ci_widened = false;
  // --- collection path (async collector only) ----------------------------
  CollectionQuality collection;
  // --- integrity (byzantine defense; populated when reconcile ran) --------
  bool reconcile_ran = false;
  ReconcileReport integrity;

  [[nodiscard]] bool degraded() const {
    return meters_lost > 0 || samples_lost > 0;
  }
};

/// Everything a campaign produces.
struct CampaignResult {
  // --- what the site reports -------------------------------------------
  std::string system_name;
  Watts submitted_power{0.0};    ///< extrapolated full-system power
  Joules submitted_energy{0.0};  ///< over the measurement window
  std::size_t nodes_measured = 0;
  Seconds window_duration{0.0};

  // --- the accuracy assessment (paper §6 recommendation) ----------------
  std::vector<double> node_mean_powers_w;  ///< metered per-node averages
  Interval node_mean_ci;     ///< Equation 1 t-CI on the node mean
  double relative_halfwidth = 0.0;  ///< CI halfwidth / mean ("lambda achieved")

  // --- ground truth (simulation only) ------------------------------------
  Watts true_power{0.0};  ///< true average of the quantity being estimated
  double relative_error = 0.0;  ///< |submitted - true| / true

  // --- data quality (populated when fault injection is enabled) ----------
  DataQuality data_quality;

  // --- observability ------------------------------------------------------
  /// One trace per pipeline stage, in execution order (see core/pipeline).
  std::vector<StageTrace> stage_traces;
};

/// Executes `plan` on the cluster lowered into `electrical`.
///
/// The campaign meters each selected node at the plan's tap point over the
/// plan window (one MeterModel per node, calibration drawn per device),
/// extrapolates linearly to all compute nodes, and — when the spec includes
/// auxiliary subsystems — adds their (estimated at L2 / measured at L3)
/// power.  `true_power` is the core-phase average of the same scope, so
/// relative_error isolates extrapolation + metering error from scope
/// differences.
///
/// Lifetime: `electrical` must be `cluster`'s own model (built from this
/// cluster object by make_system_power_model) and both must outlive the
/// call.  Every tap checks this up front and throws contract_error on
/// another cluster's model, even an equal twin's.
///
/// `cancel` (optional) is a cooperative cancellation/deadline token
/// consulted at every stage boundary; a fired token unwinds as
/// CancelledError / DeadlineExceededError with no result produced.
[[nodiscard]] CampaignResult run_campaign(const ClusterPowerModel& cluster,
                                          const SystemPowerModel& electrical,
                                          const MeasurementPlan& plan,
                                          const CampaignConfig& config,
                                          const CancelToken* cancel = nullptr);

/// Forces `fraction` of the plan's node meters byzantine, spread evenly
/// across the selection so every rack sees some liars (the fault kinds
/// cycle drift -> unit error -> clock skew -> recalibration step).
/// Shared by the CLI's --byzantine knob and the service's request
/// materialization, so both pick the exact same meters for a fraction.
void force_byzantine_meters(CampaignConfig& config,
                            const MeasurementPlan& plan, double fraction);

/// The scope-matched true power for a spec: compute-only average for
/// compute-only rules, compute + auxiliaries otherwise (core phase).
[[nodiscard]] Watts true_scope_power(const ClusterPowerModel& cluster,
                                     const SystemPowerModel& electrical,
                                     const MethodologySpec& spec);

/// One metered node's contribution as a collection layer delivered it:
/// the per-window-averaged mean power (already corrected to AC where the
/// plan requires it) and summed energy — or `lost` when the meter was
/// dead, below the coverage floor, or written off by a circuit breaker.
struct NodeReading {
  std::size_t node = 0;
  bool lost = false;
  double mean_w = 0.0;
  double energy_j = 0.0;
};

/// Aspect 4: corrects a DC-side node reading back to AC per the plan's
/// conversion policy.  No-op for AC-side taps.
void apply_dc_conversion(const MeasurementPlan& plan,
                         const SystemPowerModel& electrical, std::size_t node,
                         double& mean_w, double& energy_j);

}  // namespace pv
