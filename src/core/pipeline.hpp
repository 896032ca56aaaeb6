#pragma once
// The staged campaign pipeline.  run_campaign historically was one long
// function; this module breaks it into explicit stages —
//
//   Provision -> Meter -> Repair -> [Reconcile] -> Aggregate -> Assess
//
// — connected by a typed CampaignContext that carries each stage's
// artifacts to the next.  The decomposition is behavior-preserving by
// construction: stage boundaries fall on points where the historical code
// already handed one representation to the next (windows -> traces ->
// readings -> extrapolation), so RNG consumption order and every
// arithmetic expression are unchanged and results stay bit-identical at
// any thread count.
//
// Why stages?  The Meter slot is the only part that differs between
// execution modes: the node-tap engine (batch or live), the rack-PDU and
// facility-feed taps, and src/collect's asynchronous transport are all
// just different ways to fill `devices`/`readings`.  Making that slot
// explicit lets the async collector run the campaign's own stage list
// with only that slot swapped, and gives every mode the same per-stage
// observability: each stage records a StageTrace (items, samples,
// virtual time, deterministic counters, wall clock) surfaced through
// `powervar campaign --trace-stages` and the JSON assessment document.
//
// One deliberate asymmetry: sample-level repair (gap fill, despiking,
// stuck-run flagging) runs *inside* the Meter stage, per device, because
// hoisting it out would require materializing every raw trace at once —
// the Repair stage consolidates the per-device tallies into the
// campaign's DataQuality and owns the repair accounting.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/campaign.hpp"
#include "core/plan.hpp"
#include "sim/fleet_state.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"

namespace pv {

/// One device's metered series after optional fault injection and repair —
/// the Meter stage's per-meter artifact, consolidated by Repair and (for
/// reconciling campaigns) cross-validated by Reconcile.
struct DeviceReading {
  bool lost = false;      ///< dead or below the coverage floor
  double mean_w = 0.0;    ///< per-window-averaged mean power
  double energy_j = 0.0;  ///< summed over metered windows
  // Per-device quality tallies (zero on the fault-free path).
  std::size_t samples_expected = 0;
  std::size_t samples_lost = 0;
  std::size_t samples_repaired = 0;
  std::size_t spikes_filtered = 0;
  std::size_t stuck_flagged = 0;
  /// Per-analysis-window means for cross-validation (empty unless the
  /// campaign reconciles); windows with no valid sample are NaN.
  std::vector<double> analysis_means_w;
};

/// Everything the stages share.  Inputs are non-owning (the caller keeps
/// them alive across run_pipeline); artifacts are owned and filled as the
/// pipeline advances.
struct CampaignContext {
  // --- inputs (set by the caller, never mutated by stages) --------------
  const ClusterPowerModel* cluster = nullptr;
  const SystemPowerModel* electrical = nullptr;
  const MeasurementPlan* plan = nullptr;
  const CampaignConfig* config = nullptr;
  /// Optional cooperative cancellation: run_pipeline consults it at
  /// every stage boundary (null = never cancelled).  Checking only at
  /// boundaries is what makes unwinding safe — between stages the
  /// context is consistent by construction, so a fired token throws out
  /// of run_pipeline without ever exposing a torn artifact.
  const CancelToken* cancel = nullptr;

  // --- Provision artifacts ----------------------------------------------
  Seconds interval{0.0};              ///< effective meter reporting interval
  std::vector<TimeWindow> windows;    ///< the windows the plan meters
  std::vector<TimeWindow> analysis;   ///< cross-validation grid (reconcile)
  bool faulty = false;                ///< fault injection enabled
  bool reconciling = false;           ///< byzantine defense enabled
  /// Assess may memoize the ground truth on the shared shape factor.
  /// Provision sets it on node taps once its probe has verified that the
  /// electrical model is the cluster lowered through
  /// make_system_power_model; the eager reference Meter stage clears it,
  /// so a reference run integrates the truth directly as well.
  bool memoize_truth = false;
  std::size_t samples_per_meter = 0;  ///< expected samples, any one meter
  std::vector<std::size_t> racks;     ///< racks metered (rack-PDU tap only)
  /// The requested node fan-out (Provision: config.threads, at least 1):
  /// the most lane ranges a node-tap fan-out splits into, whatever the
  /// pool's size.
  std::size_t fanout = 1;
  /// The pool the node fan-outs run on: util's process-wide
  /// default_pool(), borrowed (never owned) by Provision when fanout > 1;
  /// null when the fan-out is serial or the tap has no node cohort.
  ThreadPool* pool = nullptr;
  /// The node-tap cohort transposed to structure-of-arrays (null for the
  /// rack/facility taps): meter models + calibration columns, per-node
  /// noise origins and PSU curve lanes, all in plan order.
  /// Provision builds it (sharded over the pool); the Meter stage
  /// consumes it as views — per-node paths index lanes, the fused kernel
  /// streams whole lane ranges.  unique_ptr so the context stays cheap to
  /// default-construct for tail-only snapshots.
  std::unique_ptr<FleetState> fleet;

  // --- Meter artifacts ---------------------------------------------------
  /// One per meter, in plan order (nodes), rack order, or the single
  /// facility meter.  Tallies feed Repair; series feed Reconcile.
  std::vector<DeviceReading> devices;
  /// Collection-layer view of the same meters (node id, or rack id for
  /// the rack tap), already DC->AC corrected where the plan requires it.
  std::vector<NodeReading> readings;
  /// Nodes attributed to each rack reading (rack-PDU tap only).
  std::vector<std::size_t> rack_nodes_in;

  // --- output ------------------------------------------------------------
  CampaignResult result;

  [[nodiscard]] DataQuality& dq() { return result.data_quality; }
};

/// One pipeline stage.  run() reads/writes the context and fills its
/// trace's deterministic fields (items, samples, virtual_s, counters);
/// run_pipeline stamps the wall clock around it.
class CampaignStage {
 public:
  virtual ~CampaignStage() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  virtual void run(CampaignContext& ctx, StageTrace& trace) = 0;
};

using StagePtr = std::unique_ptr<CampaignStage>;

/// Derives the campaign's execution parameters: effective interval,
/// metered windows, the analysis grid, the rack list (rack tap) and
/// meters_planned.  On node taps it also checks that the electrical model
/// is the cluster lowered through make_system_power_model (a
/// contract_error otherwise), borrows the process-wide pool for a
/// fan-out above one and provisions the FleetState.
[[nodiscard]] StagePtr make_provision_stage();

/// Node-tap Meter stage.  Walks every metered window in chunks of at
/// most config.live.chunk_samples over the FleetState lanes, so peak
/// memory is O(nodes + chunk) whatever the campaign length.  Clean lanes
/// run the fused chunk kernel (sim/fleet_state); faulted campaigns give
/// each lane a DeviceMeter and materialize one window per lane.  Without
/// a live sink the campaign is one fan-out over the pool; with
/// config.live enabled and a sink, the walk advances one chunk at a time
/// and emits partial assessment Documents on the pinned virtual-time
/// schedule.  Results are byte-identical at any thread count, chunk size
/// and sink setting.
[[nodiscard]] StagePtr make_node_meter_stage();

/// The eager reference for the node-tap Meter stage: each node metered
/// through its std::function truth chain, serially, on the lanes
/// Provision built; it also turns off the memoized ground truth, so a
/// reference run shares no shortcut with the engine.  No config selects
/// it; tests and benches swap it into make_campaign_stages' list to
/// check the engine against it.
[[nodiscard]] StagePtr make_reference_node_meter_stage();

/// Rack-PDU Meter stage: one meter per rack containing a selected node;
/// the reading is later attributed evenly to the rack's nodes.
[[nodiscard]] StagePtr make_rack_meter_stage();

/// Facility-feed Meter stage: the single whole-feed meter.  Throws
/// NoUsableDataError when the meter is forced dead — there is no fallback
/// instrumentation at Level 3.
[[nodiscard]] StagePtr make_facility_meter_stage();

/// Consolidates the per-device repair/quality tallies into DataQuality.
/// (Sample-level gap fill runs inside Meter, per device — see the header
/// comment; this stage owns the accounting.)
[[nodiscard]] StagePtr make_repair_stage();

/// Byzantine defense: builds per-meter analysis series, cross-validates
/// them against the cohort and the meter hierarchy, quarantines convicted
/// meters and undoes exactly invertible unit errors.
[[nodiscard]] StagePtr make_reconcile_stage();

/// Excludes lost meters, extrapolates the survivors to the machine,
/// re-bases energy to the planned scope and computes the Eq. 1 CI
/// (dispatching on the plan's tap point).  Throws NoUsableDataError when
/// every meter was lost.
[[nodiscard]] StagePtr make_aggregate_stage();

/// Ground truth and relative error — the simulation-only assessment.
/// Uses the memoized integrand when ctx.memoize_truth is set.
[[nodiscard]] StagePtr make_assess_stage();

/// Assembles the full stage list run_campaign executes for `plan`:
/// Provision, the tap-point Meter stage, Repair, Reconcile (node taps
/// with the defense enabled), Aggregate, Assess.  Exposed so callers —
/// the campaign service's chaos harness foremost — can decorate or
/// replace individual stages before running them.
[[nodiscard]] std::vector<StagePtr> make_campaign_stages(
    const MeasurementPlan& plan, const CampaignConfig& config);

/// Runs a caller-assembled stage list as run_campaign would: validates
/// the rig, wires the context and returns the result.  `cancel` (may be
/// null) is checked at every stage boundary; a fired token throws
/// CancelledError / DeadlineExceededError with no result produced.
[[nodiscard]] CampaignResult run_campaign_stages(
    const ClusterPowerModel& cluster, const SystemPowerModel& electrical,
    const MeasurementPlan& plan, const CampaignConfig& config,
    const std::vector<StagePtr>& stages, const CancelToken* cancel = nullptr);

/// Lane i's reading as the collection layer reports it: spot sampling
/// reports energy as mean power over the window, DC taps convert to AC
/// (apply_dc_conversion).  Shared by the node-tap Meter stages and the
/// async collector's pollers.
[[nodiscard]] NodeReading node_reading(const CampaignContext& ctx,
                                       std::size_t i, double mean_w,
                                       double energy_j);

/// Runs the stages in order, appending one StageTrace per stage (with
/// wall clock) to ctx.result.stage_traces.  Exceptions propagate.
/// Consults ctx.cancel (when set) before every stage and once after the
/// last — so a deadline spent *inside* a stage is still detected at the
/// next boundary, wherever that stage sits in the list.
void run_pipeline(const std::vector<StagePtr>& stages, CampaignContext& ctx);

}  // namespace pv
