#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/report.hpp"
#include "stats/descriptive.hpp"
#include "stats/fused.hpp"
#include "stats/robust.hpp"
#include "stats/sketch.hpp"
#include "util/expects.hpp"
#include "util/mathx.hpp"
#include "util/parallel.hpp"
#include "util/ring.hpp"
#include "workload/workload.hpp"

namespace pv {
namespace {

// Average of f over [a, b] via midpoint panels — used for ground truth.
double mean_over_window(const std::function<double(double)>& f, double a,
                        double b) {
  return average_over(f, a, b, 2048);
}

// RNG stream salts for the fault processes (the calibration/noise salts
// are kCalibrationSalt / kNoiseSalt from sim/fleet_state.hpp, shared with
// fleet provisioning).
constexpr std::uint64_t kFateSalt = 0xFA7E0FA7ULL;
constexpr std::uint64_t kFaultSalt = 0x1FAC7ED0ULL;

// Node-tap Aggregate tail (defined with the other aggregate functions
// below); the live meter stage also runs it on mid-run snapshots so
// partial and final documents cannot drift apart structurally.
void aggregate_nodes(CampaignContext& ctx);

// The common time grid cross-validation compares meters on.  Plans that
// already meter several windows (L2 spot sampling) use those directly;
// single-window plans (L1/L3 continuous) are subdivided.
std::vector<TimeWindow> make_analysis_windows(
    const std::vector<TimeWindow>& metered, std::size_t target) {
  if (metered.size() >= 4 || metered.empty()) return metered;
  const std::size_t per =
      std::max<std::size_t>(1, (std::max<std::size_t>(target, 4) +
                                metered.size() - 1) /
                                   metered.size());
  std::vector<TimeWindow> out;
  out.reserve(metered.size() * per);
  for (const TimeWindow& w : metered) {
    const double step = w.duration().value() / static_cast<double>(per);
    for (std::size_t i = 0; i < per; ++i) {
      out.push_back(TimeWindow{
          Seconds{w.begin.value() + static_cast<double>(i) * step},
          Seconds{w.begin.value() + static_cast<double>(i + 1) * step}});
    }
  }
  return out;
}

// Samples the meter would produce over the windows — used to account for
// meters that never report.
std::size_t expected_samples(const std::vector<TimeWindow>& windows,
                             const MeterModel& meter) {
  std::size_t n = 0;
  for (const TimeWindow& w : windows) n += meter.samples_in(w);
  return n;
}

// Window-fed metering state machine for one device: the eager reference
// and the rack/facility taps drive it through meter_device below, the
// node-tap engine drives one per lane of a faulted campaign.  Every
// accumulator chains in the exact order the historical metering loop
// used.  Holds no reference to the meter or the window list, so a fleet
// of these can live in a relocatable vector.
//
// With faults disabled a device is fed clean traces; with faults enabled
// each window's clean trace is corrupted, quality-checked, repaired and
// despiked, and the device may finish lost.
class DeviceMeter {
 public:
  DeviceMeter(const FaultPlan& fp, std::uint64_t seed, std::uint64_t stream,
              std::size_t meter_id, TimeWindow campaign_window,
              std::size_t n_windows, std::size_t samples_expected,
              const std::vector<TimeWindow>* analysis)
      : fp_(&fp), analysis_(analysis), n_windows_(n_windows) {
    if (analysis_ != nullptr) {
      bucket_sum_.assign(analysis_->size(), 0.0);
      bucket_n_.assign(analysis_->size(), 0);
    }
    faulty_ = fp.enabled();
    if (!faulty_) return;
    r_.samples_expected = samples_expected;
    if (fp.forced_dead(meter_id)) {
      dead_ = true;
      r_.lost = true;
      r_.samples_lost = r_.samples_expected;
      return;
    }
    Rng fate_rng(seed ^ kFateSalt, stream);
    fault_rng_.emplace(seed ^ kFaultSalt, stream);
    fate_ = draw_meter_fate(fp.spec, campaign_window, fate_rng);
    const std::size_t byz_pos = fp.forced_byzantine(meter_id);
    if (byz_pos != FaultPlan::npos) {
      fp.apply_forced_byzantine(byz_pos, campaign_window, fate_);
    }
  }

  /// Forced dead at provision time: feed nothing, finish() is final.
  [[nodiscard]] bool dead() const { return dead_; }

  /// Clean path: one whole window's trace.
  void feed_clean_trace(const PowerTrace& trace) {
    mean_acc_ += trace.mean_power().value();
    r_.energy_j += trace.energy().value();
    bucket(trace.t0().value(), trace.dt().value(), trace.watts());
    ++windows_contributing_;
  }

  /// Faulted path: corrupt, flag, repair and despike one window's clean
  /// trace.  Returns the window mean when the window contributed, nullopt
  /// when it was fully lost.
  std::optional<double> feed_faulted_window(const PowerTrace& clean,
                                            const TimeWindow& w) {
    GappyTrace gappy = inject_faults(clean, fp_->spec, fate_, *fault_rng_);
    r_.stuck_flagged += flag_stuck_runs(gappy, fp_->stuck_run_min);
    const GapStats gs = gappy.gap_stats();
    valid_total_ += gs.total - gs.missing;
    r_.samples_lost += gs.missing;
    if (gs.missing == gs.total) return std::nullopt;  // window fully lost

    const PowerTrace dense = gappy.repaired(fp_->repair);
    const HampelResult despiked = hampel_filter(
        dense.watts(), fp_->hampel_half_window, fp_->hampel_n_sigmas);
    r_.spikes_filtered += despiked.outlier_count;
    r_.samples_repaired += gs.missing;
    const double window_mean = mean_of(despiked.filtered);
    mean_acc_ += window_mean;
    r_.energy_j += window_mean * w.duration().value();
    ++windows_contributing_;
    bucket(dense.t0().value(), dense.dt().value(), despiked.filtered);
    return window_mean;
  }

  /// Finalizes the reading: clean mean over all windows, or the faulted
  /// coverage-floor verdict.  Call exactly once, after the last window.
  DeviceReading finish() {
    if (dead_) return std::move(r_);
    if (!faulty_) {
      r_.mean_w = mean_acc_ / static_cast<double>(n_windows_);
      finish_buckets();
      return std::move(r_);
    }
    const double coverage =
        r_.samples_expected == 0
            ? 0.0
            : static_cast<double>(valid_total_) /
                  static_cast<double>(r_.samples_expected);
    if (windows_contributing_ == 0 || coverage < fp_->min_coverage) {
      r_.lost = true;
      // A discarded series repairs nothing; its whole record is lost.
      r_.samples_lost = r_.samples_expected;
      r_.samples_repaired = 0;
      r_.energy_j = 0.0;
      return std::move(r_);
    }
    r_.mean_w = mean_acc_ / static_cast<double>(windows_contributing_);
    finish_buckets();
    return std::move(r_);
  }

  // --- read-only mid-run snapshots for partial (live) reporting, taken
  // between whole windows.  None of these mutate state or draw RNG, so
  // emission cannot perturb the final numbers.

  /// Device has at least one contributing window to report on.
  [[nodiscard]] bool live_has_data() const {
    return !dead_ && windows_contributing_ > 0;
  }
  /// Running mean over contributing windows.
  [[nodiscard]] double live_mean_w() const {
    return mean_acc_ / static_cast<double>(windows_contributing_);
  }
  /// Energy accumulated so far.
  [[nodiscard]] double live_energy_j() const { return r_.energy_j; }

 private:
  // Accumulates per-analysis-window sums for cross-validation.  Reading
  // already-produced values draws no RNG, so enabling reconciliation
  // cannot perturb the metered numbers.
  void bucket(double t0, double dt, std::span<const double> values) {
    if (analysis_ == nullptr) return;
    for (std::size_t j = 0; j < values.size(); ++j) {
      const double t = t0 + (static_cast<double>(j) + 0.5) * dt;
      for (std::size_t a = 0; a < analysis_->size(); ++a) {
        const TimeWindow& aw = (*analysis_)[a];
        if (t >= aw.begin.value() && t < aw.end.value()) {
          bucket_sum_[a] += values[j];
          ++bucket_n_[a];
          break;
        }
      }
    }
  }

  void finish_buckets() {
    if (analysis_ == nullptr) return;
    r_.analysis_means_w.assign(analysis_->size(),
                               std::numeric_limits<double>::quiet_NaN());
    for (std::size_t a = 0; a < analysis_->size(); ++a) {
      if (bucket_n_[a] > 0) {
        r_.analysis_means_w[a] =
            bucket_sum_[a] / static_cast<double>(bucket_n_[a]);
      }
    }
  }

  const FaultPlan* fp_;
  const std::vector<TimeWindow>* analysis_;
  std::size_t n_windows_;
  DeviceReading r_;
  std::vector<double> bucket_sum_;
  std::vector<std::size_t> bucket_n_;
  bool faulty_ = false;
  bool dead_ = false;
  double mean_acc_ = 0.0;
  std::size_t windows_contributing_ = 0;
  std::size_t valid_total_ = 0;
  // Faulted state: the fate is drawn once; the fault stream persists
  // across windows exactly like the historical single-loop consumption.
  MeterFate fate_;
  std::optional<Rng> fault_rng_;
};

// Meters `truth` over every window by driving a DeviceMeter eagerly: the
// meter evaluates the std::function truth chain at every sample, each
// window's readings drawing `noise` from where the previous window's
// left off.  The rack/facility taps and the node-tap reference stage run
// this loop.
DeviceReading meter_device(const MeterModel& meter,
                           const PowerFunction& truth,
                           const std::vector<TimeWindow>& windows,
                           TimeWindow campaign_window, NoiseStream noise,
                           const CampaignConfig& config,
                           std::uint64_t stream, std::size_t meter_id,
                           const std::vector<TimeWindow>* analysis = nullptr) {
  DeviceMeter dm(config.faults, config.seed, stream, meter_id,
                 campaign_window, windows.size(),
                 expected_samples(windows, meter), analysis);
  if (dm.dead()) return dm.finish();
  std::uint64_t drawn = 0;
  for (const TimeWindow& w : windows) {
    const PowerTrace trace = meter.measure(truth, w.begin, w.end, noise, drawn);
    drawn += trace.size();
    if (config.faults.enabled()) {
      dm.feed_faulted_window(trace, w);
    } else {
      dm.feed_clean_trace(trace);
    }
  }
  return dm.finish();
}

void absorb_tallies(DataQuality& dq, const DeviceReading& r) {
  dq.samples_expected += r.samples_expected;
  dq.samples_lost += r.samples_lost;
  dq.samples_repaired += r.samples_repaired;
  dq.spikes_filtered += r.spikes_filtered;
  dq.stuck_flagged += r.stuck_flagged;
}

void finalize_quality(DataQuality& dq) {
  dq.sample_coverage =
      dq.samples_expected == 0
          ? 1.0
          : static_cast<double>(dq.samples_expected - dq.samples_lost) /
                static_cast<double>(dq.samples_expected);
}

// RNG streams: nodes use their node id, rack taps 1'000'000 + rack, the
// facility feed 9'999'999; the trusted check meters reconciliation reads
// the hierarchy through sit on disjoint streams below.
constexpr std::uint64_t kRackStreamBase = 1'000'000;
constexpr std::uint64_t kFacilityStream = 9'999'999;
constexpr std::uint64_t kRackCheckStreamBase = 3'000'000;
constexpr std::uint64_t kFacilityCheckStream = 9'999'998;

// A fault-free reference meter read over each analysis window: the
// facility-grade instrumentation (Cray PMDB style) the hierarchy check
// trusts.  Its calibration error still applies — the check tolerates it
// because verdicts come from the cohort statistics, and the hierarchy
// residual only confirms them.
std::vector<double> measure_check_meter(const PowerFunction& truth,
                                        const std::vector<TimeWindow>& analysis,
                                        const MeasurementPlan& plan,
                                        const CampaignConfig& config,
                                        Seconds interval,
                                        std::uint64_t stream) {
  Rng calibration(config.seed ^ kCalibrationSalt, stream);
  const NoiseStream noise(config.seed ^ kNoiseSalt, stream);
  const MeterModel meter(config.meter_accuracy, plan.meter_mode, interval,
                         calibration);
  std::vector<double> means;
  means.reserve(analysis.size());
  std::uint64_t drawn = 0;
  for (const TimeWindow& w : analysis) {
    const PowerTrace trace = meter.measure(truth, w.begin, w.end, noise, drawn);
    drawn += trace.size();
    means.push_back(trace.mean_power().value());
  }
  return means;
}

// Hierarchy checks for a node-AC campaign: one rack-PDU check meter per
// rack whose node meters all produced a series, and — when every rack is
// checkable and no auxiliary subsystems muddy the sum — a facility check
// over the rack check meters.  DC taps are skipped: the per-node PSU
// correction is nonlinear, so the rack sum is not a clean function of the
// DC series (the cohort check still covers those campaigns).
std::vector<HierarchyCheck> build_hierarchy_checks(
    const SystemPowerModel& electrical, const MeasurementPlan& plan,
    const CampaignConfig& config, Seconds interval,
    const std::vector<TimeWindow>& analysis,
    const std::vector<MeterSeries>& node_series) {
  std::vector<HierarchyCheck> checks;
  if (plan.point != MeasurementPoint::kNodeAc) return checks;

  std::vector<const MeterSeries*> by_node(electrical.node_count(), nullptr);
  for (const MeterSeries& s : node_series) by_node[s.meter_id] = &s;

  const double loss_scale = 1.0 / (1.0 - electrical.pdu_loss_fraction());
  bool all_racks_checkable = electrical.rack_count() > 0;
  for (std::size_t rack = 0; rack < electrical.rack_count(); ++rack) {
    const std::size_t first = rack * electrical.nodes_per_rack();
    const std::size_t last =
        std::min(first + electrical.nodes_per_rack(), electrical.node_count());
    bool checkable = true;
    for (std::size_t node = first; node < last; ++node) {
      if (by_node[node] == nullptr) {
        checkable = false;
        break;
      }
    }
    if (!checkable) {
      all_racks_checkable = false;
      continue;
    }
    HierarchyCheck check;
    check.label = "rack " + std::to_string(rack);
    check.parent_id = kRackCheckStreamBase + rack;
    check.parent_means_w = measure_check_meter(
        [&electrical, rack](double t) { return electrical.rack_pdu_w(rack, t); },
        analysis, plan, config, interval, kRackCheckStreamBase + rack);
    for (std::size_t node = first; node < last; ++node) {
      check.child_ids.push_back(node);
      check.child_means_w.push_back(by_node[node]->means_w);
    }
    check.child_scale = loss_scale;
    checks.push_back(std::move(check));
  }

  const double t_mid =
      plan.window.begin.value() + 0.5 * plan.window.duration().value();
  if (all_racks_checkable && electrical.auxiliary_ac_w(t_mid) == 0.0) {
    HierarchyCheck facility;
    facility.label = "facility";
    facility.parent_id = kFacilityCheckStream;
    facility.parent_means_w = measure_check_meter(
        electrical.facility_function(), analysis, plan, config, interval,
        kFacilityCheckStream);
    for (const HierarchyCheck& rack : checks) {
      facility.child_ids.push_back(rack.parent_id);
      facility.child_means_w.push_back(rack.parent_means_w);
    }
    facility.child_scale = 1.0;
    checks.push_back(std::move(facility));
  }
  return checks;
}

// Ground truth for a lowered model.  When the electrical model is the
// cluster lowered through make_system_power_model (which Provision's
// probe has checked), compute_ac_w depends on t only through
// the shared shape factor — so panel evaluations over a steady phase are
// the same double over and over.  Memoizing them on the shape's bit
// pattern leaves the integration grid, the summation order and every
// per-panel value untouched: average_over sees a function returning the
// exact doubles compute_ac_w would return, just without recomputing the
// 240-node PSU sum per panel.
Watts memoized_true_scope_power(const ClusterPowerModel& cluster,
                                const SystemPowerModel& electrical,
                                const MethodologySpec& spec) {
  const TimeWindow core = cluster.phases().core_window();
  std::unordered_map<std::uint64_t, double> memo;
  const auto compute_memo = [&](double t) {
    const double s = cluster.shape_factor(t);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &s, sizeof bits);
    const auto it = memo.find(bits);
    if (it != memo.end()) return it->second;
    const double v = electrical.compute_ac_w(t);
    memo.emplace(bits, v);
    return v;
  };
  const double compute =
      mean_over_window(compute_memo, core.begin.value(), core.end.value());
  if (spec.subsystems == SubsystemRule::kComputeOnly) return Watts{compute};
  // Auxiliaries are arbitrary functions of t (no shape identity to key
  // on); their panel evaluations stay direct.
  const double aux = mean_over_window(
      [&](double t) { return electrical.auxiliary_ac_w(t); },
      core.begin.value(), core.end.value());
  return Watts{compute + aux};
}

// --- stages ---------------------------------------------------------------

// True when `electrical` is `cluster` lowered through
// make_system_power_model: each node's DC truth is its mean times the
// shared shape factor, which the node-tap engine streams and the
// memoized ground truth keys on.  Probed exactly on one plan node, over
// the metered window (the engine) and the core window (the truth).
bool lowered_from(const ClusterPowerModel& cluster,
                  const SystemPowerModel& electrical,
                  const MeasurementPlan& plan) {
  const std::size_t probe = plan.node_indices.front();
  PV_EXPECTS(probe < cluster.node_count(), "plan references missing node");
  const TimeWindow core = cluster.phases().core_window();
  for (const TimeWindow& w : {plan.window, core}) {
    for (double frac : {0.25, 0.5, 0.75}) {
      const double t = w.begin.value() + frac * w.duration().value();
      if (electrical.node_dc_w(probe, t) !=
          cluster.node_means()[probe] * cluster.shape_factor(t)) {
        return false;
      }
    }
  }
  return true;
}

class ProvisionStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "provision"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    const ClusterPowerModel& cluster = *ctx.cluster;
    const SystemPowerModel& electrical = *ctx.electrical;
    const MeasurementPlan& plan = *ctx.plan;
    const CampaignConfig& config = *ctx.config;

    ctx.interval = config.meter_interval_override.value() > 0.0
                       ? config.meter_interval_override
                       : plan.meter_interval;
    ctx.faulty = config.faults.enabled();
    ctx.result.system_name = cluster.name();
    ctx.result.nodes_measured = plan.node_count();
    ctx.result.window_duration = plan.window.duration();
    ctx.dq().faults_enabled = ctx.faulty;

    // The time windows this plan actually meters (aspect 1).
    ctx.windows = metered_windows(plan, ctx.interval);

    switch (plan.point) {
      case MeasurementPoint::kFacilityFeed:
        ctx.dq().meters_planned = 1;
        break;
      case MeasurementPoint::kRackPdu: {
        for (std::size_t node : plan.node_indices) {
          PV_EXPECTS(node < cluster.node_count(),
                     "plan references missing node");
          ctx.racks.push_back(node / electrical.nodes_per_rack());
        }
        std::sort(ctx.racks.begin(), ctx.racks.end());
        ctx.racks.erase(std::unique(ctx.racks.begin(), ctx.racks.end()),
                        ctx.racks.end());
        ctx.dq().meters_planned = ctx.racks.size();
        break;
      }
      default: {
        ctx.dq().meters_planned = plan.node_count();
        ctx.reconciling = config.reconcile.enabled;
        if (ctx.reconciling) {
          ctx.analysis = make_analysis_windows(
              ctx.windows, config.reconcile.analysis_windows);
        }
        PV_EXPECTS(lowered_from(cluster, electrical, plan),
                   "node-tap campaigns need the electrical model lowered "
                   "from the cluster (make_system_power_model)");
        ctx.memoize_truth = true;
        // The fleet build below and the Meter stage fan out into at most
        // `fanout` lane ranges on the process-wide pool, borrowed: a
        // campaign starts and joins no threads of its own.
        ctx.fanout = std::max<std::size_t>(config.threads, 1);
        if (ctx.fanout > 1) ctx.pool = &default_pool();
        // Transpose the cohort into the fleet table: meter models +
        // calibration columns, per-node noise origins and PSU lanes, in
        // plan order.  Every lane is a pure function of its own node id,
        // so the sharded build is bit-identical at any thread count.  DC
        // taps bind no PSU lanes: they meter the DC draw itself.
        FleetProvisionSpec fspec;
        fspec.accuracy = config.meter_accuracy;
        fspec.mode = plan.meter_mode;
        fspec.interval = ctx.interval;
        fspec.seed = config.seed;
        ctx.fleet = std::make_unique<FleetState>(build_fleet_state(
            plan.node_indices, fspec, ctx.windows, &cluster,
            plan.point == MeasurementPoint::kNodeDc ? nullptr : &electrical,
            ctx.pool, ctx.fanout));
        break;
      }
    }

    // Expected sample count of any one meter: a probe model on a
    // throwaway RNG stream — campaign streams are untouched.
    {
      Rng probe_rng(0, 0);
      const MeterModel probe(config.meter_accuracy, plan.meter_mode,
                             ctx.interval, probe_rng);
      ctx.samples_per_meter = expected_samples(ctx.windows, probe);
    }

    trace.items = ctx.dq().meters_planned;
    trace.samples = ctx.samples_per_meter * ctx.dq().meters_planned;
    trace.virtual_s = plan.window.duration().value();
    trace.counters = {
        {"windows", static_cast<double>(ctx.windows.size())},
        {"analysis_windows", static_cast<double>(ctx.analysis.size())},
        {"interval_s", ctx.interval.value()},
        {"fleet_nodes",
         ctx.fleet ? static_cast<double>(ctx.fleet->size()) : 0.0},
        {"fleet_psu_shared",
         ctx.fleet && ctx.fleet->bank.shared() ? 1.0 : 0.0},
    };
  }
};

// The Meter trace of `meters` meters, each reading every window, `lost`
// of them lost.
void meter_trace(const CampaignContext& ctx, std::size_t meters,
                 std::size_t lost, StageTrace& trace) {
  double window_s = 0.0;
  for (const TimeWindow& w : ctx.windows) window_s += w.duration().value();
  trace.items = meters;
  trace.samples = ctx.samples_per_meter * meters;
  trace.virtual_s = window_s * static_cast<double>(meters);
  trace.counters.emplace_back("lost", static_cast<double>(lost));
}

// Turns the finished node devices into readings and fills the node-tap
// Meter trace (shared by the engine and the reference stage).
void finish_node_meter(CampaignContext& ctx, StageTrace& trace) {
  ctx.readings.resize(ctx.devices.size());
  std::size_t lost = 0;
  for (std::size_t i = 0; i < ctx.devices.size(); ++i) {
    const DeviceReading& reading = ctx.devices[i];
    if (reading.lost) {
      ctx.readings[i].node = ctx.plan->node_indices[i];
      ctx.readings[i].lost = true;
      ++lost;
    } else {
      ctx.readings[i] = node_reading(ctx, i, reading.mean_w, reading.energy_j);
    }
  }
  meter_trace(ctx, ctx.readings.size(), lost, trace);
}

// The scope-matched ground truth, memoized when the context allows it.
double scope_truth_w(const CampaignContext& ctx) {
  return (ctx.memoize_truth
              ? memoized_true_scope_power(*ctx.cluster, *ctx.electrical,
                                          ctx.plan->spec)
              : true_scope_power(*ctx.cluster, *ctx.electrical,
                                 ctx.plan->spec))
      .value();
}

// One closed metering window's fleet-level summary, retained in the live
// ring buffer.
struct WindowSummary {
  std::size_t index = 0;
  double fleet_mean_w = 0.0;
};

// One run of the node-tap engine (see make_node_meter_stage).  Clean
// lanes keep SoA accumulators and no per-lane object; faulted campaigns
// keep one DeviceMeter per lane.  Every lane's streams are keyed by its
// node id, every reading draws noise at its meter-global sample index,
// and every accumulator chains in sample order, so no thread count, chunk
// size or sink setting moves a bit.
class NodeTapRun {
 public:
  explicit NodeTapRun(CampaignContext& ctx)
      : ctx_(ctx), config_(*ctx.config), fleet_(*ctx.fleet),
        n_(ctx.fleet->size()) {
    if (ctx.faulty) {
      meters_.reserve(n_);
      for (std::size_t i = 0; i < n_; ++i) {
        meters_.emplace_back(config_.faults, config_.seed, fleet_.node[i],
                             fleet_.node[i], ctx.plan->window,
                             ctx.windows.size(), fleet_.samples_expected[i],
                             ctx.reconciling ? &ctx.analysis : nullptr);
      }
    } else {
      acc_.init(n_, ctx.reconciling ? ctx.analysis.size() : 0);
    }
  }

  // No sink: one fan-out, each worker walking every window of its lanes
  // with no barrier in between.
  void run_batch() {
    parallel_chunks(
        ctx_.pool, n_,
        [this](std::size_t b, std::size_t e) {
          FleetScratch scratch;
          walk(
              [&](const ShapeTable& chunk, std::size_t wi, std::uint64_t k0,
                  std::span<const std::int32_t> a_idx) {
                meter(chunk, wi, k0, a_idx, b, e, scratch);
              },
              [&](std::size_t, std::size_t samples) { close(samples, b, e); });
        },
        ctx_.fanout);
  }

  // With a sink: the same walk, one step at a time across all lanes,
  // emitting partial documents between steps on the pinned virtual-time
  // schedule.  Clean campaigns are checked at every chunk end; faulted
  // ones step whole windows and emit only at window ends.  Emission
  // reads the lanes between fan-out barriers and draws no RNG, so it
  // cannot perturb the final numbers.  Returns the live trace counters.
  std::vector<std::pair<std::string, double>> run_live();

  // Hands the finished lanes to ctx.devices.
  void finish() {
    ctx_.devices.resize(n_);
    if (ctx_.faulty) {
      for (std::size_t i = 0; i < n_; ++i) {
        ctx_.devices[i] = meters_[i].finish();
      }
      return;
    }
    // The exact DeviceMeter::finish() expressions, per lane.
    const double n_windows = static_cast<double>(ctx_.windows.size());
    for (std::size_t i = 0; i < n_; ++i) {
      DeviceReading& r = ctx_.devices[i];
      r.mean_w = acc_.mean_acc[i] / n_windows;
      r.energy_j = acc_.energy_j[i];
      if (!ctx_.reconciling) continue;
      r.analysis_means_w.assign(acc_.bucket_n.size(),
                                std::numeric_limits<double>::quiet_NaN());
      for (std::size_t a = 0; a < acc_.bucket_n.size(); ++a) {
        if (acc_.bucket_n[a] > 0) {
          r.analysis_means_w[a] = acc_.bucket_sum[a * n_ + i] /
                                  static_cast<double>(acc_.bucket_n[a]);
        }
      }
    }
  }

 private:
  // Walks every metered window in steps on the window-global sample
  // grid — chunks of at most live.chunk_samples for clean lanes, whole
  // windows for faulted ones (the corruption pipeline needs a trace) —
  // building each step's shape table and bucket map into reused storage.
  // Each step also gets the meter-global index of its first sample: the
  // samples of earlier windows plus the chunk's offset in its own.
  template <class Step, class Close>
  void walk(Step&& step, Close&& close_window) const {
    ShapeTable chunk;
    std::vector<std::int32_t> a_idx;
    const bool buckets = !ctx_.faulty && ctx_.reconciling;
    const std::size_t cap =
        std::max<std::size_t>(std::size_t{1}, config_.live.chunk_samples);
    std::uint64_t window_k0 = 0;
    for (std::size_t wi = 0; wi < ctx_.windows.size(); ++wi) {
      const TimeWindow& w = ctx_.windows[wi];
      const std::size_t samples = window_sample_count(w, ctx_.interval);
      PV_EXPECTS(samples > 0, "window shorter than one reporting interval");
      const std::size_t step_cap = ctx_.faulty ? samples : cap;
      for (std::size_t first = 0; first < samples; first += step_cap) {
        build_shape_chunk(*ctx_.cluster, w, ctx_.interval,
                          ctx_.plan->meter_mode, first,
                          std::min(step_cap, samples - first), chunk);
        if (buckets) map_analysis_samples(chunk, ctx_.analysis, a_idx);
        step(chunk, wi, window_k0 + first,
             std::span<const std::int32_t>(a_idx));
      }
      close_window(wi, samples);
      window_k0 += samples;
    }
  }

  // Meters lanes [b, e) over one step of window wi, whose first sample is
  // meter-global sample k0.
  void meter(const ShapeTable& chunk, std::size_t wi, std::uint64_t k0,
             std::span<const std::int32_t> a_idx, std::size_t b,
             std::size_t e, FleetScratch& scratch) {
    if (!ctx_.faulty) {
      // Every clean lane sees every sample, so the bucket counts are the
      // cohort's: the lane range holding lane 0 tallies them.
      if (b == 0) count_analysis_samples(a_idx, acc_.bucket_n);
      stream_fleet_chunk(chunk, a_idx, fleet_, k0, b, e, acc_, scratch);
      return;
    }
    const TimeWindow& w = ctx_.windows[wi];
    for (std::size_t i = b; i < e; ++i) {
      if (meters_[i].dead()) continue;
      stream_node_window(chunk, fleet_.mean_w[i], fleet_.curve[i],
                         fleet_.meters[i], fleet_.noise[i], k0, scratch.node);
      const std::optional<double> wm = meters_[i].feed_faulted_window(
          PowerTrace(w.begin, fleet_.meters[i].interval(),
                     scratch.node.readings),
          w);
      if (!window_mean_.empty()) {
        in_window_[i] = wm.has_value() ? 1 : 0;
        window_mean_[i] = wm.value_or(0.0);
      }
    }
  }

  // Closes a window of `samples` samples for lanes [b, e).
  void close(std::size_t samples, std::size_t b, std::size_t e) {
    if (ctx_.faulty) return;
    acc_.close_window(b, e, samples, ctx_.interval.value(),
                      window_mean_.empty() ? nullptr : window_mean_.data());
  }

  CampaignContext& ctx_;
  const CampaignConfig& config_;
  const FleetState& fleet_;
  std::size_t n_;
  FleetAccumulators acc_;            // clean lanes
  std::vector<DeviceMeter> meters_;  // faulted lanes
  // Live runs only: each lane's mean for the window being closed, and
  // whether the lane contributed to it.
  std::vector<double> window_mean_;
  std::vector<std::uint8_t> in_window_;
};

std::vector<std::pair<std::string, double>> NodeTapRun::run_live() {
  const LiveOptions& live = config_.live;
  const MeasurementPlan& plan = *ctx_.plan;
  window_mean_.assign(n_, 0.0);
  in_window_.assign(n_, ctx_.faulty ? 0 : 1);

  // Campaign-wide bounded state: a fixed-capacity ring of closed-window
  // fleet summaries plus a mergeable quantile sketch over per-node
  // window means — one small sketch per closed window, merged in, which
  // is exact (sketch-of-stream == merge-of-window-sketches, pinned by
  // the sketch property tests).
  RingBuffer<WindowSummary> ring(
      std::max<std::size_t>(std::size_t{1}, live.history_windows));
  QuantileSketch campaign_sketch(0.01);
  std::size_t windows_closed = 0;
  std::size_t open_samples = 0;  // clean lanes' samples in the open window
  std::size_t chunks_run = 0;
  std::size_t partials = 0;
  // Ground truth for partial documents, computed once on first use (the
  // final document's truth comes from AssessStage as usual).
  std::optional<double> truth_cache;

  // Emits one partial assessment Document from a read-only snapshot of
  // the lanes, through the exact node-tap Aggregate tail the final
  // result uses, on a scratch context.
  const auto emit_partial = [&](double virtual_now) {
    std::vector<NodeReading> partial;
    partial.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      double mean_w = 0.0;
      double energy_j = 0.0;
      if (ctx_.faulty) {
        const DeviceMeter& dm = meters_[i];
        if (!dm.live_has_data()) continue;
        mean_w = dm.live_mean_w();
        energy_j = dm.live_energy_j();
      } else {
        if (windows_closed == 0 && open_samples == 0) continue;
        // The closed windows plus the open window's partial samples, in
        // the exact expressions a window close would use.
        double mean_acc = acc_.mean_acc[i];
        energy_j = acc_.energy_j[i];
        std::size_t windows = windows_closed;
        if (open_samples > 0) {
          const double open = 0.0 + acc_.win_sum[i];
          mean_acc += open / static_cast<double>(open_samples);
          energy_j += open * ctx_.interval.value();
          ++windows;
        }
        mean_w = mean_acc / static_cast<double>(windows);
      }
      partial.push_back(node_reading(ctx_, i, mean_w, energy_j));
    }
    if (partial.empty()) return;

    CampaignContext snap;
    snap.cluster = ctx_.cluster;
    snap.electrical = ctx_.electrical;
    snap.plan = ctx_.plan;
    snap.config = ctx_.config;
    snap.readings = std::move(partial);
    snap.dq().meters_planned = ctx_.dq().meters_planned;
    snap.dq().faults_enabled = ctx_.faulty;
    aggregate_nodes(snap);
    if (!truth_cache) truth_cache = scope_truth_w(ctx_);
    snap.result.true_power = Watts{*truth_cache};
    snap.result.relative_error =
        std::fabs(snap.result.submitted_power.value() - *truth_cache) /
        *truth_cache;

    LiveProgress prog;
    prog.seq = partials;
    prog.virtual_s = virtual_now;
    prog.windows_closed = windows_closed;
    prog.nodes_reporting = snap.readings.size();
    prog.window_capacity = ring.capacity();
    for (std::size_t i = 0; i < ring.size(); ++i) {
      prog.recent_windows.emplace_back(ring[i].index, ring[i].fleet_mean_w);
    }
    prog.sketch_count = campaign_sketch.count();
    if (!campaign_sketch.empty()) {
      prog.sketch_bins = campaign_sketch.bin_count();
      prog.sketch_alpha = campaign_sketch.alpha();
      prog.p05_w = campaign_sketch.quantile(0.05);
      prog.p50_w = campaign_sketch.quantile(0.50);
      prog.p95_w = campaign_sketch.quantile(0.95);
    }
    // One complete rendered line per call — the sink never observes a
    // torn document.
    config_.live_sink(
        render_json(live_assessment_document(plan, snap.result, prog)));
    ++partials;
  };

  // Pinned virtual-time emission schedule: thresholds advance from the
  // first window's origin in emit_every_s steps, so reruns emit
  // identical partials at identical points.
  double next_emit = ctx_.windows.empty()
                         ? 0.0
                         : ctx_.windows.front().begin.value() +
                               live.emit_every_s;
  const auto maybe_emit = [&](double virtual_now) {
    if (live.emit_every_s <= 0.0) return;
    if (virtual_now + 1e-9 < next_emit) return;
    emit_partial(virtual_now);
    while (next_emit <= virtual_now + 1e-9) next_emit += live.emit_every_s;
  };

  walk(
      [&](const ShapeTable& chunk, std::size_t wi, std::uint64_t k0,
          std::span<const std::int32_t> a_idx) {
        parallel_chunks(
            ctx_.pool, n_,
            [&](std::size_t b, std::size_t e) {
              FleetScratch scratch;
              meter(chunk, wi, k0, a_idx, b, e, scratch);
            },
            ctx_.fanout);
        ++chunks_run;
        if (ctx_.faulty) return;
        open_samples += chunk.samples;
        maybe_emit(ctx_.windows[wi].begin.value() +
                   ctx_.interval.value() *
                       static_cast<double>(chunk.first + chunk.samples));
      },
      [&](std::size_t wi, std::size_t samples) {
        close(samples, 0, n_);
        open_samples = 0;
        // Per-lane window means feed one window sketch (merged into the
        // campaign sketch) and the ring.
        QuantileSketch window_sketch(campaign_sketch.alpha());
        FusedAccumulator summary;
        for (std::size_t i = 0; i < n_; ++i) {
          if (in_window_[i] == 0) continue;
          window_sketch.push(window_mean_[i]);
          summary.push(window_mean_[i]);
        }
        campaign_sketch.merge(window_sketch);
        if (!summary.empty()) {
          ring.push(WindowSummary{wi, summary.mean()});
        }
        ++windows_closed;
        const double window_end = ctx_.windows[wi].end.value();
        if (live.emit_every_s <= 0.0) {
          emit_partial(window_end);
        } else if (ctx_.faulty) {
          maybe_emit(window_end);
        }
      });

  return {
      {"chunks", static_cast<double>(chunks_run)},
      {"windows_stored", static_cast<double>(ring.size())},
      {"partials_emitted", static_cast<double>(partials)},
  };
}

class NodeTapMeterStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "meter"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    PV_EXPECTS(ctx.fleet != nullptr, "meter stage needs a provisioned fleet");
    const CampaignConfig& config = *ctx.config;
    NodeTapRun engine(ctx);
    std::vector<std::pair<std::string, double>> live;
    if (config.live.enabled && config.live_sink) {
      live = engine.run_live();
    } else {
      engine.run_batch();
    }
    engine.finish();
    trace.counters.emplace_back("fanout", static_cast<double>(ctx.fanout));
    finish_node_meter(ctx, trace);
    trace.counters.insert(trace.counters.end(), live.begin(), live.end());
  }
};

// The eager reference: each node's std::function truth chain metered
// through meter_device, serially, on the lanes Provision built.  It
// takes no shortcut the lowered-model identity allows, so Assess
// integrates its truth directly too.
class ReferenceMeterStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "meter"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    PV_EXPECTS(ctx.fleet != nullptr, "meter stage needs a provisioned fleet");
    ctx.memoize_truth = false;
    const SystemPowerModel& electrical = *ctx.electrical;
    const MeasurementPlan& plan = *ctx.plan;
    const FleetState& fleet = *ctx.fleet;
    ctx.devices.resize(fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      const std::size_t node = fleet.node[i];
      const PowerFunction truth =
          plan.point == MeasurementPoint::kNodeDc
              ? PowerFunction([&electrical, node](double t) {
                  return electrical.node_dc_w(node, t);
                })
              : electrical.node_ac_function(node);
      ctx.devices[i] = meter_device(
          fleet.meters[i], truth, ctx.windows, plan.window, fleet.noise[i],
          *ctx.config, node, node, ctx.reconciling ? &ctx.analysis : nullptr);
    }
    finish_node_meter(ctx, trace);
  }
};

class RackMeterStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "meter"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    const SystemPowerModel& electrical = *ctx.electrical;
    const MeasurementPlan& plan = *ctx.plan;
    const CampaignConfig& config = *ctx.config;

    // One meter per rack containing a selected node.  The rack reading
    // (which *includes* PDU distribution loss, unlike node taps) is
    // later attributed evenly to the rack's nodes — the standard site
    // practice when only PDU instrumentation exists.
    std::size_t lost = 0;
    for (std::size_t rack : ctx.racks) {
      Rng calibration(config.seed ^ kCalibrationSalt, kRackStreamBase + rack);
      const NoiseStream noise(config.seed ^ kNoiseSalt, kRackStreamBase + rack);
      const MeterModel meter(config.meter_accuracy, plan.meter_mode,
                             ctx.interval, calibration);
      const std::size_t first = rack * electrical.nodes_per_rack();
      const std::size_t nodes_in_rack =
          std::min(electrical.nodes_per_rack(),
                   electrical.node_count() - first);
      DeviceReading reading = meter_device(
          meter,
          [&electrical, rack](double t) {
            return electrical.rack_pdu_w(rack, t);
          },
          ctx.windows, plan.window, noise, config, kRackStreamBase + rack,
          rack);
      NodeReading nr;
      nr.node = rack;
      nr.lost = reading.lost;
      nr.mean_w = reading.mean_w;
      nr.energy_j = reading.energy_j;
      lost += nr.lost ? 1 : 0;
      ctx.devices.push_back(std::move(reading));
      ctx.readings.push_back(nr);
      ctx.rack_nodes_in.push_back(nodes_in_rack);
    }
    meter_trace(ctx, ctx.readings.size(), lost, trace);
  }
};

class FacilityMeterStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "meter"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    const SystemPowerModel& electrical = *ctx.electrical;
    const MeasurementPlan& plan = *ctx.plan;
    const CampaignConfig& config = *ctx.config;

    // One meter on the whole feed — the realistic Level 3
    // instrumentation.  There is no surviving-node fallback here: losing
    // the only meter ends the campaign.
    if (ctx.faulty && config.faults.forced_dead(kFacilityStream)) {
      throw NoUsableDataError(
          "campaign: the facility-feed meter is dead and no fallback "
          "instrumentation exists");
    }
    Rng calibration(config.seed ^ kCalibrationSalt, kFacilityStream);
    const NoiseStream noise(config.seed ^ kNoiseSalt, kFacilityStream);
    const MeterModel meter(config.meter_accuracy, plan.meter_mode,
                           ctx.interval, calibration);
    ctx.devices.push_back(meter_device(
        meter, electrical.facility_function(), ctx.windows, plan.window,
        noise, config, kFacilityStream, kFacilityStream));
    meter_trace(ctx, 1, ctx.devices.back().lost ? 1 : 0, trace);
  }
};

class RepairStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "repair"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    // Consolidate the per-device repair accounting.  On the fault-free
    // path every tally is zero, so this is a no-op there — exactly the
    // historical `if (faulty)` guard, without the branch.
    DataQuality& dq = ctx.dq();
    for (const DeviceReading& r : ctx.devices) absorb_tallies(dq, r);

    trace.items = ctx.devices.size();
    trace.samples = dq.samples_repaired;
    trace.counters = {
        {"samples_lost", static_cast<double>(dq.samples_lost)},
        {"samples_repaired", static_cast<double>(dq.samples_repaired)},
        {"spikes_filtered", static_cast<double>(dq.spikes_filtered)},
        {"stuck_flagged", static_cast<double>(dq.stuck_flagged)},
    };
  }
};

class ReconcileStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "reconcile"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    DataQuality& dq = ctx.dq();
    dq.reconcile_ran = true;
    std::vector<MeterSeries> series;
    series.reserve(ctx.readings.size());
    for (std::size_t i = 0; i < ctx.readings.size(); ++i) {
      if (ctx.readings[i].lost || ctx.devices[i].analysis_means_w.empty()) {
        continue;
      }
      series.push_back(
          MeterSeries{ctx.readings[i].node, ctx.devices[i].analysis_means_w});
    }
    const std::vector<HierarchyCheck> checks = build_hierarchy_checks(
        *ctx.electrical, *ctx.plan, *ctx.config, ctx.interval, ctx.analysis,
        series);
    ReconcileReport verdicts =
        reconcile_meters(series, checks, ctx.config->reconcile);

    // Quarantine convicted meters through the existing dead-meter
    // degradation path; undo exactly invertible unit errors in place.
    for (const MeterDiagnosis& d : verdicts.diagnoses) {
      const auto it = std::find_if(
          ctx.readings.begin(), ctx.readings.end(),
          [&](const NodeReading& nr) { return nr.node == d.meter_id; });
      if (it == ctx.readings.end()) continue;
      if (d.quarantined) {
        it->lost = true;
      } else if (d.corrected) {
        it->mean_w /= d.correction_scale;
        it->energy_j /= d.correction_scale;
      }
    }

    trace.items = series.size();
    trace.samples = series.size() * ctx.analysis.size();
    trace.counters = {
        {"hierarchy_checks", static_cast<double>(checks.size())},
        {"quarantined", static_cast<double>(verdicts.meters_quarantined)},
        {"corrected", static_cast<double>(verdicts.meters_corrected)},
    };
    dq.integrity = std::move(verdicts);
  }
};

// Aggregate for the facility-feed tap: no extrapolation at all; the only
// error sources are the meter itself and any scope mismatch.
void aggregate_facility(CampaignContext& ctx) {
  const ClusterPowerModel& cluster = *ctx.cluster;
  const SystemPowerModel& electrical = *ctx.electrical;
  const MeasurementPlan& plan = *ctx.plan;
  CampaignResult& result = ctx.result;
  DataQuality& dq = ctx.dq();

  const DeviceReading& reading = ctx.devices.front();
  if (reading.lost) {
    throw NoUsableDataError(
        "campaign: the facility-feed meter produced " +
        std::to_string(dq.samples_expected - dq.samples_lost) + " of " +
        std::to_string(dq.samples_expected) +
        " expected samples (below the coverage floor); no fallback "
        "instrumentation exists");
  }
  const double mean = reading.mean_w;
  double energy_acc = reading.energy_j;
  if (plan.timing != TimingStrategy::kContinuous) {
    energy_acc = mean * plan.window.duration().value();
  }
  result.nodes_measured = cluster.node_count();
  result.submitted_energy = Joules{energy_acc};
  // The facility feed includes every auxiliary; for compute-only scopes
  // the measured aux must be deducted (it is measured, not estimated).
  double submitted = mean;
  if (plan.spec.subsystems == SubsystemRule::kComputeOnly) {
    const double t_mid =
        plan.window.begin.value() + 0.5 * plan.window.duration().value();
    submitted -= electrical.auxiliary_ac_w(t_mid);
  }
  result.submitted_power = Watts{submitted};
  dq.planned_node_fraction = 1.0;
  dq.achieved_node_fraction = 1.0;
  finalize_quality(dq);
}

// Aggregate for the rack-PDU tap: attribute each surviving rack reading
// evenly to its nodes, then extrapolate.  A dead/degraded rack meter
// loses the whole rack; extrapolation proceeds from the rest.
void aggregate_rack(CampaignContext& ctx) {
  const ClusterPowerModel& cluster = *ctx.cluster;
  const SystemPowerModel& electrical = *ctx.electrical;
  const MeasurementPlan& plan = *ctx.plan;
  CampaignResult& result = ctx.result;
  DataQuality& dq = ctx.dq();

  const std::size_t planned_nodes = plan.node_count();
  double energy_acc = 0.0;
  std::size_t surviving_nodes = 0;
  for (std::size_t i = 0; i < ctx.readings.size(); ++i) {
    const NodeReading& reading = ctx.readings[i];
    if (reading.lost) {
      ++dq.meters_lost;
      dq.lost_meter_ids.push_back(reading.node);
      continue;
    }
    const double rack_mean = reading.mean_w;
    double rack_energy = reading.energy_j;
    if (plan.timing != TimingStrategy::kContinuous) {
      rack_energy = rack_mean * plan.window.duration().value();
    }
    const std::size_t nodes_in_rack = ctx.rack_nodes_in[i];
    const double per_node = rack_mean / static_cast<double>(nodes_in_rack);
    for (std::size_t n = 0; n < nodes_in_rack; ++n) {
      result.node_mean_powers_w.push_back(per_node);
    }
    surviving_nodes += nodes_in_rack;
    energy_acc += rack_energy;
  }
  if (result.node_mean_powers_w.empty()) {
    throw NoUsableDataError(
        "campaign: every rack meter was lost (" +
        std::to_string(dq.meters_lost) + " of " +
        std::to_string(dq.meters_planned) +
        "); nothing to extrapolate from");
  }
  result.nodes_measured = result.node_mean_powers_w.size();
  // Scale energy to the planned metering scope so submissions stay
  // comparable between degraded and clean campaigns.
  if (ctx.faulty && surviving_nodes > 0 && surviving_nodes < planned_nodes) {
    energy_acc *= static_cast<double>(planned_nodes) /
                  static_cast<double>(surviving_nodes);
  }
  result.submitted_energy = Joules{energy_acc};

  const Summary rack_nodes = summarize(result.node_mean_powers_w);
  double rack_submitted =
      rack_nodes.mean * static_cast<double>(cluster.node_count());
  if (plan.spec.subsystems != SubsystemRule::kComputeOnly) {
    const double t_mid =
        plan.window.begin.value() + 0.5 * plan.window.duration().value();
    rack_submitted += electrical.auxiliary_ac_w(t_mid);
  }
  result.submitted_power = Watts{rack_submitted};
  if (result.node_mean_powers_w.size() >= 2 && rack_nodes.stddev > 0.0) {
    result.node_mean_ci =
        t_confidence_interval(result.node_mean_powers_w, 0.05);
    result.relative_halfwidth =
        0.5 * result.node_mean_ci.width() / rack_nodes.mean;
    dq.ci_widened = dq.meters_lost > 0;
  }
  dq.planned_node_fraction =
      static_cast<double>(planned_nodes) /
      static_cast<double>(cluster.node_count());
  dq.achieved_node_fraction =
      static_cast<double>(result.nodes_measured) /
      static_cast<double>(cluster.node_count());
  finalize_quality(dq);
}

// Aggregate for node taps — the shared tail every node campaign (sync or
// async collection) runs: exclusion, extrapolation, energy re-basing,
// the Eq. 1 CI and its corrected-sigma widening, coverage fractions.
void aggregate_nodes(CampaignContext& ctx) {
  const ClusterPowerModel& cluster = *ctx.cluster;
  const SystemPowerModel& electrical = *ctx.electrical;
  const MeasurementPlan& plan = *ctx.plan;
  CampaignResult& result = ctx.result;
  DataQuality& dq = ctx.dq();

  result.system_name = cluster.name();
  result.window_duration = plan.window.duration();

  double energy_j = 0.0;
  result.node_mean_powers_w.reserve(ctx.readings.size());
  for (const NodeReading& r : ctx.readings) {
    if (r.lost) {
      ++dq.meters_lost;
      dq.lost_meter_ids.push_back(r.node);
      continue;
    }
    result.node_mean_powers_w.push_back(r.mean_w);
    energy_j += r.energy_j;
  }
  if (result.node_mean_powers_w.empty()) {
    throw NoUsableDataError(
        "campaign: every node meter was lost (" +
        std::to_string(dq.meters_lost) + " of " +
        std::to_string(dq.meters_planned) +
        "); nothing to extrapolate from");
  }
  result.nodes_measured = result.node_mean_powers_w.size();
  // Scale energy to the planned metering scope so submissions stay
  // comparable between degraded and clean campaigns.
  if (result.nodes_measured < dq.meters_planned) {
    energy_j *= static_cast<double>(dq.meters_planned) /
                static_cast<double>(result.nodes_measured);
  }
  result.submitted_energy = Joules{energy_j};

  const Summary nodes = summarize(result.node_mean_powers_w);
  // Linear extrapolation to the full compute subsystem (§2.2).  Note the
  // per-node AC taps do not see PDU distribution losses, which the true
  // compute power includes — a structural Level 1 bias the benches expose.
  double submitted =
      nodes.mean * static_cast<double>(cluster.node_count());

  // Auxiliary subsystems per the spec's aspect 3.
  if (plan.spec.subsystems != SubsystemRule::kComputeOnly) {
    const double t_mid =
        plan.window.begin.value() + 0.5 * plan.window.duration().value();
    submitted += electrical.auxiliary_ac_w(t_mid);
  }
  result.submitted_power = Watts{submitted};

  // Accuracy assessment: Equation 1 on the metered per-node averages.
  if (result.nodes_measured >= 2 && nodes.stddev > 0.0) {
    result.node_mean_ci =
        t_confidence_interval(result.node_mean_powers_w, /*alpha=*/0.05);
    result.relative_halfwidth =
        0.5 * result.node_mean_ci.width() / nodes.mean;
    dq.ci_widened = dq.meters_lost > 0;
  }
  // Readings reconciliation un-scaled carry residual calibration
  // uncertainty the Eq. 1 spread cannot see (the correction is exact only
  // up to the meter's remaining gain error); widen the CI in quadrature.
  if (dq.reconcile_ran && dq.integrity.meters_corrected > 0 &&
      result.relative_halfwidth > 0.0) {
    const double extra =
        1.96 * dq.integrity.corrected_sigma *
        std::sqrt(static_cast<double>(dq.integrity.meters_corrected)) /
        static_cast<double>(result.nodes_measured);
    result.relative_halfwidth = std::hypot(result.relative_halfwidth, extra);
    const double half = result.relative_halfwidth * nodes.mean;
    result.node_mean_ci = Interval{nodes.mean - half, nodes.mean + half};
    dq.ci_widened = true;
  }
  dq.planned_node_fraction =
      static_cast<double>(dq.meters_planned) /
      static_cast<double>(cluster.node_count());
  dq.achieved_node_fraction =
      static_cast<double>(result.nodes_measured) /
      static_cast<double>(cluster.node_count());
  finalize_quality(dq);
}

class AggregateStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "aggregate"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    switch (ctx.plan->point) {
      case MeasurementPoint::kFacilityFeed:
        aggregate_facility(ctx);
        break;
      case MeasurementPoint::kRackPdu:
        aggregate_rack(ctx);
        break;
      default:
        aggregate_nodes(ctx);
        break;
    }
    const DataQuality& dq = ctx.result.data_quality;
    trace.items = ctx.result.node_mean_powers_w.size();
    trace.counters = {
        {"meters_lost", static_cast<double>(dq.meters_lost)},
        {"ci_widened", dq.ci_widened ? 1.0 : 0.0},
        {"sample_coverage", dq.sample_coverage},
    };
  }
};

class AssessStage final : public CampaignStage {
 public:
  [[nodiscard]] const char* name() const override { return "assess"; }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    CampaignResult& result = ctx.result;
    // Ground truth and error.  The memoized form returns the exact
    // doubles the direct form would (lowered model), faster.
    result.true_power = Watts{scope_truth_w(ctx)};
    result.relative_error =
        std::fabs(result.submitted_power.value() - result.true_power.value()) /
        result.true_power.value();

    const TimeWindow core = ctx.cluster->phases().core_window();
    trace.items = 1;
    trace.virtual_s = core.duration().value();
    trace.counters = {
        {"memoized", ctx.memoize_truth ? 1.0 : 0.0},
        {"relative_error", result.relative_error},
    };
  }
};

}  // namespace

NodeReading node_reading(const CampaignContext& ctx, std::size_t i,
                         double mean_w, double energy_j) {
  const MeasurementPlan& plan = *ctx.plan;
  NodeReading nr;
  nr.node = plan.node_indices[i];
  nr.mean_w = mean_w;
  nr.energy_j = energy_j;
  if (plan.timing != TimingStrategy::kContinuous) {
    nr.energy_j = nr.mean_w * plan.window.duration().value();
  }
  apply_dc_conversion(plan, *ctx.electrical, nr.node, nr.mean_w,
                      nr.energy_j);
  return nr;
}

Watts true_scope_power(const ClusterPowerModel& cluster,
                       const SystemPowerModel& electrical,
                       const MethodologySpec& spec) {
  const TimeWindow core = cluster.phases().core_window();
  const double compute = mean_over_window(
      [&](double t) { return electrical.compute_ac_w(t); },
      core.begin.value(), core.end.value());
  if (spec.subsystems == SubsystemRule::kComputeOnly) return Watts{compute};
  const double aux = mean_over_window(
      [&](double t) { return electrical.auxiliary_ac_w(t); },
      core.begin.value(), core.end.value());
  return Watts{compute + aux};
}

StagePtr make_provision_stage() { return std::make_unique<ProvisionStage>(); }
StagePtr make_node_meter_stage() {
  return std::make_unique<NodeTapMeterStage>();
}
StagePtr make_reference_node_meter_stage() {
  return std::make_unique<ReferenceMeterStage>();
}
StagePtr make_rack_meter_stage() { return std::make_unique<RackMeterStage>(); }
StagePtr make_facility_meter_stage() {
  return std::make_unique<FacilityMeterStage>();
}
StagePtr make_repair_stage() { return std::make_unique<RepairStage>(); }
StagePtr make_reconcile_stage() { return std::make_unique<ReconcileStage>(); }
StagePtr make_aggregate_stage() { return std::make_unique<AggregateStage>(); }
StagePtr make_assess_stage() { return std::make_unique<AssessStage>(); }

std::vector<StagePtr> make_campaign_stages(const MeasurementPlan& plan,
                                           const CampaignConfig& config) {
  const bool node_tap = plan.point != MeasurementPoint::kFacilityFeed &&
                        plan.point != MeasurementPoint::kRackPdu;
  std::vector<StagePtr> stages;
  stages.push_back(make_provision_stage());
  switch (plan.point) {
    case MeasurementPoint::kFacilityFeed:
      stages.push_back(make_facility_meter_stage());
      break;
    case MeasurementPoint::kRackPdu:
      stages.push_back(make_rack_meter_stage());
      break;
    default:
      stages.push_back(make_node_meter_stage());
      break;
  }
  stages.push_back(make_repair_stage());
  // Only node-tap campaigns reconcile — rack/facility taps have no
  // sibling cohort to cross-validate against.
  if (node_tap && config.reconcile.enabled) {
    stages.push_back(make_reconcile_stage());
  }
  stages.push_back(make_aggregate_stage());
  stages.push_back(make_assess_stage());
  return stages;
}

CampaignResult run_campaign_stages(const ClusterPowerModel& cluster,
                                   const SystemPowerModel& electrical,
                                   const MeasurementPlan& plan,
                                   const CampaignConfig& config,
                                   const std::vector<StagePtr>& stages,
                                   const CancelToken* cancel) {
  PV_EXPECTS(!plan.node_indices.empty(), "plan selects no nodes");
  PV_EXPECTS(electrical.node_count() == cluster.node_count(),
             "electrical model does not match the cluster");
  PV_EXPECTS(plan.window.valid(), "plan window is empty");

  CampaignContext ctx;
  ctx.cluster = &cluster;
  ctx.electrical = &electrical;
  ctx.plan = &plan;
  ctx.config = &config;
  ctx.cancel = cancel;
  run_pipeline(stages, ctx);
  return std::move(ctx.result);
}

void run_pipeline(const std::vector<StagePtr>& stages, CampaignContext& ctx) {
  for (const StagePtr& stage : stages) {
    if (ctx.cancel != nullptr) ctx.cancel->check(stage->name());
    StageTrace trace;
    trace.stage = stage->name();
    const auto t0 = std::chrono::steady_clock::now();
    stage->run(ctx, trace);
    const auto t1 = std::chrono::steady_clock::now();
    trace.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    ctx.result.stage_traces.push_back(std::move(trace));
  }
  // The closing boundary: a deadline eaten inside the *last* stage must
  // still surface as DeadlineExceeded, not as a completed result.
  if (ctx.cancel != nullptr) ctx.cancel->check("finish");
}

}  // namespace pv
