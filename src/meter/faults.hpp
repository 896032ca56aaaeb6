#pragma once
// Meter fault models: what happens between a working sensor and the trace
// a campaign actually receives.
//
// Submitted power numbers assume every meter worked for the whole run;
// real site logs (the Cray PMDB validation work, "Part-time Power
// Measurements") are full of dropouts, stuck sensors, spikes and dead PDU
// channels.  This module corrupts a clean MeterModel trace with
// composable, seeded fault processes so campaigns can be tested — and
// hardened — against realistic data-quality failures.
//
// Fault taxonomy:
//   * dropout        — per-sample i.i.d. loss (lossy collection path);
//   * burst outages  — Poisson-arriving outages of exponential length
//                      (network partitions, logger restarts);
//   * stuck-at       — the sensor freezes at its last reading for a
//                      while; readings keep arriving but carry no signal;
//   * spikes         — transient glitches multiplying a reading;
//   * clipping       — saturation at the converter's full-scale value;
//   * death          — the meter dies at a random time and never returns.
//
// Byzantine taxonomy — readings that *lie* instead of going missing
// (the error class the Cray PMDB facility-vs-in-band validation and
// "Part-time Power Measurements" document in real site logs):
//   * gain drift     — slow multiplicative calibration creep over the run;
//   * step recal     — a one-shot recalibration offset at a random time;
//   * unit error     — a W-vs-kW mixup scaling every reading x1000/÷1000;
//   * clock skew     — readings timestamped with a constant clock offset,
//                      plus optional per-sample timestamp jitter;
//   * reorder/dup    — adjacent samples swapped, or a reading delivered
//                      under the previous sample's timestamp.
// None of these invalidate samples: the trace arrives fully "valid" and
// plausible-looking.  Catching them is the job of core/reconcile's
// hierarchical cross-validation, not of any per-trace filter.
//
// All randomness flows through Rng streams keyed by the meter identity,
// so faulted campaigns are bit-reproducible at any thread count.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "stats/rng.hpp"
#include "trace/gaps.hpp"
#include "trace/time_series.hpp"

namespace pv {

/// Per-meter fault process parameters.  Default-constructed == fault-free.
struct FaultSpec {
  double dropout_prob = 0.0;        ///< per-sample i.i.d. loss probability
  double burst_rate_per_hour = 0.0; ///< expected burst outages per hour
  double burst_mean_s = 30.0;       ///< mean outage length (exponential)
  double stuck_prob = 0.0;          ///< P(meter freezes once during run)
  double stuck_mean_s = 120.0;      ///< mean stuck-episode length
  double spike_prob = 0.0;          ///< per-sample transient probability
  double spike_max_gain = 4.0;      ///< spikes multiply by U(1.5, this)
  double clip_max_w =
      std::numeric_limits<double>::infinity();  ///< saturation ceiling
  double death_prob = 0.0;          ///< P(meter dies at a U(0,1) run point)

  // --- byzantine fault processes: readings that lie ----------------------
  double drift_prob = 0.0;          ///< P(slow multiplicative gain creep)
  double drift_max_per_hour = 0.05; ///< |creep rate| bound; sign is random
  double recal_prob = 0.0;          ///< P(step recalibration mid-run)
  double recal_max_frac = 0.05;     ///< step gain drawn 1 + U(-max, max)
  double unit_error_prob = 0.0;     ///< P(unit-scale mixup)
  double unit_scale = 1000.0;       ///< W-vs-kW; x scale or ÷ scale, coin flip
  double clock_skew_prob = 0.0;     ///< P(constant timestamp offset)
  double clock_skew_max_s = 60.0;   ///< |offset| bound; sign is random
  double time_jitter_sd_s = 0.0;    ///< per-sample timestamp jitter (all meters)
  double reorder_prob = 0.0;        ///< per-sample P(swap with next sample)
  double dup_ts_prob = 0.0;         ///< per-sample P(repeat previous timestamp)

  /// True when any fault process is active.
  [[nodiscard]] bool any() const;
  /// True when any byzantine (semantic) fault process is active.
  [[nodiscard]] bool any_byzantine() const;

  static FaultSpec none();
  /// Occasional dropouts and rare glitches — a healthy production site.
  static FaultSpec mild();
  /// Heavy dropout, bursts, stuck sensors and meter deaths — a site log
  /// nobody has looked at in months.
  static FaultSpec harsh();
  /// Lying meters only: drift, recalibration steps, unit mixups and clock
  /// trouble at rates a large unaudited fleet plausibly accumulates.
  static FaultSpec byzantine();
};

/// Fate drawn once per meter for the whole campaign window: whether and
/// when this device dies or sticks.  Drawing it once (rather than per
/// metered sub-window) keeps L2 spot measurements consistent — a meter
/// dead in spot 3 stays dead in spot 7.
struct MeterFate {
  bool dies = false;
  double death_time_s = std::numeric_limits<double>::infinity();
  bool sticks = false;
  double stuck_begin_s = 0.0;
  double stuck_end_s = 0.0;

  // --- byzantine fate (also one draw per meter per campaign) -------------
  double drift_rate_per_hour = 0.0;  ///< 0 = no drift
  bool recalibrates = false;
  double recal_time_s = std::numeric_limits<double>::infinity();
  double recal_gain = 1.0;
  double unit_scale = 1.0;           ///< 1 = units are right
  double clock_skew_s = 0.0;
  /// Campaign start: the reference time drift and recalibration are
  /// measured from, so L2 spot windows see one continuous story.
  double byz_origin_s = 0.0;

  [[nodiscard]] bool byzantine() const;
  /// The multiplicative calibration distortion this fate applies at time t
  /// (unit scale x accumulated drift x post-recalibration step).
  [[nodiscard]] double byzantine_gain(double t) const;
};

/// Draws a meter's fate over `campaign_window` from `fate_rng`.
[[nodiscard]] MeterFate draw_meter_fate(const FaultSpec& spec,
                                        TimeWindow campaign_window,
                                        Rng& fate_rng);

/// Tally of what fault injection did to one or more traces.
struct FaultEvents {
  std::size_t samples_total = 0;
  std::size_t samples_dropped = 0;  ///< dropout + burst outages
  std::size_t samples_dead = 0;     ///< after meter death
  std::size_t samples_stuck = 0;    ///< frozen-at-last-value readings
  std::size_t samples_spiked = 0;
  std::size_t samples_clipped = 0;
  // --- byzantine ----------------------------------------------------------
  std::size_t samples_miscalibrated = 0;  ///< drift/step/unit gain != 1
  std::size_t samples_time_shifted = 0;   ///< skew/jitter moved the source
  std::size_t samples_reordered = 0;      ///< swapped with a neighbour
  std::size_t samples_duplicated_ts = 0;  ///< repeated the previous timestamp

  void accumulate(const FaultEvents& other);
};

/// Applies `spec` (and the meter's drawn `fate`) to a clean trace.
/// Dropped/burst/dead samples come back invalid in the result's mask;
/// stuck, spiked and clipped readings come back *valid but corrupted* —
/// detecting them is the consumer's job (see flag_stuck_runs and
/// stats/robust.hpp), exactly as with a real log.
[[nodiscard]] GappyTrace inject_faults(const PowerTrace& clean,
                                       const FaultSpec& spec,
                                       const MeterFate& fate, Rng& rng,
                                       FaultEvents* events = nullptr);

/// Stuck-sensor detection: marks every run of >= `min_run` consecutive
/// identical valid readings invalid (a real power signal with meter noise
/// never repeats exactly).  Returns the number of samples invalidated.
std::size_t flag_stuck_runs(GappyTrace& trace, std::size_t min_run = 5);

/// The coverage floor: a meter delivering less than this fraction of its
/// expected samples is declared lost and its node excluded from
/// extrapolation (the dead-meter degradation path).  Shared by the
/// campaign's fault path and the async collector's pollers.
inline constexpr double kMinCoverage = 0.5;

/// Campaign-level fault plan: the fault process applied to every meter
/// plus the meters forced dead or byzantine.
struct FaultPlan {
  FaultSpec spec;
  /// Meters (node ids / rack ids as used by the plan) forced dead from
  /// t=0 — deterministic dead-channel scenarios for tests and benches.
  std::vector<std::size_t> dead_meters;
  /// Meters forced byzantine from t=0, cycling gain drift -> unit-scale
  /// error -> clock skew -> recalibration step by list position —
  /// deterministic lying-meter scenarios for tests and benches.
  std::vector<std::size_t> byzantine_meters;
  /// The forced faults' sizes: drift rate and clock offset (signs
  /// alternate), the W-vs-kW factor and the recalibration step.
  static constexpr double kByzDriftPerHour = 0.05;
  static constexpr double kByzUnitScale = 1000.0;
  static constexpr double kByzClockSkewS = 45.0;
  static constexpr double kByzStepFrac = 0.04;

  [[nodiscard]] bool enabled() const {
    return spec.any() || !dead_meters.empty() || !byzantine_meters.empty();
  }
  [[nodiscard]] bool forced_dead(std::size_t meter_id) const;
  /// Position of `meter_id` in `byzantine_meters`, or npos.
  [[nodiscard]] std::size_t forced_byzantine(std::size_t meter_id) const;
  /// Overwrites `fate`'s byzantine fields with the forced fault for list
  /// position `pos` (cycling drift/unit/clock/step; signs alternate every
  /// full cycle so errors do not all push the same way).
  void apply_forced_byzantine(std::size_t pos, TimeWindow campaign_window,
                              MeterFate& fate) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

}  // namespace pv
