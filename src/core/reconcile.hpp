#pragma once
// Byzantine meter defense: hierarchical cross-validation of power meters.
//
// PR 1/2 made the campaign survive meters that go *silent*; this module
// defends against meters that *lie* — drifting gain, a one-shot
// recalibration step, a W-vs-kW unit mixup, a skewed clock.  The paper's
// methodology aspect 4 structures a machine as facility -> system -> rack
// -> node, and that hierarchy is redundant: every parent-level reading
// should equal the conversion-loss-corrected sum of its children (the
// cross-check Fourestey et al. ran between Cray PMDB facility meters and
// in-band counters).  Disagreement means somebody is lying, and the shape
// of the disagreement says who and how.
//
// Detection operates on per-meter series of analysis-window mean powers:
//
//   * cohort check — each meter's window series against the cross-meter
//     median series.  The log-ratio r_i(w) = log(x_i(w) / median(w))
//     isolates the meter's multiplicative error from the common workload:
//       - a unit mixup puts median_w r_i near +-log(1000): verdict
//         `unit-error`, with an exactly invertible power-of-ten correction;
//       - a CUSUM on the meter's own deviations d_i(w) = r_i(w) - med_i
//         catches slow gain creep and recalibration steps long before they
//         move the cohort median; a linear-vs-changepoint fit then labels
//         the meter `drifting` or `miscalibrated`;
//       - a lag scan of the meter's series against the reference catches a
//         skewed clock (`clock-skewed`) whenever the workload has temporal
//         structure to align on — on a flat profile a skewed clock is
//         harmless and correctly stays trusted;
//       - a robust z-score of med_i across the cohort backstops gross
//         static miscalibration.
//   * hierarchy check — where a level is fully metered, the per-window
//     residual between the parent reading and the loss-corrected child sum
//     confirms that quarantine/correction actually reconciled the tree,
//     and flags the parent itself when the children agree but the parent
//     does not.
//
// Everything here is a pure function of its inputs — no RNG, no global
// state — so verdicts are a deterministic function of (seed, plan) at any
// thread count.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace pv {

/// What the reconciliation concluded about one meter.
enum class MeterVerdict {
  kTrusted,        ///< consistent with the cohort and the hierarchy
  kDrifting,       ///< slow multiplicative gain creep (CUSUM + linear fit)
  kMiscalibrated,  ///< static or step gain error (z-score / changepoint)
  kUnitError,      ///< power-of-ten scale mixup (W vs kW)
  kClockSkewed,    ///< series aligns with the cohort only at a time offset
};

[[nodiscard]] const char* to_string(MeterVerdict v);

/// Whether a campaign reconciles, and on how fine a grid.  The detection
/// thresholds are fixed (core/reconcile.cpp).
struct ReconcilePolicy {
  bool enabled = false;
  /// Analysis windows the campaign splits its metering window into (floor;
  /// plans that already meter >= 4 windows, e.g. L2 spots, use those).
  std::size_t analysis_windows = 16;
};

/// Per-meter reconciliation outcome.
struct MeterDiagnosis {
  std::size_t meter_id = 0;
  MeterVerdict verdict = MeterVerdict::kTrusted;
  double gain_estimate = 1.0;   ///< inferred multiplicative error vs cohort
  double robust_z = 0.0;        ///< median log-ratio z across the cohort
  double cusum_max = 0.0;       ///< peak CUSUM statistic (sigma units)
  double drift_per_window = 0.0;  ///< Theil-Sen slope of the log-ratio
  int clock_lag = 0;            ///< best-aligning window lag (0 = in sync)
  std::size_t detection_window = 0;  ///< first window the evidence crossed
  bool quarantined = false;
  bool corrected = false;
  double correction_scale = 1.0;  ///< divide readings by this to undo
};

/// One parent meter vs its fully metered children.
struct HierarchyCheck {
  std::string label;                 ///< e.g. "rack 3" or "facility"
  std::size_t parent_id = 0;
  std::vector<double> parent_means_w;
  /// Child series aligned with `child_ids`; already corrected to the
  /// parent's electrical side except for `child_scale`.
  std::vector<std::vector<double>> child_means_w;
  std::vector<std::size_t> child_ids;
  /// sum(children) * child_scale should equal the parent (e.g.
  /// 1 / (1 - pdu_loss_fraction) for node taps under a rack PDU).
  double child_scale = 1.0;
};

/// Residual summary of one hierarchy check.
struct HierarchyResidual {
  std::string label;
  double worst_before = 0.0;  ///< max |relative residual|, raw readings
  double worst_after = 0.0;   ///< after quarantine/correction
  bool parent_distrusted = false;
};

/// Everything reconciliation concluded — the campaign's IntegrityQuality.
struct ReconcileReport {
  std::vector<MeterDiagnosis> diagnoses;     ///< sorted by meter_id
  std::vector<HierarchyResidual> residuals;  ///< input order
  std::size_t meters_checked = 0;
  std::size_t meters_quarantined = 0;
  std::size_t meters_corrected = 0;
  std::size_t parents_distrusted = 0;
  double worst_residual_before = 0.0;
  double worst_residual_after = 0.0;
  /// Mean `detection_window` over convicted meters.
  double mean_detection_latency_windows = 0.0;
  /// Residual relative sigma per corrected reading (carried in the
  /// report so report rendering and CI widening agree).
  double corrected_sigma = 0.0;

  [[nodiscard]] bool any_convicted() const {
    return meters_quarantined > 0 || meters_corrected > 0;
  }
};

/// One meter's analysis-window mean powers.  Windows a fault wiped out
/// entirely are NaN and ignored by the diagnostics.
struct MeterSeries {
  std::size_t meter_id = 0;
  std::vector<double> means_w;
};

// --- statistical building blocks (unit-testable in isolation) -------------

/// Per-window relative residual between a parent reading and the scaled
/// child sum: (child_scale * sum_children(w) - parent(w)) / parent(w).
/// Windows where the parent is nonpositive/NaN, or any child is NaN, are
/// NaN in the result.
[[nodiscard]] std::vector<double> hierarchy_residuals(
    std::span<const double> parent,
    const std::vector<std::vector<double>>& children, double child_scale);

/// Two-sided CUSUM over an already-standardized series: C+ accumulates
/// max(0, C+ + x - k), C- accumulates max(0, C- - x - k).
struct CusumResult {
  double max_stat = 0.0;       ///< peak of max(C+, C-)
  std::size_t first_cross = 0; ///< first index where max(C+, C-) > h
  bool crossed = false;
};
[[nodiscard]] CusumResult cusum_detect(std::span<const double> standardized,
                                       double k, double h);

/// Median of pairwise slopes (x[j] - x[i]) / (j - i) — robust trend
/// estimate per unit index.  Requires >= 2 finite values; NaNs skipped.
[[nodiscard]] double theil_sen_slope(std::span<const double> xs);

/// Runs the cohort diagnostics over `meters` and the hierarchy residual
/// checks over `checks`.  Meters must share one series length; fewer than
/// three meters (or fewer than four windows) cannot form a cohort and come
/// back trusted.  Convicted unit errors are corrected; every other
/// conviction is quarantined.
[[nodiscard]] ReconcileReport reconcile_meters(
    const std::vector<MeterSeries>& meters,
    const std::vector<HierarchyCheck>& checks);

}  // namespace pv
