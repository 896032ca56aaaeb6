#include "core/reconcile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/descriptive.hpp"
#include "stats/robust.hpp"
#include "util/expects.hpp"

namespace pv {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kLn10 = 2.302585092994046;

// --- detection thresholds ---------------------------------------------------

/// Robust z threshold on a meter's median log-ratio across the cohort
/// (static miscalibration backstop).  Generous because honest fleet
/// variability, not meter error, dominates the cohort spread.
constexpr double kZThreshold = 6.0;
/// CUSUM slack and decision threshold, in units of the cohort's
/// window-to-window noise sigma.
constexpr double kCusumK = 0.5;
constexpr double kCusumH = 8.0;
/// Practical-significance floor for a CUSUM conviction: the estimated
/// head-to-tail shift of the meter's deviation series (log units, so
/// ~relative error) must reach this before the meter is condemned.  A
/// marginal CUSUM crossing on a 0.2% wobble is statistical noise, not a
/// byzantine meter.
constexpr double kMinEffect = 0.005;
/// A median log10-ratio within this of a nonzero integer convicts a
/// power-of-ten unit error.  Tight: a true x1000 lands within ~0.01 of
/// 3.0, and nothing short of a grossly broken meter gets near 0.7.
constexpr double kUnitLog10Tol = 0.3;
/// Clock-skew lag scan: max window lag tried, required correlation gain
/// over lag 0, and the minimum reference-series variation (cv) for the
/// scan to be meaningful at all.
constexpr int kMaxLag = 3;
constexpr double kLagMinGain = 0.25;
constexpr double kMinSignalCv = 1e-3;
/// Residual relative uncertainty per reading whose unit error was undone;
/// the accuracy report widens the CI by it.
constexpr double kCorrectedSigma = 0.01;
/// Median |relative residual| above which a hierarchy check whose
/// children all look honest indicts the parent meter instead.
constexpr double kParentResidualFloor = 0.05;

bool finite(double x) { return std::isfinite(x); }

std::vector<double> finite_of(std::span<const double> xs) {
  std::vector<double> out;
  out.reserve(xs.size());
  for (double x : xs) {
    if (finite(x)) out.push_back(x);
  }
  return out;
}

double median_finite(std::span<const double> xs) {
  const std::vector<double> f = finite_of(xs);
  if (f.empty()) return kNaN;
  return median(f);
}

/// Pearson correlation of the child series shifted by `lag` windows against
/// the reference, over the overlapping finite pairs.  NaN when fewer than
/// three pairs overlap or either side is constant.
double lagged_correlation(std::span<const double> child,
                          std::span<const double> reference, int lag) {
  RunningStats a;
  RunningStats b;
  std::vector<std::pair<double, double>> pairs;
  const auto n = static_cast<std::ptrdiff_t>(reference.size());
  for (std::ptrdiff_t w = 0; w < n; ++w) {
    const std::ptrdiff_t cw = w + lag;
    if (cw < 0 || cw >= static_cast<std::ptrdiff_t>(child.size())) continue;
    const double x = child[static_cast<std::size_t>(cw)];
    const double y = reference[static_cast<std::size_t>(w)];
    if (!finite(x) || !finite(y)) continue;
    pairs.emplace_back(x, y);
    a.add(x);
    b.add(y);
  }
  if (pairs.size() < 3) return kNaN;
  const double sa = a.stddev();
  const double sb = b.stddev();
  if (sa <= 0.0 || sb <= 0.0) return kNaN;
  double cov = 0.0;
  for (const auto& [x, y] : pairs) cov += (x - a.mean()) * (y - b.mean());
  cov /= static_cast<double>(pairs.size() - 1);
  return cov / (sa * sb);
}

/// Best SSE of a single-changepoint two-mean fit to `ys` (already compacted
/// to finite values, in window order).
double best_step_sse(std::span<const double> ys) {
  const std::size_t n = ys.size();
  if (n < 4) return std::numeric_limits<double>::infinity();
  std::vector<double> prefix(n + 1, 0.0);
  std::vector<double> prefix2(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + ys[i];
    prefix2[i + 1] = prefix2[i] + ys[i] * ys[i];
  }
  const auto segment_sse = [&](std::size_t lo, std::size_t hi) {
    // SSE of [lo, hi) around its own mean.
    const double cnt = static_cast<double>(hi - lo);
    const double s = prefix[hi] - prefix[lo];
    const double s2 = prefix2[hi] - prefix2[lo];
    return std::max(0.0, s2 - s * s / cnt);
  };
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t c = 2; c + 2 <= n; ++c) {
    best = std::min(best, segment_sse(0, c) + segment_sse(c, n));
  }
  return best;
}

/// SSE of a robust linear fit (Theil-Sen slope, median intercept) to `ys`.
double linear_fit_sse(std::span<const double> ys, double slope) {
  std::vector<double> detrended;
  detrended.reserve(ys.size());
  for (std::size_t i = 0; i < ys.size(); ++i) {
    detrended.push_back(ys[i] - slope * static_cast<double>(i));
  }
  const double intercept = median(detrended);
  double sse = 0.0;
  for (double d : detrended) {
    const double r = d - intercept;
    sse += r * r;
  }
  return sse;
}

}  // namespace

const char* to_string(MeterVerdict v) {
  switch (v) {
    case MeterVerdict::kTrusted: return "trusted";
    case MeterVerdict::kDrifting: return "drifting";
    case MeterVerdict::kMiscalibrated: return "miscalibrated";
    case MeterVerdict::kUnitError: return "unit-error";
    case MeterVerdict::kClockSkewed: return "clock-skewed";
  }
  return "unknown";
}

std::vector<double> hierarchy_residuals(
    std::span<const double> parent,
    const std::vector<std::vector<double>>& children, double child_scale) {
  std::vector<double> out(parent.size(), kNaN);
  for (std::size_t w = 0; w < parent.size(); ++w) {
    const double p = parent[w];
    if (!finite(p) || p <= 0.0) continue;
    double sum = 0.0;
    bool ok = true;
    for (const auto& child : children) {
      if (w >= child.size() || !finite(child[w])) {
        ok = false;
        break;
      }
      sum += child[w];
    }
    if (!ok) continue;
    out[w] = (child_scale * sum - p) / p;
  }
  return out;
}

CusumResult cusum_detect(std::span<const double> standardized, double k,
                         double h) {
  PV_EXPECTS(k >= 0.0 && h > 0.0, "CUSUM needs k >= 0 and h > 0");
  CusumResult res;
  double hi = 0.0;
  double lo = 0.0;
  for (std::size_t i = 0; i < standardized.size(); ++i) {
    const double x = standardized[i];
    if (!finite(x)) continue;
    hi = std::max(0.0, hi + x - k);
    lo = std::max(0.0, lo - x - k);
    const double stat = std::max(hi, lo);
    if (stat > res.max_stat) res.max_stat = stat;
    if (!res.crossed && stat > h) {
      res.crossed = true;
      res.first_cross = i;
    }
  }
  return res;
}

double theil_sen_slope(std::span<const double> xs) {
  std::vector<std::pair<std::size_t, double>> pts;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (finite(xs[i])) pts.emplace_back(i, xs[i]);
  }
  PV_EXPECTS(pts.size() >= 2, "Theil-Sen needs >= 2 finite points");
  std::vector<double> slopes;
  slopes.reserve(pts.size() * (pts.size() - 1) / 2);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      const double dx =
          static_cast<double>(pts[j].first) - static_cast<double>(pts[i].first);
      slopes.push_back((pts[j].second - pts[i].second) / dx);
    }
  }
  return median(slopes);
}

ReconcileReport reconcile_meters(const std::vector<MeterSeries>& meters,
                                 const std::vector<HierarchyCheck>& checks) {
  ReconcileReport report;
  report.meters_checked = meters.size();
  report.corrected_sigma = kCorrectedSigma;

  std::size_t windows = 0;
  for (const auto& m : meters) windows = std::max(windows, m.means_w.size());
  for (const auto& m : meters) {
    PV_EXPECTS(m.means_w.size() == windows,
               "all meter series must share one window count");
  }

  report.diagnoses.reserve(meters.size());
  for (const auto& m : meters) {
    MeterDiagnosis d;
    d.meter_id = m.meter_id;
    report.diagnoses.push_back(d);
  }
  std::sort(report.diagnoses.begin(), report.diagnoses.end(),
            [](const MeterDiagnosis& a, const MeterDiagnosis& b) {
              return a.meter_id < b.meter_id;
            });

  const bool cohort_viable = meters.size() >= 3 && windows >= 4;
  if (cohort_viable) {
    // Reference series: cross-meter median per window.  Robust to a small
    // byzantine minority — a x1000 meter cannot move the median.
    std::vector<double> reference(windows, kNaN);
    {
      std::vector<double> column;
      for (std::size_t w = 0; w < windows; ++w) {
        column.clear();
        for (const auto& m : meters) {
          const double x = m.means_w[w];
          if (finite(x) && x > 0.0) column.push_back(x);
        }
        if (!column.empty()) reference[w] = median(column);
      }
    }

    // Per-meter log-ratio series and its median level.
    std::vector<std::vector<double>> log_ratio(meters.size());
    std::vector<double> med(meters.size(), kNaN);
    for (std::size_t i = 0; i < meters.size(); ++i) {
      auto& r = log_ratio[i];
      r.assign(windows, kNaN);
      for (std::size_t w = 0; w < windows; ++w) {
        const double x = meters[i].means_w[w];
        const double ref = reference[w];
        if (finite(x) && x > 0.0 && finite(ref) && ref > 0.0) {
          r[w] = std::log(x / ref);
        }
      }
      med[i] = median_finite(r);
    }

    // Cohort level and spread of the median log-ratios.  The spread is
    // dominated by honest fleet variability, so it only backstops gross
    // static errors; the per-meter CUSUM below (where fleet level cancels)
    // is the sensitive detector.
    const std::vector<double> med_finite = finite_of(med);
    const double cohort_level = median(med_finite);
    const double cohort_spread =
        std::max(1e-4, median_abs_deviation(med_finite));

    // Window-to-window noise: per-meter MAD of the level-removed ratios,
    // summarized across the cohort by median (byzantine meters inflate
    // their own MAD, not the cohort's).
    std::vector<double> per_meter_noise;
    std::vector<std::vector<double>> deviation(meters.size());
    for (std::size_t i = 0; i < meters.size(); ++i) {
      auto& dev = deviation[i];
      dev.assign(windows, kNaN);
      if (!finite(med[i])) continue;
      for (std::size_t w = 0; w < windows; ++w) {
        if (finite(log_ratio[i][w])) dev[w] = log_ratio[i][w] - med[i];
      }
      const std::vector<double> f = finite_of(dev);
      if (f.size() >= 4) per_meter_noise.push_back(median_abs_deviation(f));
    }
    const double noise_sigma =
        per_meter_noise.empty()
            ? 1e-5
            : std::max(1e-5, median(per_meter_noise));

    const double ref_cv = [&] {
      const std::vector<double> f = finite_of(reference);
      if (f.size() < 3) return 0.0;
      const Summary s = summarize(f);
      return s.cv;
    }();

    for (auto& d : report.diagnoses) {
      const std::size_t i = [&] {
        for (std::size_t k = 0; k < meters.size(); ++k) {
          if (meters[k].meter_id == d.meter_id) return k;
        }
        return meters.size();
      }();
      PV_EXPECTS(i < meters.size(), "diagnosis refers to a known meter");
      if (!finite(med[i])) continue;  // fully lost meter: nothing to judge
      const std::vector<double> dev_f = finite_of(deviation[i]);
      if (dev_f.size() < 4) continue;

      d.robust_z = (med[i] - cohort_level) / cohort_spread;
      d.gain_estimate = std::exp(med[i] - cohort_level);
      d.drift_per_window = theil_sen_slope(deviation[i]);

      // 1. Power-of-ten unit error: exactly invertible, checked first.
      const double u10 = (med[i] - cohort_level) / kLn10;
      const double p = std::round(u10);
      if (p != 0.0 && std::abs(u10 - p) <= kUnitLog10Tol) {
        d.verdict = MeterVerdict::kUnitError;
        d.correction_scale = std::pow(10.0, p);
        for (std::size_t w = 0; w < windows; ++w) {
          if (finite(log_ratio[i][w])) {
            d.detection_window = w;
            break;
          }
        }
        continue;
      }

      // 2. Clock skew: the series matches the reference only at a window
      //    offset.  Meaningful only when the workload has structure.
      if (ref_cv > kMinSignalCv) {
        const double c0 = lagged_correlation(meters[i].means_w, reference, 0);
        int best_lag = 0;
        double best_corr = finite(c0) ? c0 : -1.0;
        for (int lag = -kMaxLag; lag <= kMaxLag; ++lag) {
          if (lag == 0) continue;
          const double c = lagged_correlation(meters[i].means_w, reference, lag);
          if (finite(c) && c > best_corr) {
            best_corr = c;
            best_lag = lag;
          }
        }
        if (best_lag != 0 && finite(c0) &&
            best_corr - c0 > kLagMinGain && best_corr > 0.5) {
          d.verdict = MeterVerdict::kClockSkewed;
          d.clock_lag = best_lag;
          d.detection_window = static_cast<std::size_t>(std::abs(best_lag));
          continue;
        }
      }

      // 3. CUSUM on the meter's own standardized deviations: catches drift
      //    and recalibration steps while they are still far too small to
      //    move the cohort statistics.
      std::vector<double> standardized(windows, kNaN);
      for (std::size_t w = 0; w < windows; ++w) {
        if (finite(deviation[i][w])) {
          standardized[w] = deviation[i][w] / noise_sigma;
        }
      }
      const CusumResult cs = cusum_detect(standardized, kCusumK, kCusumH);
      d.cusum_max = cs.max_stat;
      // Practical-significance gate: estimate the head-to-tail shift of the
      // deviation series.  A statistically detectable but sub-kMinEffect
      // wobble is left alone — quarantining it would only cost coverage.
      const double effect = [&] {
        const std::size_t q = std::max<std::size_t>(2, dev_f.size() / 4);
        if (dev_f.size() < 2 * q) return 0.0;
        const std::vector<double> head(dev_f.begin(),
                                       dev_f.begin() + static_cast<std::ptrdiff_t>(q));
        const std::vector<double> tail(dev_f.end() - static_cast<std::ptrdiff_t>(q),
                                       dev_f.end());
        return std::abs(median(tail) - median(head));
      }();
      if (cs.crossed && effect >= kMinEffect) {
        // Drift or step?  Compare a robust linear fit against the best
        // single-changepoint two-mean fit on the compacted deviations.
        const double sse_linear = linear_fit_sse(dev_f, theil_sen_slope(dev_f));
        const double sse_step = best_step_sse(dev_f);
        d.verdict = sse_linear <= sse_step ? MeterVerdict::kDrifting
                                           : MeterVerdict::kMiscalibrated;
        d.detection_window = cs.first_cross;
        continue;
      }

      // 4. Robust-z backstop for gross static miscalibration that neither
      //    looks like a power of ten nor moves within the run.
      if (std::abs(d.robust_z) > kZThreshold) {
        d.verdict = MeterVerdict::kMiscalibrated;
        for (std::size_t w = 0; w < windows; ++w) {
          if (finite(log_ratio[i][w])) {
            d.detection_window = w;
            break;
          }
        }
      }
    }

    // Act on the verdicts: unit errors are exactly invertible and get
    // corrected, everything else is quarantined.
    double latency_sum = 0.0;
    std::size_t convicted = 0;
    for (auto& d : report.diagnoses) {
      if (d.verdict == MeterVerdict::kTrusted) continue;
      ++convicted;
      latency_sum += static_cast<double>(d.detection_window);
      if (d.verdict == MeterVerdict::kUnitError) {
        d.corrected = true;
        ++report.meters_corrected;
      } else {
        d.quarantined = true;
        ++report.meters_quarantined;
      }
    }
    if (convicted > 0) {
      report.mean_detection_latency_windows =
          latency_sum / static_cast<double>(convicted);
    }

    // Hierarchy residual checks: confirm the verdicts reconciled the tree,
    // and indict the parent when the children agree but it does not.
    const std::vector<double>& ref_series = reference;
    for (const auto& check : checks) {
      HierarchyResidual hr;
      hr.label = check.label;
      const std::vector<double> before = hierarchy_residuals(
          check.parent_means_w, check.child_means_w, check.child_scale);
      for (double r : before) {
        if (finite(r)) hr.worst_before = std::max(hr.worst_before, std::abs(r));
      }

      // Rebuild the child set as the campaign will use it: corrected
      // children undone exactly, quarantined children imputed with the
      // cohort-typical series (reference x cohort level) so the residual
      // measures remaining disagreement, not the hole quarantine left.
      std::vector<std::vector<double>> after_children = check.child_means_w;
      bool any_child_convicted = false;
      for (std::size_t c = 0; c < check.child_ids.size(); ++c) {
        const auto it = std::find_if(
            report.diagnoses.begin(), report.diagnoses.end(),
            [&](const MeterDiagnosis& d) {
              return d.meter_id == check.child_ids[c];
            });
        if (it == report.diagnoses.end()) continue;
        if (it->corrected) {
          any_child_convicted = true;
          for (double& x : after_children[c]) {
            if (finite(x)) x /= it->correction_scale;
          }
        } else if (it->quarantined) {
          any_child_convicted = true;
          for (std::size_t w = 0; w < after_children[c].size(); ++w) {
            const double ref = w < ref_series.size() ? ref_series[w] : kNaN;
            after_children[c][w] =
                finite(ref) ? ref * std::exp(cohort_level) : kNaN;
          }
        }
      }
      const std::vector<double> after = hierarchy_residuals(
          check.parent_means_w, after_children, check.child_scale);
      for (double r : after) {
        if (finite(r)) hr.worst_after = std::max(hr.worst_after, std::abs(r));
      }

      // Children honest but the level still refuses to add up: the parent
      // meter itself is the liar.
      const double median_before = [&] {
        std::vector<double> mags;
        for (double r : before) {
          if (finite(r)) mags.push_back(std::abs(r));
        }
        return mags.empty() ? 0.0 : median(mags);
      }();
      if (!any_child_convicted && median_before > kParentResidualFloor) {
        hr.parent_distrusted = true;
        ++report.parents_distrusted;
      }

      report.worst_residual_before =
          std::max(report.worst_residual_before, hr.worst_before);
      if (!hr.parent_distrusted) {
        report.worst_residual_after =
            std::max(report.worst_residual_after, hr.worst_after);
      }
      report.residuals.push_back(std::move(hr));
    }
  } else {
    // Too small for cohort statistics: still report the hierarchy
    // residuals so a lying parent over a tiny fleet is at least visible.
    for (const auto& check : checks) {
      HierarchyResidual hr;
      hr.label = check.label;
      const std::vector<double> res = hierarchy_residuals(
          check.parent_means_w, check.child_means_w, check.child_scale);
      for (double r : res) {
        if (finite(r)) hr.worst_before = std::max(hr.worst_before, std::abs(r));
      }
      hr.worst_after = hr.worst_before;
      if (hr.worst_before > kParentResidualFloor) {
        hr.parent_distrusted = true;
        ++report.parents_distrusted;
      }
      report.worst_residual_before =
          std::max(report.worst_residual_before, hr.worst_before);
      report.worst_residual_after =
          std::max(report.worst_residual_after, hr.worst_after);
      report.residuals.push_back(std::move(hr));
    }
  }

  return report;
}

}  // namespace pv
