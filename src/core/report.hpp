#pragma once
// Accuracy-assessment reports — the paper's §6 asks every submission to
// state how accurate its measurement is.  This module builds a campaign
// result into a structured assessment Document (core/doc) and renders it
// for two audiences: render_text for the reviewer (byte-identical to the
// historical free-text report; golden-test enforced) and render_json for
// machine consumers (vetting tools, bench harnesses, dashboards).

#include <string>

#include "core/campaign.hpp"
#include "core/doc.hpp"
#include "core/plan.hpp"

namespace pv {

/// Rendering knobs for the assessment document.
struct ReportOptions {
  /// Append the per-stage StageTrace block (campaign --trace-stages).
  /// Counters and virtual time are deterministic and appear in the JSON;
  /// wall-clock milliseconds appear in the text rendering only.
  bool trace_stages = false;
};

/// Builds the full assessment document: spec, plan shape, extrapolation,
/// Equation 1 confidence interval, achieved relative accuracy, the true
/// error (simulation only), and — when present — the data-quality,
/// collection-path, integrity and stage-trace blocks.
[[nodiscard]] Document assessment_document(const MeasurementPlan& plan,
                                           const CampaignResult& result,
                                           const ReportOptions& opts = {});

/// Renders the full assessment as text: render_text(assessment_document).
[[nodiscard]] std::string accuracy_report(const MeasurementPlan& plan,
                                          const CampaignResult& result);

/// Renders validator findings as a bulleted block ("(compliant)" if none).
[[nodiscard]] std::string render_issues(
    const std::vector<ValidationIssue>& issues);

/// Renders the data-quality block of a degraded campaign: meters lost,
/// sample coverage, repairs, and whether the Eq. 1 CI was widened.
/// Empty string when neither fault injection nor the async collection
/// path was used.
[[nodiscard]] std::string data_quality_report(const DataQuality& quality);

/// Renders the integrity block of a reconciled campaign: meters checked /
/// quarantined / corrected, per-meter verdicts (sorted by meter id),
/// hierarchy residuals before and after reconciliation, and detection
/// latency.  Empty string when reconciliation never ran.
[[nodiscard]] std::string integrity_quality_report(const DataQuality& quality);

/// Mid-run progress carried by a partial (live) assessment Document.
/// Everything here is a pure function of virtual time and the campaign
/// inputs, so reruns emit identical partials.
struct LiveProgress {
  std::size_t seq = 0;            ///< emission index, 0-based
  double virtual_s = 0.0;         ///< virtual time of the emission point
  std::size_t windows_closed = 0; ///< fleet metering windows fully closed
  std::size_t nodes_reporting = 0;
  /// Fixed-capacity ring of recent closed windows: (window index, fleet
  /// mean watts).  Oldest first; at most the ring capacity entries.
  std::size_t window_capacity = 0;
  std::vector<std::pair<std::size_t, double>> recent_windows;
  /// Campaign-wide quantile sketch over per-node closed-window means
  /// (merged per closed window); count == 0 means no window closed yet.
  std::size_t sketch_count = 0;
  std::size_t sketch_bins = 0;
  double sketch_alpha = 0.0;
  double p05_w = 0.0;
  double p50_w = 0.0;
  double p95_w = 0.0;
};

/// Builds a *partial* assessment Document: the regular assessment blocks
/// over the data metered so far, plus a "live" block carrying the
/// emission schedule position, the closed-window ring and the quantile
/// sketch summary.  The final Document of a live campaign is built by
/// assessment_document as usual and carries no "live" block — which is
/// how it stays byte-identical to the batch Document.
[[nodiscard]] Document live_assessment_document(const MeasurementPlan& plan,
                                                const CampaignResult& result,
                                                const LiveProgress& progress);

/// A line that is not a well-formed powervar-assessment-v1 document.
class AssessmentParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Strictly validates one emitted assessment line (partial or final):
/// exactly one newline-terminated JSON object with the v1 schema tag, an
/// "assessment" block whose required fields are finite numbers, and — if
/// present — a well-formed "live" block.  Returns the parsed Json on
/// success; throws AssessmentParseError otherwise (never crashes, never
/// accepts a torn or truncated write).
[[nodiscard]] Json parse_assessment_line(const std::string& line);

}  // namespace pv
