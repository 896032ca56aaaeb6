#include "core/report.hpp"

#include <algorithm>
#include <cstdio>

#include "stats/descriptive.hpp"
#include "util/table.hpp"

namespace pv {
namespace {

// Width of the "label:" column of every key/value report line; the
// historical reports hand-padded each label to this column.
constexpr std::size_t kLabelColumn = 19;

// "label:<pad>value\n" with the value starting at column kLabelColumn —
// the exact shape of every line the string-built reports produced.
std::string kv(const std::string& label, const std::string& value) {
  std::string line = label;
  line += ':';
  while (line.size() < kLabelColumn) line += ' ';
  line += value;
  line += '\n';
  return line;
}

// %.6g — compact counter rendering for the stage-trace text table.
std::string fmt_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void append_collection(Document& doc, const CollectionQuality& c) {
  if (!c.used) return;
  DocBlock& b = doc.block("collection", "\n--- collection path ---\n");
  b.field("polls_attempted", c.polls_attempted,
          kv("polls", std::to_string(c.polls_attempted) + " attempted, " +
                          std::to_string(c.polls_timed_out) + " timed out, " +
                          std::to_string(c.polls_retried) + " retries, " +
                          std::to_string(c.duplicates_discarded) +
                          " duplicates discarded"));
  b.field("polls_timed_out", c.polls_timed_out);
  b.field("polls_retried", c.polls_retried);
  b.field("duplicates_discarded", c.duplicates_discarded);
  b.field("breaker_trips", c.breaker_trips,
          kv("circuit breakers",
             std::to_string(c.breaker_trips) + " trips, " +
                 std::to_string(c.meters_abandoned) + " meters abandoned"));
  b.field("meters_abandoned", c.meters_abandoned);
  b.field("busy_total_s", c.busy_total_s,
          kv("poll time", fmt_fixed(c.busy_total_s, 2) +
                              " s total, slowest meter " +
                              fmt_fixed(c.busy_max_meter_s, 2) +
                              " s, modeled wall clock " +
                              fmt_fixed(c.makespan_s, 2) + " s"));
  b.field("busy_max_meter_s", c.busy_max_meter_s);
  b.field("makespan_s", c.makespan_s);
}

void append_integrity(Document& doc, const DataQuality& q) {
  if (!q.reconcile_ran) return;
  const ReconcileReport& r = q.integrity;
  DocBlock& b = doc.block("integrity", "\n--- integrity (byzantine defense) ---\n");
  b.field("meters_checked", r.meters_checked,
          kv("meters checked",
             std::to_string(r.meters_checked) + " (" +
                 std::to_string(r.meters_quarantined) + " quarantined, " +
                 std::to_string(r.meters_corrected) + " corrected)"));
  b.field("meters_quarantined", r.meters_quarantined);
  b.field("meters_corrected", r.meters_corrected);

  // Diagnoses arrive sorted by meter id; render only the convicted.
  Json diagnoses = Json::array();
  std::string rows;
  for (const MeterDiagnosis& d : r.diagnoses) {
    if (d.verdict == MeterVerdict::kTrusted) continue;
    std::string line = "  meter " + std::to_string(d.meter_id) + ": " +
                       to_string(d.verdict);
    Json row = Json::object();
    row["meter"] = d.meter_id;
    row["verdict"] = to_string(d.verdict);
    if (d.verdict == MeterVerdict::kUnitError) {
      if (d.correction_scale >= 1.0) {
        line += " (x" + fmt_fixed(d.correction_scale, 0) + ')';
      } else {
        line += " (x1/" + fmt_fixed(1.0 / d.correction_scale, 0) + ')';
      }
      row["correction_scale"] = d.correction_scale;
    } else if (d.verdict == MeterVerdict::kClockSkewed) {
      line += " (lag " + std::to_string(d.clock_lag) + " windows)";
      row["clock_lag_windows"] = static_cast<long long>(d.clock_lag);
    } else {
      line += " (gain " + fmt_fixed(d.gain_estimate, 3) + ')';
      row["gain_estimate"] = d.gain_estimate;
    }
    line += " -> ";
    line += d.corrected ? "corrected" : "quarantined";
    line += ", detected at window " + std::to_string(d.detection_window) + '\n';
    row["action"] = d.corrected ? "corrected" : "quarantined";
    row["detection_window"] = d.detection_window;
    rows += line;
    diagnoses.push_back(std::move(row));
  }
  b.field("diagnoses", std::move(diagnoses), std::move(rows));

  if (!r.residuals.empty()) {
    std::string text =
        kv("hierarchy checks",
           std::to_string(r.residuals.size()) + ", worst residual " +
               fmt_percent(r.worst_residual_before, 2) + " -> " +
               fmt_percent(r.worst_residual_after, 2) +
               " after reconciliation");
    Json hierarchy = Json::object();
    hierarchy["checks"] = r.residuals.size();
    hierarchy["worst_residual_before"] = r.worst_residual_before;
    hierarchy["worst_residual_after"] = r.worst_residual_after;
    Json distrusted = Json::array();
    for (const HierarchyResidual& hr : r.residuals) {
      if (hr.parent_distrusted) {
        text += "  " + hr.label +
                ": children agree but the parent does not -> parent meter "
                "distrusted\n";
        distrusted.push_back(hr.label);
      }
    }
    hierarchy["distrusted_parents"] = std::move(distrusted);
    b.field("hierarchy", std::move(hierarchy), std::move(text));
  }
  if (r.any_convicted()) {
    b.field("mean_detection_latency_windows", r.mean_detection_latency_windows,
            kv("detection latency",
               fmt_fixed(r.mean_detection_latency_windows, 1) +
                   " windows (mean over convicted meters)"));
  }
  if (r.meters_corrected > 0) {
    b.field("corrected_sigma", r.corrected_sigma,
            kv("corrections",
               "residual sigma " + fmt_percent(r.corrected_sigma, 2) +
                   " per corrected reading folded into the Eq. 1 CI"));
  }
}

void append_data_quality(Document& doc, const DataQuality& q) {
  // Rendered when data faults were injected or the async collection path
  // ran (whose transport losses degrade coverage the same way).  The gate
  // covers the collection and integrity blocks too — fault-free campaigns
  // keep the bare assessment, exactly as the string-built report did.
  if (!q.faults_enabled && !q.collection.used) return;
  {
    DocBlock& b = doc.block("data_quality", "\n--- data quality ---\n");
    std::string lost_line = std::to_string(q.meters_lost) + " of " +
                            std::to_string(q.meters_planned);
    Json lost_ids = Json::array();
    if (!q.lost_meter_ids.empty()) {
      // Sorted so the rendering never depends on container iteration or
      // completion order (check_determinism.sh diffs this output).
      std::vector<std::size_t> ids = q.lost_meter_ids;
      std::sort(ids.begin(), ids.end());
      lost_line += " (ids:";
      for (std::size_t id : ids) {
        lost_line += ' ' + std::to_string(id);
        lost_ids.push_back(id);
      }
      lost_line += ')';
    }
    b.field("meters_planned", q.meters_planned);
    b.field("meters_lost", q.meters_lost, kv("meters lost", lost_line));
    b.field("lost_meter_ids", std::move(lost_ids));
    b.field("sample_coverage", q.sample_coverage,
            kv("sample coverage",
               fmt_percent(q.sample_coverage, 2) + " (" +
                   std::to_string(q.samples_lost) + " of " +
                   std::to_string(q.samples_expected) + " samples lost, " +
                   std::to_string(q.samples_repaired) + " repaired)"));
    b.field("samples_expected", q.samples_expected);
    b.field("samples_lost", q.samples_lost);
    b.field("samples_repaired", q.samples_repaired);
    if (q.stuck_flagged > 0) {
      b.field("stuck_flagged", q.stuck_flagged,
              kv("stuck readings",
                 std::to_string(q.stuck_flagged) + " flagged invalid"));
    } else {
      b.field("stuck_flagged", q.stuck_flagged);
    }
    if (q.spikes_filtered > 0) {
      b.field("spikes_filtered", q.spikes_filtered,
              kv("spikes filtered", std::to_string(q.spikes_filtered)));
    } else {
      b.field("spikes_filtered", q.spikes_filtered);
    }
    b.field("planned_node_fraction", q.planned_node_fraction,
            kv("machine coverage",
               "planned " + fmt_percent(q.planned_node_fraction, 2) +
                   " -> achieved " +
                   fmt_percent(q.achieved_node_fraction, 2)));
    b.field("achieved_node_fraction", q.achieved_node_fraction);
    b.field("ci_widened", q.ci_widened,
            kv("Eq. 1 CI",
               q.ci_widened
                   ? "widened (re-extrapolated from surviving meters)"
                   : "as planned"));
  }
  append_collection(doc, q.collection);
  append_integrity(doc, q);
}

void append_stage_traces(Document& doc, const CampaignResult& result) {
  if (result.stage_traces.empty()) return;
  DocBlock& b = doc.block("trace", "\n--- stage trace ---\n");
  Json stages = Json::array();
  TextTable t({"stage", "items", "samples", "virtual", "wall", "counters"});
  for (const StageTrace& s : result.stage_traces) {
    Json stage = Json::object();
    stage["stage"] = s.stage;
    stage["items"] = s.items;
    stage["samples"] = s.samples;
    stage["virtual_s"] = s.virtual_s;
    // wall_ms is deliberately absent from the JSON: the machine document
    // must be deterministic; host wall clock is not.
    Json counters = Json::object();
    std::string rendered;
    for (const auto& [name, value] : s.counters) {
      counters[name] = value;
      if (!rendered.empty()) rendered += ' ';
      rendered += name + '=' + fmt_g(value);
    }
    stage["counters"] = std::move(counters);
    stages.push_back(std::move(stage));
    t.add_row({s.stage, std::to_string(s.items), std::to_string(s.samples),
               fmt_fixed(s.virtual_s, 1) + " s", fmt_fixed(s.wall_ms, 2) + " ms",
               rendered});
  }
  b.field("stages", std::move(stages), t.render());
}

}  // namespace

Document assessment_document(const MeasurementPlan& plan,
                             const CampaignResult& result,
                             const ReportOptions& opts) {
  Document doc;
  std::string heading = "=== Power measurement accuracy assessment";
  if (!result.system_name.empty()) heading += ": " + result.system_name;
  heading += " ===\n";
  DocBlock& a = doc.block("assessment", std::move(heading));

  a.field("system", result.system_name);
  a.field("level", to_string(plan.spec.level));
  a.field("revision", to_string(plan.spec.revision));
  a.text(plan.spec.describe());
  a.field("nodes_measured", result.nodes_measured,
          "plan: " + std::to_string(result.nodes_measured) +
              " nodes metered at " + to_string(plan.point) + ", window " +
              to_string(result.window_duration) + " starting at t=" +
              to_string(plan.window.begin) + "\n\n");
  a.field("measurement_point", to_string(plan.point));
  a.field("window_s", result.window_duration.value());
  a.field("window_begin_s", plan.window.begin.value());

  a.field("submitted_power_w", result.submitted_power.value(),
          kv("submitted power", to_string(result.submitted_power)));
  a.field("window_energy_j", result.submitted_energy.value(),
          kv("window energy", to_string(result.submitted_energy)));

  if (!result.node_mean_powers_w.empty()) {
    const Summary s = summarize(result.node_mean_powers_w);
    Json node_mean = Json::object();
    node_mean["mean_w"] = s.mean;
    node_mean["sd_w"] = s.stddev;
    node_mean["cv"] = s.cv;
    a.field("node_mean", std::move(node_mean),
            kv("per-node mean",
               to_string(Watts{s.mean}) + "  (sd " + to_string(Watts{s.stddev}) +
                   ", cv " + fmt_percent(s.cv, 2) + ")"));
  }
  if (result.relative_halfwidth > 0.0) {
    Json ci = Json::object();
    ci["lo_w"] = result.node_mean_ci.lo;
    ci["hi_w"] = result.node_mean_ci.hi;
    a.field("node_mean_ci", std::move(ci),
            kv("95% CI (Eq. 1)",
               "[" + to_string(Watts{result.node_mean_ci.lo}) + ", " +
                   to_string(Watts{result.node_mean_ci.hi}) + "] per node"));
    a.field("relative_halfwidth", result.relative_halfwidth,
            kv("achieved accuracy",
               "+/-" + fmt_percent(result.relative_halfwidth, 2) +
                   " at 95% confidence"));
  } else {
    a.field("relative_halfwidth", result.relative_halfwidth,
            kv("achieved accuracy",
               "(not assessable: fewer than 2 nodes metered)"));
  }
  a.field("true_power_w", result.true_power.value(),
          kv("ground truth",
             to_string(result.true_power) + "  -> actual error " +
                 fmt_percent(result.relative_error, 2)));
  a.field("relative_error", result.relative_error);

  append_data_quality(doc, result.data_quality);
  if (opts.trace_stages) append_stage_traces(doc, result);
  return doc;
}

std::string accuracy_report(const MeasurementPlan& plan,
                            const CampaignResult& result) {
  return render_text(assessment_document(plan, result));
}

Document live_assessment_document(const MeasurementPlan& plan,
                                  const CampaignResult& result,
                                  const LiveProgress& progress) {
  Document doc = assessment_document(plan, result);
  DocBlock& b = doc.block("live", "\n--- live (partial) ---\n");
  // Appended piece by piece: the operator+ chain starting at "#" inlines
  // into a copy GCC 12 flags as overlapping (-Wrestrict) at -O3.
  std::string partial = "#";
  partial += std::to_string(progress.seq);
  partial += " at t=";
  partial += fmt_fixed(progress.virtual_s, 1);
  partial += " s, ";
  partial += std::to_string(progress.windows_closed);
  partial += " windows closed, ";
  partial += std::to_string(progress.nodes_reporting);
  partial += " nodes reporting";
  b.field("seq", progress.seq, kv("partial", partial));
  b.field("virtual_s", progress.virtual_s);
  b.field("windows_closed", progress.windows_closed);
  b.field("nodes_reporting", progress.nodes_reporting);
  b.field("window_capacity", progress.window_capacity);
  {
    Json recent = Json::array();
    std::string rows;
    for (const auto& [index, mean_w] : progress.recent_windows) {
      Json row = Json::object();
      row["window"] = index;
      row["fleet_mean_w"] = mean_w;
      recent.push_back(std::move(row));
      rows += "  window " + std::to_string(index) + ": " +
              fmt_fixed(mean_w, 2) + " W fleet mean\n";
    }
    b.field("recent_windows", std::move(recent), std::move(rows));
  }
  if (progress.sketch_count > 0) {
    Json sketch = Json::object();
    sketch["count"] = progress.sketch_count;
    sketch["bins"] = progress.sketch_bins;
    sketch["alpha"] = progress.sketch_alpha;
    sketch["p05_w"] = progress.p05_w;
    sketch["p50_w"] = progress.p50_w;
    sketch["p95_w"] = progress.p95_w;
    b.field("sketch", std::move(sketch),
            kv("node-window means",
               "p05 " + fmt_fixed(progress.p05_w, 1) + " W, p50 " +
                   fmt_fixed(progress.p50_w, 1) + " W, p95 " +
                   fmt_fixed(progress.p95_w, 1) + " W (" +
                   std::to_string(progress.sketch_count) + " in " +
                   std::to_string(progress.sketch_bins) + " bins)"));
  }
  return doc;
}

Json parse_assessment_line(const std::string& line) {
  if (line.empty() || line.back() != '\n') {
    throw AssessmentParseError(
        "assessment line is not newline-terminated (torn write?)");
  }
  if (line.find('\n') != line.size() - 1) {
    throw AssessmentParseError("assessment line contains embedded newlines");
  }
  Json doc;
  try {
    doc = Json::parse(line.substr(0, line.size() - 1));
  } catch (const JsonParseError& e) {
    throw AssessmentParseError(std::string("invalid JSON: ") + e.what());
  }
  if (doc.kind() != Json::Kind::kObject) {
    throw AssessmentParseError("assessment document is not a JSON object");
  }
  const Json* schema = doc.find("schema");
  if (schema == nullptr || schema->kind() != Json::Kind::kString ||
      schema->string_value() != "powervar-assessment-v1") {
    throw AssessmentParseError("missing or wrong schema tag");
  }
  const Json* a = doc.find("assessment");
  if (a == nullptr || a->kind() != Json::Kind::kObject) {
    throw AssessmentParseError("missing assessment block");
  }
  for (const char* key :
       {"nodes_measured", "window_s", "submitted_power_w", "window_energy_j",
        "relative_halfwidth", "true_power_w", "relative_error"}) {
    const Json* v = a->find(key);
    if (v == nullptr || !v->is_number()) {
      throw AssessmentParseError(std::string("assessment field '") + key +
                                 "' missing or non-numeric");
    }
  }
  const Json* live = doc.find("live");
  if (live != nullptr) {
    if (live->kind() != Json::Kind::kObject) {
      throw AssessmentParseError("live block is not an object");
    }
    for (const char* key :
         {"seq", "virtual_s", "windows_closed", "nodes_reporting",
          "window_capacity"}) {
      const Json* v = live->find(key);
      if (v == nullptr || !v->is_number()) {
        throw AssessmentParseError(std::string("live field '") + key +
                                   "' missing or non-numeric");
      }
    }
    const Json* recent = live->find("recent_windows");
    if (recent == nullptr || recent->kind() != Json::Kind::kArray) {
      throw AssessmentParseError("live.recent_windows missing or not an array");
    }
    for (const Json& row : recent->items()) {
      if (row.kind() != Json::Kind::kObject ||
          row.find("window") == nullptr || !row.find("window")->is_number() ||
          row.find("fleet_mean_w") == nullptr ||
          !row.find("fleet_mean_w")->is_number()) {
        throw AssessmentParseError("malformed live.recent_windows row");
      }
    }
  }
  return doc;
}

std::string data_quality_report(const DataQuality& q) {
  Document doc;
  append_data_quality(doc, q);
  return render_text(doc);
}

std::string integrity_quality_report(const DataQuality& q) {
  Document doc;
  append_integrity(doc, q);
  return render_text(doc);
}

std::string render_issues(const std::vector<ValidationIssue>& issues) {
  if (issues.empty()) return "(compliant)\n";
  std::string out;
  for (const auto& issue : issues) {
    out += "  [" + issue.rule + "] " + issue.what + '\n';
  }
  return out;
}

}  // namespace pv
