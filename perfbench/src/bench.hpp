#pragma once
// Shared pieces of the powervar benchmark program: the command-line
// options, the report every workload fills, timing helpers, and the
// stage-timing decorator the traced runs wrap around the pipeline.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"

namespace pvb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Linearly interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The end-to-end metrics report the fastest decile of a run's windows
/// (a window is one campaign, or one batch of service requests).  On a
/// shared host, neighbours' load slows this process by 20-80% for
/// seconds to minutes at a time, so medians drift between runs with the
/// host's weather; the fastest decile is the code's own speed.
[[nodiscard]] inline double fastest_decile_time(std::vector<double> values) {
  return quantile(std::move(values), 0.1);
}
[[nodiscard]] inline double fastest_decile_rate(std::vector<double> values) {
  return quantile(std::move(values), 0.9);
}

/// Every operation and correctness check a run attempted.  A thrown
/// campaign, a non-ok response and a failed check each count as one
/// failure; the first few messages are kept for the report.
class Tally {
 public:
  void record(bool ok, const std::string& what);
  void operation(bool ok, const std::string& what) {
    ++operations_;
    record(ok, what);
  }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] std::size_t operations() const { return operations_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t operations_ = 0;
  std::vector<std::string> failures_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string detail;  ///< sample count or base, printed beside the value
};

/// What one workload run reports: its metrics (end-to-end untraced,
/// per-layer traced), the failure tally and human-readable notes.
struct Report {
  Tally tally;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit,
           std::string detail = "") {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(detail)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Wall time of each named span of one campaign, in execution order.
using Spans = std::vector<std::pair<std::string, double>>;

[[nodiscard]] double span_ms(const Spans& spans, const std::string& name);
[[nodiscard]] double span_sum_ms(const Spans& spans);

/// Times one pipeline stage from outside with steady_clock and appends
/// the span to `spans`; the stage itself runs unchanged.
class TimedStage final : public pv::CampaignStage {
 public:
  TimedStage(pv::StagePtr inner, Spans& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  void run(pv::CampaignContext& ctx, pv::StageTrace& trace) override;

 private:
  pv::StagePtr inner_;
  Spans& spans_;
};

/// Wraps every stage of `stages` in a TimedStage.
[[nodiscard]] std::vector<pv::StagePtr> timed(std::vector<pv::StagePtr> stages,
                                              Spans& spans);

/// Counter `key` of the first stage trace named `stage` (0 if absent).
[[nodiscard]] double stage_counter(const pv::CampaignResult& result,
                                   const std::string& stage,
                                   const std::string& key);
/// The first stage trace named `stage`, or null.
[[nodiscard]] const pv::StageTrace* find_stage(const pv::CampaignResult& result,
                                               const std::string& stage);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Prints the machine-shape header: compiler, build type and flags,
/// nproc, the effective parallelism measured now (returned), and the
/// source identity.
double print_machine_header(const std::string& commit,
                            const std::string& source);

/// Prints the thread-scaling figure when the effective parallelism is at
/// least 2, "not measurable here" otherwise.  It runs its own campaigns,
/// so it is called after the workload has read its peak rss.
void print_thread_scaling(double effective_parallelism);

Report run_campaign_clean(const Options& opt);
Report run_service_mix(const Options& opt);

}  // namespace pvb
