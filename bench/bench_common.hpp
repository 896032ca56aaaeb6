#pragma once
// Shared helpers for the reproduction benches.

#include <sys/resource.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/pipeline.hpp"

namespace pv::bench {

/// Byte comparison of everything a campaign reports (NaN-safe, unlike ==).
inline bool identical_reports(const CampaignResult& a,
                              const CampaignResult& b) {
  const auto bits = [](const double& x, const double& y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  if (!bits(a.submitted_power.value(), b.submitted_power.value())) return false;
  if (!bits(a.submitted_energy.value(), b.submitted_energy.value()))
    return false;
  if (a.nodes_measured != b.nodes_measured) return false;
  if (a.node_mean_powers_w.size() != b.node_mean_powers_w.size()) return false;
  for (std::size_t i = 0; i < a.node_mean_powers_w.size(); ++i) {
    if (!bits(a.node_mean_powers_w[i], b.node_mean_powers_w[i])) return false;
  }
  if (!bits(a.node_mean_ci.lo, b.node_mean_ci.lo)) return false;
  if (!bits(a.node_mean_ci.hi, b.node_mean_ci.hi)) return false;
  if (!bits(a.relative_halfwidth, b.relative_halfwidth)) return false;
  if (!bits(a.true_power.value(), b.true_power.value())) return false;
  if (!bits(a.relative_error, b.relative_error)) return false;
  return true;
}

/// Runs `plan` through the default stage list with the node-tap Meter
/// stage swapped for the eager reference (make_reference_node_meter_stage)
/// — the comparand the perf benches time the engine against.
inline CampaignResult run_reference_campaign(
    const ClusterPowerModel& cluster, const SystemPowerModel& electrical,
    const MeasurementPlan& plan, const CampaignConfig& config) {
  std::vector<StagePtr> stages = make_campaign_stages(plan, config);
  stages[1] = make_reference_node_meter_stage();  // Provision, Meter, ...
  return run_campaign_stages(cluster, electrical, plan, config, stages);
}

/// Peak resident set size of this process in MB, from getrusage.  The
/// kernel reports a monotone high-watermark (ru_maxrss never decreases),
/// so memory-growth comparisons must take both readings before anything
/// larger runs in the same process.
inline double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
}

/// Reads a std::size_t from the environment, with a default — used to let
/// CI shrink Monte-Carlo counts (e.g. PV_FIG3_SIMS=5000).
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const long long parsed = std::atoll(v);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

/// Standard bench banner.
inline void banner(const std::string& id, const std::string& what) {
  std::cout << "\n================================================================\n"
            << id << " — " << what << '\n'
            << "================================================================\n";
}

}  // namespace pv::bench
