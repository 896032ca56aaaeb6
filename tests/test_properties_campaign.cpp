// Campaign-level property tests: statements that must hold across many
// seeds rather than for one pinned example.
//
//   * determinism — re-running the exact same campaign configuration
//     (including faults + reconciliation and the threaded fan-out)
//     reproduces every reported byte;
//   * Eq. 1 coverage — the 95% t-CI on the node mean contains the true
//     population mean node power at at least the nominal rate over 200
//     independently seeded L1 campaigns (ignoring the finite-population
//     correction only makes the interval conservative);
//   * monotone cohorts — metering more nodes never widens the expected
//     CI (halfwidth ~ t_{n-1} * s / sqrt(n));
//   * no false convictions — the byzantine defense never quarantines or
//     corrects a meter on a fault-free campaign.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "core/scenario.hpp"

namespace pv {
namespace {

struct Rig {
  std::unique_ptr<ClusterPowerModel> cluster;
  std::unique_ptr<SystemPowerModel> electrical;
  MeasurementPlan plan;
};

// The canonical synthetic rig via core/scenario — the historical inline
// construction (typical-CPU fleet at cv 0.03, pinned fleet seed 1234 so
// every trial sees the same machine) expressed as overrides.
Rig make_rig(std::size_t nodes, Level level, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "property-rig";
  spec.nodes = nodes;
  spec.cv = 0.03;
  spec.fleet_seed = 1234;
  Scenario built = build_scenario(spec);
  Rig rig;
  rig.plan = built.plan(MethodologySpec::get(level, Revision::kV2015), seed);
  rig.cluster = std::move(built.cluster);
  rig.electrical = std::move(built.electrical);
  return rig;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool identical_reports(const CampaignResult& a, const CampaignResult& b) {
  if (!bits_equal(a.submitted_power.value(), b.submitted_power.value()))
    return false;
  if (!bits_equal(a.submitted_energy.value(), b.submitted_energy.value()))
    return false;
  if (a.node_mean_powers_w.size() != b.node_mean_powers_w.size()) return false;
  for (std::size_t i = 0; i < a.node_mean_powers_w.size(); ++i) {
    if (!bits_equal(a.node_mean_powers_w[i], b.node_mean_powers_w[i]))
      return false;
  }
  return bits_equal(a.node_mean_ci.lo, b.node_mean_ci.lo) &&
         bits_equal(a.node_mean_ci.hi, b.node_mean_ci.hi) &&
         bits_equal(a.relative_error, b.relative_error) &&
         a.data_quality.integrity.meters_quarantined ==
             b.data_quality.integrity.meters_quarantined;
}

TEST(CampaignProperties, RerunIsByteIdentical) {
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    const Rig rig = make_rig(96, Level::kL3, seed);
    CampaignConfig cfg;
    cfg.seed = seed;
    cfg.meter_interval_override = Seconds{5.0};
    cfg.faults.spec = FaultSpec::harsh();
    cfg.faults.byzantine_meters = {rig.plan.node_indices[2]};
    cfg.reconcile.enabled = true;
    cfg.threads = 4;
    const auto first =
        run_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg);
    const auto second =
        run_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg);
    EXPECT_TRUE(identical_reports(first, second)) << "seed " << seed;
  }
}

// Coverage of the Eq. 1 interval: each trial draws a fresh L1 plan (fresh
// node selection, fresh window position), runs it with the default
// pdu-grade meters, and checks the reported CI against that trial's true
// population mean node power — computed by re-running the *same plan*
// over all nodes with perfect meters, so estimator and truth integrate
// the identical windows.
TEST(CampaignProperties, Eq1CoverageAtLeastNominal) {
  constexpr std::size_t kTrials = 200;
  constexpr std::size_t kNodes = 120;
  std::size_t contained = 0;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = 1000 + trial;
    Rig rig = make_rig(kNodes, Level::kL1, seed);

    CampaignConfig cfg;
    cfg.seed = seed;
    cfg.meter_interval_override = Seconds{10.0};
    const auto measured =
        run_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg);

    MeasurementPlan all = rig.plan;
    all.node_indices.resize(kNodes);
    std::iota(all.node_indices.begin(), all.node_indices.end(), 0);
    CampaignConfig exact = cfg;
    exact.meter_accuracy = MeterAccuracy::perfect();
    const auto census =
        run_campaign(*rig.cluster, *rig.electrical, all, exact);
    const double truth =
        std::accumulate(census.node_mean_powers_w.begin(),
                        census.node_mean_powers_w.end(), 0.0) /
        static_cast<double>(census.node_mean_powers_w.size());

    if (measured.node_mean_ci.contains(truth)) ++contained;
  }
  // Nominal 95%; 200 binomial trials put ~3 sigma at ~0.046, and the
  // ignored finite-population correction only pushes coverage up.
  EXPECT_GE(contained, static_cast<std::size_t>(0.90 * kTrials))
      << "coverage " << contained << "/" << kTrials;
}

// Expected CI halfwidth must shrink (never grow) as the metered cohort
// grows.  Averaged over seeds so the statement is about the estimator,
// not one lucky draw; perfect meters so the only scatter is real
// node-to-node variability.
TEST(CampaignProperties, LargerCohortsNeverWidenExpectedCi) {
  constexpr std::size_t kNodes = 128;
  constexpr std::size_t kSeeds = 20;
  const std::size_t cohorts[] = {8, 16, 32, 64};
  std::vector<double> mean_halfwidth;
  for (const std::size_t n : cohorts) {
    double acc = 0.0;
    for (std::size_t s = 0; s < kSeeds; ++s) {
      const std::uint64_t seed = 500 + s;
      Rig rig = make_rig(kNodes, Level::kL1, seed);
      // Random n-node cohort drawn from the trial's own plan RNG stream.
      std::vector<std::size_t> pool(kNodes);
      std::iota(pool.begin(), pool.end(), 0);
      Rng shuffle_rng(seed ^ 0xC0F0);
      for (std::size_t i = kNodes - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(shuffle_rng.uniform() *
                                                static_cast<double>(i + 1));
        std::swap(pool[i], pool[std::min(j, i)]);
      }
      rig.plan.node_indices.assign(pool.begin(),
                                   pool.begin() + static_cast<long>(n));
      CampaignConfig cfg;
      cfg.seed = seed;
      cfg.meter_interval_override = Seconds{10.0};
      cfg.meter_accuracy = MeterAccuracy::perfect();
      const auto r = run_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg);
      acc += 0.5 * r.node_mean_ci.width();
    }
    mean_halfwidth.push_back(acc / static_cast<double>(kSeeds));
  }
  for (std::size_t i = 1; i < mean_halfwidth.size(); ++i) {
    EXPECT_LE(mean_halfwidth[i], mean_halfwidth[i - 1])
        << "cohort " << cohorts[i] << " widened the expected CI";
  }
}

// A defense that convicts honest meters is worse than no defense: with
// fault injection off, reconciliation must quarantine and correct nothing
// at any level, for any seed, through the engine or the eager reference
// Meter stage.
TEST(CampaignProperties, QuarantineNeverFiresOnCleanRuns) {
  for (const Level level : {Level::kL1, Level::kL3}) {
    for (const std::uint64_t seed : {1u, 7u, 23u, 101u, 202u}) {
      const Rig rig = make_rig(96, level, seed);
      CampaignConfig cfg;
      cfg.seed = seed;
      cfg.meter_interval_override = Seconds{5.0};
      cfg.reconcile.enabled = true;
      for (const bool reference : {false, true}) {
        std::vector<StagePtr> stages = make_campaign_stages(rig.plan, cfg);
        // Provision, Meter, ...: swap in the reference Meter stage.
        if (reference) stages[1] = make_reference_node_meter_stage();
        const auto r = run_campaign_stages(*rig.cluster, *rig.electrical,
                                           rig.plan, cfg, stages);
        EXPECT_TRUE(r.data_quality.reconcile_ran);
        EXPECT_EQ(r.data_quality.integrity.meters_quarantined, 0u)
            << "level " << static_cast<int>(level) << " seed " << seed;
        EXPECT_EQ(r.data_quality.integrity.meters_corrected, 0u)
            << "level " << static_cast<int>(level) << " seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace pv
