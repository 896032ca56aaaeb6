// Unit tests for campaign execution: metering, extrapolation, accuracy.

#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/scenario.hpp"
#include "sim/fleet.hpp"
#include "stats/descriptive.hpp"
#include "util/expects.hpp"
#include "util/mathx.hpp"
#include "workload/profiles.hpp"

namespace pv {
namespace {

struct Rig {
  std::unique_ptr<ClusterPowerModel> cluster;
  std::unique_ptr<SystemPowerModel> electrical;
  PlanInputs inputs;
};

Rig make_rig(std::size_t n_nodes, double cv = 0.02,
             double mean_w = 400.0) {
  ScenarioSpec spec;
  spec.name = "rig";
  spec.nodes = n_nodes;
  spec.cv = cv;
  spec.mean_node_w = mean_w;
  spec.fleet_seed = 99;
  Scenario built = build_scenario(spec);
  Rig rig;
  rig.cluster = std::move(built.cluster);
  rig.electrical = std::move(built.electrical);
  rig.inputs = built.inputs;
  return rig;
}

CampaignConfig fast_config() {
  CampaignConfig c;
  c.meter_accuracy = MeterAccuracy::perfect();
  c.meter_interval_override = Seconds{10.0};
  return c;
}

TEST(Campaign, Level3MeasuresEverythingAccurately) {
  const Rig rig = make_rig(64);
  const auto spec = MethodologySpec::get(Level::kL3, Revision::kV1_2);
  Rng rng(1);
  const auto plan = plan_measurement(spec, rig.inputs, rng);
  const auto result =
      run_campaign(*rig.cluster, *rig.electrical, plan, fast_config());
  EXPECT_EQ(result.nodes_measured, 64u);
  // Perfect meters + whole machine + full window: error from subsystem
  // estimation and PDU loss only.  L3 truth includes aux, and the campaign
  // adds measured aux, so the residual is the PDU loss (~2%).
  EXPECT_LT(result.relative_error, 0.03);
  EXPECT_GT(result.submitted_power.value(), 0.0);
}

// Closed-form oracle: with perfect meters an L3 campaign meters every
// node's AC tap over the whole core phase, where FIRESTARTER holds each
// node at a constant draw.  The GL4 meter readings and the 2048-panel
// truth integral are then exact up to rounding, so the compute part of
// the submission is the node AC total, which the truth carries through
// the rack PDUs' loss: submitted compute = (1 - loss) x true compute.
TEST(Campaign, PerfectMeterL3EqualsTheClosedFormScopeIntegral) {
  const MethodologySpec spec = MethodologySpec::get(Level::kL3,
                                                    Revision::kV2015);
  MethodologySpec compute_only = spec;
  compute_only.subsystems = SubsystemRule::kComputeOnly;
  for (const std::size_t nodes : {16u, 97u, 640u}) {
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
      SCOPED_TRACE("nodes " + std::to_string(nodes) + ", seed " +
                   std::to_string(seed));
      ScenarioSpec scenario;
      scenario.nodes = nodes;
      scenario.cv = 0.04;
      scenario.fleet_seed = seed;
      scenario.run_minutes = 20.0;
      const Scenario built = build_scenario(scenario);
      const MeasurementPlan plan = built.plan(spec, seed + 100);
      ASSERT_EQ(plan.point, MeasurementPoint::kNodeAc);
      ASSERT_EQ(plan.node_count(), nodes);
      CampaignConfig config = fast_config();
      config.seed = seed;
      const CampaignResult result =
          run_campaign(*built.cluster, *built.electrical, plan, config);
      ASSERT_EQ(result.nodes_measured, nodes);

      const double t_mid =
          plan.window.begin.value() + 0.5 * plan.window.duration().value();
      const double submitted_compute =
          result.submitted_power.value() -
          built.electrical->auxiliary_ac_w(t_mid);
      const double true_compute =
          true_scope_power(*built.cluster, *built.electrical, compute_only)
              .value();
      const double expected =
          (1.0 - built.electrical->pdu_loss_fraction()) * true_compute;
      EXPECT_NEAR(submitted_compute / expected, 1.0, 1e-9);
      // The auxiliaries are measured at L3, so the whole submission is the
      // full scope truth less exactly the PDU loss.
      EXPECT_NEAR(result.submitted_power.value() - result.true_power.value(),
                  expected - true_compute, 1e-9 * true_compute);
    }
  }
}

TEST(Campaign, ExtrapolationErrorShrinksWithSampleSize) {
  const Rig rig = make_rig(512, /*cv=*/0.03);
  Rng rng(2);
  const auto l1 = MethodologySpec::get(Level::kL1, Revision::kV1_2);
  const auto l2 = MethodologySpec::get(Level::kL2, Revision::kV1_2);
  // Average absolute error over several random subsets.
  double err1 = 0.0, err2 = 0.0;
  constexpr int kTrials = 12;
  for (int t = 0; t < kTrials; ++t) {
    CampaignConfig cfg = fast_config();
    cfg.seed = 100 + static_cast<std::uint64_t>(t);
    const auto plan1 = plan_measurement(l1, rig.inputs, rng);
    const auto plan2 = plan_measurement(l2, rig.inputs, rng);
    err1 += run_campaign(*rig.cluster, *rig.electrical, plan1, cfg)
                .relative_halfwidth;
    err2 += run_campaign(*rig.cluster, *rig.electrical, plan2, cfg)
                .relative_halfwidth;
  }
  // L2 meters 8x the nodes of L1 -> CI roughly sqrt(8)x tighter.
  EXPECT_LT(err2, err1);
}

TEST(Campaign, AccuracyAssessmentBracketsNodeMean) {
  const Rig rig = make_rig(256);
  const auto spec = MethodologySpec::get(Level::kL1, Revision::kV2015);
  Rng rng(3);
  const auto plan = plan_measurement(spec, rig.inputs, rng);
  const auto result =
      run_campaign(*rig.cluster, *rig.electrical, plan, fast_config());
  EXPECT_GE(result.nodes_measured, 16u);
  EXPECT_GT(result.relative_halfwidth, 0.0);
  // The CI on node-mean AC power should bracket the true node-mean AC
  // power most of the time; with this seed it must.
  const double true_node_mean =
      result.true_power.value() / static_cast<double>(rig.cluster->node_count());
  // True compute power includes the ~2% PDU loss that node taps miss;
  // correct for it before comparing.
  EXPECT_TRUE(result.node_mean_ci.contains(true_node_mean * 0.98));
}

TEST(Campaign, BiasedSubsetUnderestimates) {
  const Rig rig = make_rig(512, /*cv=*/0.05);
  const auto spec = MethodologySpec::get(Level::kL1, Revision::kV1_2);
  PlanInputs in = rig.inputs;
  in.node_powers.assign(rig.cluster->node_means().begin(),
                        rig.cluster->node_means().end());
  Rng rng(4);
  const auto honest = plan_measurement(spec, in, rng);
  const auto gamed =
      plan_measurement(spec, in, rng, SubsetStrategy::kLowPower);
  const auto r_honest =
      run_campaign(*rig.cluster, *rig.electrical, honest, fast_config());
  const auto r_gamed =
      run_campaign(*rig.cluster, *rig.electrical, gamed, fast_config());
  EXPECT_LT(r_gamed.submitted_power.value(),
            r_honest.submitted_power.value());
  // The gamed submission understates the true power materially.
  EXPECT_LT(r_gamed.submitted_power.value(), r_gamed.true_power.value());
}

TEST(Campaign, SubsystemInclusionChangesScope) {
  const Rig rig = make_rig(64);
  Rng rng(5);
  const auto l1 = MethodologySpec::get(Level::kL1, Revision::kV1_2);
  const auto l2 = MethodologySpec::get(Level::kL2, Revision::kV1_2);
  const Watts t1 = true_scope_power(*rig.cluster, *rig.electrical, l1);
  const Watts t2 = true_scope_power(*rig.cluster, *rig.electrical, l2);
  EXPECT_GT(t2.value(), t1.value());  // L2 scope includes auxiliaries
  const auto plan2 = plan_measurement(l2, rig.inputs, rng);
  const auto r2 =
      run_campaign(*rig.cluster, *rig.electrical, plan2, fast_config());
  // Submitted power includes the aux estimate.
  EXPECT_GT(r2.submitted_power.value(),
            r2.node_mean_powers_w.size() > 0
                ? mean_of(r2.node_mean_powers_w) * 64.0 * 0.999
                : 0.0);
}

TEST(Campaign, MeterCalibrationSpreadsResults) {
  const Rig rig = make_rig(128, 0.02);
  const auto spec = MethodologySpec::get(Level::kL1, Revision::kV1_2);
  Rng rng(6);
  const auto plan = plan_measurement(spec, rig.inputs, rng);
  CampaignConfig noisy = fast_config();
  noisy.meter_accuracy = MeterAccuracy::commodity_grade();
  std::vector<double> submissions;
  for (std::uint64_t s = 0; s < 10; ++s) {
    CampaignConfig cfg = noisy;
    cfg.seed = s;
    submissions.push_back(
        run_campaign(*rig.cluster, *rig.electrical, plan, cfg)
            .submitted_power.value());
  }
  const Summary st = summarize(submissions);
  EXPECT_GT(st.cv, 0.0005);  // meter class is visible in the spread
}

TEST(Campaign, Guards) {
  const Rig rig = make_rig(32);
  const auto spec = MethodologySpec::get(Level::kL1, Revision::kV1_2);
  Rng rng(7);
  auto plan = plan_measurement(spec, rig.inputs, rng);
  plan.node_indices.clear();
  EXPECT_THROW(
      run_campaign(*rig.cluster, *rig.electrical, plan, fast_config()),
      contract_error);
}

}  // namespace
}  // namespace pv
