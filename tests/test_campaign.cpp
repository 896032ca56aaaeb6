// Unit tests for campaign execution: metering, extrapolation, accuracy.

#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

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

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Metamorphic oracle: every step from node means to a submission is
// homogeneous of degree one — a node draws its mean times the shared
// shape, its PSU's rating scales with its mean (so load fractions and
// efficiencies do not move), the auxiliaries are fractions of the
// compute mean, and the Eq. 1 statistics scale with their inputs — and
// x2 is exact in binary floating point.  So with perfect meters the same
// plan on a fleet with every node mean doubled reports exactly twice the
// power, energy, CI bounds and true power, and the same relative error
// and relative half-width.  It fails if a tap ever reads node truths
// other than its own cluster's.
TEST(Campaign, DoublingEveryNodeMeanDoublesTheResultsBitForBit) {
  CampaignConfig config;
  config.meter_accuracy = MeterAccuracy::perfect();
  for (const std::size_t nodes : {16u, 97u, 640u}) {
    ScenarioSpec scenario;
    scenario.nodes = nodes;
    scenario.cv = 0.04;
    scenario.fleet_seed = nodes;
    scenario.run_minutes = 20.0;
    const Scenario base = build_scenario(scenario);
    std::vector<double> doubled(base.cluster->node_means().begin(),
                                base.cluster->node_means().end());
    for (double& w : doubled) w *= 2.0;
    const Scenario twice =
        build_scenario_with_powers(scenario, std::move(doubled));
    for (const Level level : {Level::kL1, Level::kL2, Level::kL3}) {
      for (const Revision revision : {Revision::kV1_2, Revision::kV2015}) {
        // Planned once, on the original fleet: L2's 10 kW floor depends
        // on node power.
        const MeasurementPlan planned =
            base.plan(MethodologySpec::get(level, revision), nodes + 5);
        for (const MeasurementPoint point :
             {MeasurementPoint::kNodeAc, MeasurementPoint::kNodeDc,
              MeasurementPoint::kRackPdu, MeasurementPoint::kFacilityFeed}) {
          SCOPED_TRACE(std::to_string(nodes) + " nodes, L" +
                       std::to_string(static_cast<int>(level)) +
                       (revision == Revision::kV2015 ? " 2015, " : " 1.2, ") +
                       to_string(point));
          MeasurementPlan plan = planned;
          plan.point = point;
          const CampaignResult a =
              run_campaign(*base.cluster, *base.electrical, plan, config);
          const CampaignResult b =
              run_campaign(*twice.cluster, *twice.electrical, plan, config);
          EXPECT_GT(a.submitted_power.value(), 0.0);
          EXPECT_TRUE(same_bits(b.submitted_power.value(),
                                2.0 * a.submitted_power.value()));
          EXPECT_TRUE(same_bits(b.submitted_energy.value(),
                                2.0 * a.submitted_energy.value()));
          EXPECT_TRUE(same_bits(b.node_mean_ci.lo, 2.0 * a.node_mean_ci.lo));
          EXPECT_TRUE(same_bits(b.node_mean_ci.hi, 2.0 * a.node_mean_ci.hi));
          EXPECT_TRUE(
              same_bits(b.true_power.value(), 2.0 * a.true_power.value()));
          EXPECT_TRUE(same_bits(b.relative_error, a.relative_error));
          EXPECT_TRUE(same_bits(b.relative_halfwidth, a.relative_halfwidth));
        }
      }
    }
  }
}

// Each surviving node's mean, keyed by node id: node_mean_powers_w holds
// the plan's nodes in plan order, lost meters skipped.
std::map<std::size_t, double> means_by_node(const MeasurementPlan& plan,
                                            const CampaignResult& result) {
  const std::vector<std::size_t>& lost = result.data_quality.lost_meter_ids;
  std::map<std::size_t, double> means;
  std::size_t next = 0;
  for (const std::size_t node : plan.node_indices) {
    if (std::find(lost.begin(), lost.end(), node) != lost.end()) continue;
    EXPECT_LT(next, result.node_mean_powers_w.size());
    if (next < result.node_mean_powers_w.size()) {
      means[node] = result.node_mean_powers_w[next++];
    }
  }
  EXPECT_EQ(next, result.node_mean_powers_w.size());
  return means;
}

// `v` in the order of a Fisher-Yates shuffle drawn from Rng(seed).
std::vector<std::size_t> shuffled(std::vector<std::size_t> v,
                                  std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform_index(i)]);
  }
  return v;
}

// Metamorphic oracle: a node-tap lane's calibration, noise and fault
// streams are keyed by its node id, not by its place in the plan, so
// shuffling the plan's node order shuffles the readings with it.  Each
// node's mean moves with its node bit for bit, the lost meters are the
// same set, and the aggregates, which sum in plan order, agree within
// rounding.  Plans of 1, 63, 64, 65 and 130 nodes put lanes on both
// sides of the fused kernel's 64-lane tile edges.
TEST(Campaign, PermutingThePlanPermutesTheReadings) {
  ScenarioSpec scenario;
  scenario.nodes = 160;
  scenario.cv = 0.04;
  scenario.fleet_seed = 23;
  scenario.run_minutes = 20.0;
  const Scenario built = build_scenario(scenario);
  std::vector<std::size_t> fleet(scenario.nodes);
  std::iota(fleet.begin(), fleet.end(), std::size_t{0});
  const std::vector<std::size_t> drawn = shuffled(fleet, 31);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 130u}) {
    for (const Level level : {Level::kL1, Level::kL2, Level::kL3}) {
      MeasurementPlan plan =
          built.plan(MethodologySpec::get(level, Revision::kV2015), n);
      plan.node_indices.assign(drawn.begin(), drawn.begin() + n);
      for (const MeasurementPoint point :
           {MeasurementPoint::kNodeAc, MeasurementPoint::kNodeDc}) {
        plan.point = point;
        plan.conversion = point == MeasurementPoint::kNodeDc
                              ? ConversionCorrection::kMeasuredCurve
                              : ConversionCorrection::kNone;
        MeasurementPlan permuted = plan;
        permuted.node_indices = shuffled(plan.node_indices, n + 7);
        for (const std::size_t threads : {1u, 3u}) {
          for (const bool faulted : {false, true}) {
            SCOPED_TRACE(std::to_string(n) + " nodes, L" +
                         std::to_string(static_cast<int>(level)) + ", " +
                         to_string(point) + ", threads " +
                         std::to_string(threads) +
                         (faulted ? ", harsh + dead" : ", clean"));
            CampaignConfig config;
            config.seed = 5;
            config.threads = threads;
            config.meter_interval_override = Seconds{10.0};
            if (faulted) {
              config.faults.spec = FaultSpec::harsh();
              if (n > 2) {
                config.faults.dead_meters = {plan.node_indices[0],
                                             plan.node_indices[n / 2]};
              }
            }
            const CampaignResult a =
                run_campaign(*built.cluster, *built.electrical, plan, config);
            const CampaignResult b = run_campaign(
                *built.cluster, *built.electrical, permuted, config);

            const std::map<std::size_t, double> ma = means_by_node(plan, a);
            const std::map<std::size_t, double> mb =
                means_by_node(permuted, b);
            ASSERT_EQ(ma.size(), mb.size());
            for (const auto& [node, mean] : ma) {
              ASSERT_EQ(mb.count(node), 1u) << "node " << node;
              EXPECT_TRUE(same_bits(mean, mb.at(node))) << "node " << node;
            }
            std::vector<std::size_t> lost_a = a.data_quality.lost_meter_ids;
            std::vector<std::size_t> lost_b = b.data_quality.lost_meter_ids;
            std::sort(lost_a.begin(), lost_a.end());
            std::sort(lost_b.begin(), lost_b.end());
            EXPECT_EQ(lost_a, lost_b);
            if (faulted && n > 2) {
              EXPECT_GE(lost_a.size(), 2u);
            }
            EXPECT_EQ(a.data_quality.samples_lost,
                      b.data_quality.samples_lost);
            EXPECT_EQ(a.data_quality.samples_repaired,
                      b.data_quality.samples_repaired);

            const auto near = [](double x, double y) {
              return std::abs(x - y) <= 1e-12 * std::abs(x);
            };
            EXPECT_TRUE(near(a.submitted_power.value(),
                             b.submitted_power.value()));
            EXPECT_TRUE(near(a.submitted_energy.value(),
                             b.submitted_energy.value()));
            EXPECT_TRUE(near(a.node_mean_ci.lo, b.node_mean_ci.lo));
            EXPECT_TRUE(near(a.node_mean_ci.hi, b.node_mean_ci.hi));
            EXPECT_TRUE(near(a.relative_halfwidth, b.relative_halfwidth));
            EXPECT_TRUE(near(a.true_power.value(), b.true_power.value()));
            EXPECT_NEAR(a.relative_error, b.relative_error, 1e-12);
          }
        }
      }
    }
  }
}

// A campaign's electrical model must be its own cluster's.  An equal twin
// cluster's model has equal truths but reads another cluster object, and
// every tap refuses it with a typed error; each cluster runs with its own.
TEST(Campaign, TwinClusterModelIsATypedError) {
  ScenarioSpec spec;
  spec.nodes = 4;
  const Scenario built = build_scenario(spec);
  const Scenario twin = build_scenario(spec);
  MeasurementPlan plan =
      built.plan(MethodologySpec::get(Level::kL3, Revision::kV2015), 3);
  for (const MeasurementPoint point :
       {MeasurementPoint::kNodeAc, MeasurementPoint::kNodeDc,
        MeasurementPoint::kRackPdu, MeasurementPoint::kFacilityFeed}) {
    SCOPED_TRACE(to_string(point));
    plan.point = point;
    EXPECT_THROW((void)run_campaign(*built.cluster, *twin.electrical, plan,
                                    fast_config()),
                 contract_error);
    EXPECT_THROW((void)run_campaign(*twin.cluster, *built.electrical, plan,
                                    fast_config()),
                 contract_error);
    EXPECT_NO_THROW((void)run_campaign(*built.cluster, *built.electrical,
                                       plan, fast_config()));
    EXPECT_NO_THROW((void)run_campaign(*twin.cluster, *twin.electrical, plan,
                                       fast_config()));
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
