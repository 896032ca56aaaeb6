// Unit tests for ClusterPowerModel and its lowering into the electrical
// hierarchy.

#include "sim/cluster.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "stats/descriptive.hpp"
#include "util/expects.hpp"
#include "workload/hpl.hpp"
#include "workload/profiles.hpp"

namespace pv {
namespace {

ClusterPowerModel small_cluster(double static_fraction = 0.35) {
  auto workload =
      std::make_shared<FirestarterWorkload>(hours(1.0), 1.0, minutes(2.0),
                                            minutes(1.0));
  std::vector<double> means{400.0, 410.0, 390.0, 405.0};
  return ClusterPowerModel("mini", std::move(means), std::move(workload),
                           static_fraction);
}

TEST(Cluster, NodeMeansAreReproducedAsTimeAverages) {
  const ClusterPowerModel cluster = small_cluster();
  const RunPhases p = cluster.phases();
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    const double avg = average_over(
        [&](double t) { return cluster.node_power_w(i, t); },
        p.core_begin().value(), p.core_end().value());
    EXPECT_NEAR(avg, cluster.node_means()[i], 1e-6) << "node " << i;
  }
}

TEST(Cluster, SystemPowerIsSumOfNodes) {
  const ClusterPowerModel cluster = small_cluster();
  const double t = cluster.phases().core_begin().value() + 100.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    sum += cluster.node_power_w(i, t);
  }
  EXPECT_NEAR(cluster.system_power_w(t), sum, 1e-9);
}

TEST(Cluster, SystemCoreMeanIsSumOfNodeMeans) {
  const ClusterPowerModel cluster = small_cluster();
  EXPECT_NEAR(cluster.system_core_mean().value(), 1605.0, 1e-9);
}

TEST(Cluster, StaticFractionBoundsTheDynamicRange) {
  // With static fraction 1 - eps the profile barely moves; with 0 the
  // power is fully proportional to intensity.
  auto hpl = std::make_shared<HplWorkload>(HplParams::gpu_incore(),
                                           hours(1.0));
  std::vector<double> means{100.0};
  const ClusterPowerModel rigid("rigid", means, hpl, 0.9);
  const ClusterPowerModel elastic("elastic", means, hpl, 0.0);
  const RunPhases p = hpl->phases();
  const double t_hi = p.core_begin().value() + 0.1 * p.core.value();
  const double t_lo = p.core_end().value() - 1.0;
  const double swing_rigid =
      rigid.node_power_w(0, t_hi) - rigid.node_power_w(0, t_lo);
  const double swing_elastic =
      elastic.node_power_w(0, t_hi) - elastic.node_power_w(0, t_lo);
  EXPECT_GT(swing_elastic, 5.0 * swing_rigid);
}

TEST(Cluster, TracesMatchFunctions) {
  const ClusterPowerModel cluster = small_cluster();
  const PowerTrace core = cluster.system_core_trace(Seconds{10.0});
  EXPECT_NEAR(core.mean_power().value(), 1605.0, 1.0);
  const PowerTrace full = cluster.system_full_trace(Seconds{10.0});
  EXPECT_GT(full.size(), core.size());
  // Setup power lower than core power.
  EXPECT_LT(full.watt_at(0), core.watt_at(0));
}

TEST(Cluster, ConstructionGuards) {
  auto w = std::make_shared<FirestarterWorkload>(hours(1.0));
  EXPECT_THROW(ClusterPowerModel("x", {}, w), contract_error);
  EXPECT_THROW(ClusterPowerModel("x", {0.0}, w), contract_error);
  EXPECT_THROW(ClusterPowerModel("x", {1.0}, nullptr), contract_error);
  EXPECT_THROW(ClusterPowerModel("x", {1.0}, w, 1.0), contract_error);
  const ClusterPowerModel c = small_cluster();
  EXPECT_THROW(c.node_power_w(99, 0.0), contract_error);
}

TEST(MakeSystemPowerModel, StructureAndScale) {
  const ClusterPowerModel cluster = small_cluster();
  const SystemPowerModel sys = make_system_power_model(
      cluster, /*nodes_per_rack=*/2, PsuEfficiencyCurve::platinum(),
      AuxiliaryConfig{});
  EXPECT_EQ(sys.node_count(), 4u);
  EXPECT_EQ(sys.rack_count(), 2u);
  const double t = cluster.phases().core_begin().value() + 10.0;
  // AC > DC for every node.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(sys.node_ac_w(i, t), sys.node_dc_w(i, t));
  }
  // Facility includes auxiliaries.
  EXPECT_GT(sys.facility_w(t), sys.compute_ac_w(t));
}

TEST(MakeSystemPowerModel, AuxiliarySizingFollowsConfig) {
  const ClusterPowerModel cluster = small_cluster();
  AuxiliaryConfig aux;
  aux.network_frac = 0.10;
  aux.storage_frac = 0.0;
  aux.infrastructure_frac = 0.0;
  aux.cooling_frac = 0.0;
  const SystemPowerModel sys = make_system_power_model(
      cluster, 2, PsuEfficiencyCurve::platinum(), aux);
  const double compute_mean = cluster.system_core_mean().value();
  EXPECT_NEAR(sys.auxiliary_ac_w(Subsystem::kNetwork, 0.0),
              compute_mean * 0.10, 1e-9);
  EXPECT_DOUBLE_EQ(sys.auxiliary_ac_w(Subsystem::kStorage, 0.0), 0.0);
}

TEST(MakeSystemPowerModel, NodesShareOneCompiledPsuTable) {
  const ClusterPowerModel cluster = small_cluster();
  const SystemPowerModel sys = make_system_power_model(
      cluster, 2, PsuEfficiencyCurve::titanium(), AuxiliaryConfig{});
  std::vector<const CompiledPsuCurve*> lanes;
  for (std::size_t i = 0; i < sys.node_count(); ++i) {
    const PsuModel& psu = sys.node_psu(i);
    EXPECT_TRUE(psu.compiled().shares_table_with(sys.node_psu(0).compiled()));
    // Sharing the table changes no bit of the node's own curve.
    const PsuModel own(psu.rated_output(), PsuEfficiencyCurve::titanium());
    for (const double frac : {0.0, 0.01, 0.1, 0.35, 0.5, 1.0, 1.2}) {
      const Watts dc{frac * psu.rated_output().value()};
      EXPECT_EQ(psu.ac_input(dc).value(), own.ac_input(dc).value());
    }
    lanes.push_back(&psu.compiled());
  }
  EXPECT_TRUE(FleetPsuBank::build(lanes).shared());
}

TEST(MakeSystemPowerModel, NodeDcMatchesClusterGroundTruth) {
  const ClusterPowerModel cluster = small_cluster();
  const SystemPowerModel sys = make_system_power_model(
      cluster, 2, PsuEfficiencyCurve::platinum(), AuxiliaryConfig{});
  const double t = cluster.phases().core_begin().value() + 500.0;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(sys.node_dc_w(i, t), cluster.node_power_w(i, t));
  }
}

}  // namespace
}  // namespace pv
