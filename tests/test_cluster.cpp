// Unit tests for ClusterPowerModel and its lowering into the electrical
// hierarchy.

#include "sim/cluster.hpp"

#include <gtest/gtest.h>

#include <cstring>
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
  EXPECT_NEAR(sys.auxiliary_ac_w(0.0), compute_mean * 0.10, 1e-9);
  aux.network_frac = 0.0;
  const SystemPowerModel bare = make_system_power_model(
      cluster, 2, PsuEfficiencyCurve::platinum(), aux);
  EXPECT_EQ(bare.auxiliary_ac_w(0.0), 0.0);
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
  // The PSU bank builds only on lanes that share one table.
  EXPECT_NO_THROW((void)FleetPsuBank::build(lanes));
}

TEST(MakeSystemPowerModel, NodeDcMatchesClusterGroundTruth) {
  // Every node's DC truth is its cluster's, bit for bit, through setup,
  // core and teardown — on an HPL cluster too, whose core phase moves.
  const ClusterPowerModel firestarter = small_cluster();
  const ClusterPowerModel hpl(
      "hpl", {400.0, 410.0, 390.0, 405.0, 395.0},
      std::make_shared<HplWorkload>(HplParams::gpu_incore(), hours(1.0)));
  for (const ClusterPowerModel* cluster : {&firestarter, &hpl}) {
    SCOPED_TRACE(cluster->name());
    const SystemPowerModel sys = make_system_power_model(
        *cluster, 2, PsuEfficiencyCurve::platinum(), AuxiliaryConfig{});
    ASSERT_EQ(&sys.cluster(), cluster);
    ASSERT_EQ(sys.node_count(), cluster->node_count());
    const double total = cluster->phases().total().value();
    constexpr int kSteps = 240;
    for (int k = 0; k <= kSteps; ++k) {
      const double t = total * k / kSteps;
      for (std::size_t i = 0; i < sys.node_count(); ++i) {
        const double want = cluster->node_power_w(i, t);
        const double got = sys.node_dc_w(i, t);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << "node " << i << ", t=" << t;
      }
    }
  }
}

}  // namespace
}  // namespace pv
