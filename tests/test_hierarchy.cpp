// Unit tests for the node -> rack PDU -> facility hierarchy of a cluster's
// electrical model, and the tap-point names.

#include "meter/hierarchy.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/cluster.hpp"
#include "util/expects.hpp"
#include "workload/profiles.hpp"

namespace pv {
namespace {

ClusterPowerModel cluster_of(std::vector<double> means) {
  auto workload = std::make_shared<FirestarterWorkload>(
      hours(1.0), 1.0, minutes(2.0), minutes(1.0));
  return ClusterPowerModel("testsys", std::move(means), std::move(workload));
}

constexpr AuxiliaryConfig kNoAuxiliaries{0.0, 0.0, 0.0, 0.0};

SystemPowerModel lowered(const ClusterPowerModel& cluster,
                         std::size_t nodes_per_rack,
                         const AuxiliaryConfig& aux = kNoAuxiliaries) {
  return make_system_power_model(cluster, nodes_per_rack,
                                 PsuEfficiencyCurve::platinum(), aux);
}

// Four nodes, two per rack.
ClusterPowerModel four_nodes() {
  return cluster_of({100.0, 110.0, 120.0, 130.0});
}

// Instants in setup, core and teardown.
std::vector<double> run_grid(const ClusterPowerModel& cluster) {
  const RunPhases p = cluster.phases();
  return {0.0,
          0.5 * p.core_begin().value(),
          p.core_begin().value() + 10.0,
          0.5 * (p.core_begin().value() + p.core_end().value()),
          p.core_end().value() + 5.0,
          p.total().value()};
}

TEST(SystemPowerModel, CountsAndStructure) {
  const ClusterPowerModel cluster = four_nodes();
  const SystemPowerModel m = lowered(cluster, /*nodes_per_rack=*/2);
  EXPECT_EQ(&m.cluster(), &cluster);
  EXPECT_EQ(m.node_count(), 4u);
  EXPECT_EQ(m.rack_count(), 2u);
  EXPECT_EQ(m.nodes_per_rack(), 2u);
  EXPECT_EQ(m.pdu_loss_fraction(), kPduLossFraction);
  EXPECT_EQ(kPduLossFraction, 0.02);
}

TEST(SystemPowerModel, DcAndAcNodePower) {
  const ClusterPowerModel cluster = four_nodes();
  const SystemPowerModel m = lowered(cluster, 2);
  const double t = cluster.phases().core_begin().value() + 100.0;
  EXPECT_EQ(m.node_dc_w(0, t), cluster.node_power_w(0, t));
  // AC exceeds DC by the PSU loss.
  EXPECT_GT(m.node_ac_w(0, t), m.node_dc_w(0, t));
  EXPECT_LT(m.node_ac_w(0, t), m.node_dc_w(0, t) / 0.80);
  EXPECT_THROW(m.node_dc_w(4, t), contract_error);
  EXPECT_THROW(m.node_ac_w(4, t), contract_error);
}

TEST(SystemPowerModel, RackPduIncludesDistributionLoss) {
  const ClusterPowerModel cluster = four_nodes();
  const SystemPowerModel m = lowered(cluster, 2);
  for (const double t : run_grid(cluster)) {
    const double nodes_ac = m.node_ac_w(0, t) + m.node_ac_w(1, t);
    EXPECT_DOUBLE_EQ(m.rack_pdu_w(0, t), nodes_ac / 0.98) << "t=" << t;
  }
  EXPECT_THROW(m.rack_pdu_w(2, 0.0), contract_error);
}

TEST(SystemPowerModel, ComputeSumsRacks) {
  const ClusterPowerModel cluster = four_nodes();
  const SystemPowerModel m = lowered(cluster, 2);
  for (const double t : run_grid(cluster)) {
    EXPECT_EQ(m.compute_ac_w(t), m.rack_pdu_w(0, t) + m.rack_pdu_w(1, t));
  }
}

TEST(SystemPowerModel, AuxiliariesByKind) {
  // Each AuxiliaryConfig kind is one constant draw of its fraction of the
  // compute core-phase mean; the facility feed adds them all.
  const ClusterPowerModel cluster = four_nodes();
  const double compute_mean = cluster.system_core_mean().value();
  const AuxiliaryConfig kinds[] = {{0.06, 0.0, 0.0, 0.0},
                                   {0.0, 0.03, 0.0, 0.0},
                                   {0.0, 0.0, 0.02, 0.0},
                                   {0.0, 0.0, 0.0, 0.04}};
  for (const AuxiliaryConfig& aux : kinds) {
    const double frac = aux.network_frac + aux.storage_frac +
                        aux.infrastructure_frac + aux.cooling_frac;
    const SystemPowerModel m = lowered(cluster, 2, aux);
    for (const double t : run_grid(cluster)) {
      EXPECT_EQ(m.auxiliary_ac_w(t), compute_mean * frac);
    }
  }
  const SystemPowerModel all = lowered(cluster, 2, AuxiliaryConfig{});
  const double t = cluster.phases().core_begin().value() + 1.0;
  EXPECT_NEAR(all.auxiliary_ac_w(t), compute_mean * 0.15, 1e-9);
  EXPECT_EQ(all.facility_w(t), all.compute_ac_w(t) + all.auxiliary_ac_w(t));
}

TEST(SystemPowerModel, FunctionViewsMatchDirectCalls) {
  const ClusterPowerModel cluster = four_nodes();
  const SystemPowerModel m = lowered(cluster, 2);
  const auto nf = m.node_ac_function(2);
  for (const double t : run_grid(cluster)) {
    EXPECT_EQ(nf(t), m.node_ac_w(2, t));
  }
  EXPECT_THROW((void)m.node_ac_function(4), contract_error);
}

TEST(SystemPowerModel, PartialLastRack) {
  const ClusterPowerModel cluster = cluster_of({100.0, 100.0, 100.0});
  const SystemPowerModel m = lowered(cluster, /*nodes_per_rack=*/2);
  EXPECT_EQ(m.rack_count(), 2u);
  // Last rack holds a single node.
  const double t = cluster.phases().core_begin().value() + 10.0;
  EXPECT_LT(m.rack_pdu_w(1, t), m.rack_pdu_w(0, t));
  EXPECT_DOUBLE_EQ(m.rack_pdu_w(1, t), m.node_ac_w(2, t) / 0.98);
  EXPECT_THROW(m.rack_pdu_w(2, t), contract_error);
}

TEST(SystemPowerModel, SingleNodeSystemIsItsOwnRack) {
  const ClusterPowerModel cluster = cluster_of({250.0});
  const SystemPowerModel m = lowered(cluster, /*nodes_per_rack=*/8);
  EXPECT_EQ(m.rack_count(), 1u);
  const double t = cluster.phases().core_begin().value() + 10.0;
  EXPECT_DOUBLE_EQ(m.rack_pdu_w(0, t), m.node_ac_w(0, t) / 0.98);
  EXPECT_EQ(m.compute_ac_w(t), m.rack_pdu_w(0, t));
  EXPECT_EQ(m.facility_w(t), m.compute_ac_w(t));
}

TEST(SystemPowerModel, HierarchyRoundTripsFromNodesToFacility) {
  // The invariant hierarchical cross-validation rests on: at every level,
  // the parent tap equals the scaled sum of its children, exactly.
  const ClusterPowerModel cluster = four_nodes();
  const SystemPowerModel m = lowered(cluster, 2, AuxiliaryConfig{});
  const double scale = 1.0 / (1.0 - m.pdu_loss_fraction());
  for (const double t : run_grid(cluster)) {
    double facility_rebuilt = m.auxiliary_ac_w(t);
    for (std::size_t rack = 0; rack < m.rack_count(); ++rack) {
      double rack_rebuilt = 0.0;
      for (std::size_t i = 0; i < m.nodes_per_rack(); ++i) {
        rack_rebuilt += m.node_ac_w(rack * m.nodes_per_rack() + i, t);
      }
      EXPECT_NEAR(m.rack_pdu_w(rack, t), rack_rebuilt * scale, 1e-9);
      facility_rebuilt += m.rack_pdu_w(rack, t);
    }
    EXPECT_NEAR(m.facility_w(t), facility_rebuilt, 1e-9);
  }
}

TEST(EnumsToString, HumanReadable) {
  EXPECT_STREQ(to_string(MeasurementPoint::kNodeDc), "node-DC");
  EXPECT_STREQ(to_string(MeasurementPoint::kNodeAc), "node-AC");
  EXPECT_STREQ(to_string(MeasurementPoint::kRackPdu), "rack-PDU");
  EXPECT_STREQ(to_string(MeasurementPoint::kFacilityFeed), "facility-feed");
}

}  // namespace
}  // namespace pv
