// The one shape-keyed truth.
//
// On a model lowered from its cluster (make_system_power_model) every
// compute-side truth — a rack PDU, the compute subsystem — depends on t
// only through the cluster's shape factor, so memoize_on_shape may read
// it once per shape level.  The rack and facility taps, the check meters
// and Assess read their truths that way.  These tests hold the wrapper to
// the direct SystemPowerModel calls bit for bit on rigs whose ramps and
// tails give many shape levels, hold Assess's memoized scope truth to
// true_scope_power, and pin the rack-PDU and facility-feed campaign
// results to the bits they had when those taps still read every truth
// directly.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "meter/faults.hpp"
#include "sim/fleet.hpp"
#include "sim/streaming.hpp"
#include "workload/hpl.hpp"
#include "workload/profiles.hpp"

namespace pv {
namespace {

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

struct Rig {
  std::unique_ptr<ClusterPowerModel> cluster;
  std::unique_ptr<SystemPowerModel> electrical;
  PlanInputs inputs;
};

// 40 nodes in racks of 16 (the last one partial), with auxiliaries.
Rig make_rig(std::shared_ptr<const Workload> workload) {
  FleetVariability var = FleetVariability::typical_cpu().scaled_to(0.03);
  var.outlier_prob = 0.0;
  Rig rig;
  rig.cluster = std::make_unique<ClusterPowerModel>(
      "memo", generate_node_powers(40, 400.0, var, 17), std::move(workload));
  rig.electrical = std::make_unique<SystemPowerModel>(make_system_power_model(
      *rig.cluster, 16, PsuEfficiencyCurve::platinum(), AuxiliaryConfig{}));
  rig.inputs.total_nodes = 40;
  rig.inputs.approx_node_power = Watts{400.0};
  rig.inputs.run = rig.cluster->phases();
  return rig;
}

struct NamedRig {
  std::string name;
  Rig rig;
  std::size_t min_levels;  ///< distinct shape values over the whole run
};

std::vector<NamedRig> workload_rigs() {
  std::vector<NamedRig> rigs;
  // FIRESTARTER: setup, core and teardown levels.  HPL: a level per
  // abscissa wherever efficiency moves.
  rigs.push_back(
      {"FIRESTARTER",
       make_rig(std::make_shared<FirestarterWorkload>(minutes(20.0))), 3});
  rigs.push_back({"HPL CPU",
                  make_rig(std::make_shared<HplWorkload>(
                      HplParams::cpu_traditional(), minutes(20.0),
                      Seconds{60.0}, Seconds{30.0})),
                  4000});
  rigs.push_back({"HPL GPU in-core",
                  make_rig(std::make_shared<HplWorkload>(
                      HplParams::gpu_incore(), minutes(20.0), Seconds{60.0},
                      Seconds{30.0})),
                  4000});
  return rigs;
}

TEST(ShapeMemo, WrappedTruthsEqualTheDirectCallsBitForBit) {
  for (const NamedRig& named : workload_rigs()) {
    SCOPED_TRACE(named.name);
    const ClusterPowerModel& cluster = *named.rig.cluster;
    const SystemPowerModel& electrical = *named.rig.electrical;
    const PowerFunction compute = memoize_on_shape(
        cluster, [&](double t) { return electrical.compute_ac_w(t); });
    std::vector<PowerFunction> racks;
    for (std::size_t r = 0; r < electrical.rack_count(); ++r) {
      racks.push_back(memoize_on_shape(
          cluster, [&, r](double t) { return electrical.rack_pdu_w(r, t); }));
    }
    // Every GL4 abscissa of a 1 s grid over the whole run, in order, so
    // steady phases revisit their level and ramps add new ones.
    std::set<std::uint64_t> levels;
    const double total = cluster.phases().total().value();
    for (double a = 0.0; a + 1.0 <= total; a += 1.0) {
      for (const double x : gl4::kXs) {
        const double t = a + x * 1.0;
        levels.insert(bits_of(cluster.shape_factor(t)));
        ASSERT_EQ(bits_of(compute(t)), bits_of(electrical.compute_ac_w(t)))
            << "compute at t=" << t;
        ASSERT_EQ(bits_of(compute(t) + electrical.auxiliary_ac_w(t)),
                  bits_of(electrical.facility_w(t)))
            << "facility at t=" << t;
        for (std::size_t r = 0; r < racks.size(); ++r) {
          ASSERT_EQ(bits_of(racks[r](t)), bits_of(electrical.rack_pdu_w(r, t)))
              << "rack " << r << " at t=" << t;
        }
      }
    }
    // The memo sees as many keys as the rig has shape levels.
    EXPECT_GE(levels.size(), named.min_levels);
  }
}

TEST(ShapeMemo, AssessScopeTruthEqualsTrueScopePowerBitForBit) {
  CampaignConfig cfg;
  cfg.meter_accuracy = MeterAccuracy::perfect();
  cfg.meter_interval_override = Seconds{10.0};
  for (const NamedRig& named : workload_rigs()) {
    const Rig& rig = named.rig;
    // L1 scopes the compute subsystem only, L3 adds the auxiliaries.
    for (const Level level : {Level::kL1, Level::kL3}) {
      Rng rng(5);
      MeasurementPlan plan = plan_measurement(
          MethodologySpec::get(level, Revision::kV2015), rig.inputs, rng);
      const Watts direct =
          true_scope_power(*rig.cluster, *rig.electrical, plan.spec);
      for (const MeasurementPoint point :
           {MeasurementPoint::kNodeAc, MeasurementPoint::kRackPdu,
            MeasurementPoint::kFacilityFeed}) {
        SCOPED_TRACE(named.name + " L" +
                     std::to_string(static_cast<int>(level)) + " " +
                     to_string(point));
        plan.point = point;
        const CampaignResult result =
            run_campaign(*rig.cluster, *rig.electrical, plan, cfg);
        EXPECT_EQ(bits_of(result.true_power.value()), bits_of(direct.value()));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rack-PDU and facility-feed results, pinned.  The expected bit patterns
// were recorded from taps that evaluated every truth directly; the memo
// must not move one of them.

struct Pinned {
  std::uint64_t submitted_power;
  std::uint64_t submitted_energy;
  std::uint64_t true_power;
  std::uint64_t relative_error;
};

void expect_pinned(const CampaignResult& r, const Pinned& want) {
  EXPECT_EQ(bits_of(r.submitted_power.value()), want.submitted_power);
  EXPECT_EQ(bits_of(r.submitted_energy.value()), want.submitted_energy);
  EXPECT_EQ(bits_of(r.true_power.value()), want.true_power);
  EXPECT_EQ(bits_of(r.relative_error), want.relative_error);
}

struct TapCase {
  Scenario scenario;
  MeasurementPlan plan;
};

// An 80-node scenario (five racks of 16) planned at `level`, metered at
// `point`.
TapCase tap_case(Level level, MeasurementPoint point) {
  ScenarioSpec spec;
  spec.name = "tap-pins";
  spec.nodes = 80;
  spec.cv = 0.03;
  spec.fleet_seed = 11;
  TapCase c{build_scenario(spec), {}};
  c.plan = c.scenario.plan(MethodologySpec::get(level, Revision::kV2015), 21);
  c.plan.point = point;
  return c;
}

CampaignConfig pin_config() {
  CampaignConfig cfg;
  cfg.seed = 31;
  cfg.meter_interval_override = Seconds{10.0};
  return cfg;
}

TEST(TapPins, RackPduResultsBitForBit) {
  const TapCase c = tap_case(Level::kL1, MeasurementPoint::kRackPdu);
  const Scenario& s = c.scenario;
  expect_pinned(run_campaign(*s.cluster, *s.electrical, c.plan, pin_config()),
                {0x40e1254775a7171eULL, 0x418e23879ccfb6a2ULL,
                 0x40e1333da459a38cULL, 0x3f69f9948151a834ULL});
  // Mild faults plus the dead PDU meter of the plan's first rack.
  CampaignConfig faulted = pin_config();
  faulted.faults.spec = FaultSpec::mild();
  faulted.faults.dead_meters = {c.plan.node_indices.front() /
                                s.electrical->nodes_per_rack()};
  const CampaignResult r =
      run_campaign(*s.cluster, *s.electrical, c.plan, faulted);
  EXPECT_EQ(r.data_quality.meters_lost, 1u);
  EXPECT_GT(r.data_quality.spikes_filtered, 0u);
  expect_pinned(r, {0x40e121bddb37b36cULL, 0x41881772fc46544fULL,
                    0x40e1333da459a38cULL, 0x3f70473431c8dad7ULL});
}

TEST(TapPins, FacilityFeedResultsBitForBit) {
  const TapCase c = tap_case(Level::kL3, MeasurementPoint::kFacilityFeed);
  const Scenario& s = c.scenario;
  expect_pinned(run_campaign(*s.cluster, *s.electrical, c.plan, pin_config()),
                {0x40e3d93192846ccdULL, 0x419171e491c663a0ULL,
                 0x40e38b5bc5182a34ULL, 0x3f8fdc215797c5ebULL});
  // Mild faults only: the feed's one meter dead ends the campaign
  // (CampaignFaults.FacilityFeedRepairsButCannotLoseItsOnlyMeter).
  CampaignConfig faulted = pin_config();
  faulted.faults.spec = FaultSpec::mild();
  const CampaignResult r =
      run_campaign(*s.cluster, *s.electrical, c.plan, faulted);
  EXPECT_GT(r.data_quality.spikes_filtered, 0u);
  expect_pinned(r, {0x40e3d8e6255c3c88ULL, 0x419171a246d61134ULL,
                    0x40e38b5bc5182a34ULL, 0x3f8fbd419ecf4583ULL});
}

}  // namespace
}  // namespace pv
