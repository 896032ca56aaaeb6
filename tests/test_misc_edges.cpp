// Edge-case tests across modules that the focused suites exercise only on
// their happy paths.

#include <gtest/gtest.h>

#include <memory>

#include "core/campaign.hpp"
#include "core/spec.hpp"
#include "core/submission.hpp"
#include "sim/fleet.hpp"
#include "util/expects.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "workload/calibration.hpp"
#include "workload/profiles.hpp"

namespace pv {
namespace {

TEST(TableEdges, ExplicitAlignmentOverride) {
  TextTable t({"a", "b"}, {Align::Right, Align::Left});
  t.add_row({"1", "x"});
  const std::string out = t.render();
  // Right-aligned "1" under "a": leading space before the cell text.
  EXPECT_NE(out.find(" 1 "), std::string::npos);
  EXPECT_THROW(TextTable({"a"}, {Align::Left, Align::Right}), contract_error);
  EXPECT_THROW(TextTable({}), contract_error);
}

TEST(UnitEdges, NegativeAndInfValuesFormat) {
  EXPECT_EQ(to_string(watts(-398700.0)), "-398.7 kW");
  const std::string inf = to_string(Watts{1.0 / 0.0});
  EXPECT_NE(inf.find("inf"), std::string::npos);
}

TEST(TraceEdges, FromFunctionGuards) {
  EXPECT_THROW(PowerTrace::from_function(Seconds{0.0}, Seconds{1.0}, 0,
                                         [](double) { return 1.0; }),
               contract_error);
  EXPECT_THROW(
      PowerTrace::from_function(Seconds{0.0}, Seconds{1.0}, 5, nullptr),
      contract_error);
}

TEST(MeterEdges, EnergyConsistentWithTraceUnderGainError) {
  Rng cal(1);
  const NoiseStream noise(2);
  const MeterModel meter(MeterAccuracy{0.02, 0.0, 0.0},
                         MeterMode::kIntegrated, Seconds{1.0}, cal);
  const auto f = [](double t) { return 100.0 + t; };
  const auto trace = meter.measure(f, Seconds{0.0}, Seconds{50.0}, noise, 0);
  // Gain error scales energy linearly.
  EXPECT_NEAR(trace.energy().value() / (100.0 * 50.0 + 0.5 * 50.0 * 50.0),
              meter.gain(), 1e-9);
}

TEST(ClusterEdges, PsuHeadroomGuardAndNodePsuAccess) {
  auto workload = std::make_shared<FirestarterWorkload>(minutes(10.0));
  std::vector<double> means{300.0, 310.0};
  const ClusterPowerModel cluster("edge", means, workload);
  EXPECT_THROW(make_system_power_model(cluster, 2,
                                       PsuEfficiencyCurve::gold(),
                                       AuxiliaryConfig{}, 0.5),
               contract_error);
  const SystemPowerModel sys = make_system_power_model(
      cluster, 2, PsuEfficiencyCurve::gold(), AuxiliaryConfig{});
  EXPECT_GT(sys.node_psu(0).rated_output().value(), 300.0);
  EXPECT_THROW(sys.node_psu(5), contract_error);
}

TEST(WorkloadEdges, IntensityOutsideRunRejected) {
  const FirestarterWorkload w(minutes(10.0), 1.0, Seconds{10.0},
                              Seconds{10.0});
  EXPECT_NO_THROW(w.intensity(0.0));
  EXPECT_NO_THROW(w.intensity(w.phases().total().value()));
  // HPL enforces its domain explicitly.
  const HplWorkload hpl(HplParams::cpu_traditional(), minutes(10.0));
  EXPECT_THROW(hpl.intensity(-5.0), contract_error);
  EXPECT_THROW(hpl.intensity(hpl.phases().total().value() + 10.0),
               contract_error);
}

TEST(CalibrationEdges, RunBoundaryPowersAreContinuousEnough) {
  const CalibratedSystemProfile prof(
      "x", HplParams::gpu_incore(), {minutes(4.0), hours(1.0), minutes(3.0)},
      SegmentTargets{kilowatts(60.0), kilowatts(64.0), kilowatts(50.0)});
  const RunPhases p = prof.phases();
  // Setup/teardown sit below the core-phase levels near the boundaries.
  const double setup = prof.system_power_w(p.core_begin().value() - 1.0);
  const double core_start = prof.system_power_w(p.core_begin().value() + 1.0);
  EXPECT_LT(setup, core_start);
  const double core_end = prof.system_power_w(p.core_end().value() - 1.0);
  const double teardown = prof.system_power_w(p.core_end().value() + 1.0);
  EXPECT_LT(teardown, core_end);
  EXPECT_THROW(prof.system_power_w(p.total().value() + 100.0),
               contract_error);
}

TEST(RankedListEdges, TiesKeepInsertionOrder) {
  RankedList list("ties");
  Submission a;
  a.system_name = "first-in";
  a.rmax = teraflops(1.0);
  a.power = kilowatts(100.0);
  Submission b = a;
  b.system_name = "second-in";
  list.add(a);
  list.add(b);
  const auto ranked = list.ranked_by_efficiency();
  EXPECT_EQ(ranked[0].system_name, "first-in");  // stable sort
  EXPECT_EQ(list.efficiency_rank("second-in"), 2u);
}

TEST(SpecEdges, DescribeMentions2015Floors) {
  const std::string d =
      MethodologySpec::get(Level::kL1, Revision::kV2015).describe();
  EXPECT_NE(d.find("16 nodes"), std::string::npos);
  EXPECT_NE(d.find("10%"), std::string::npos);
  EXPECT_NE(d.find("2015"), std::string::npos);
}

TEST(RuleEdges, SingleNodeSystem) {
  // Degenerate machines: the rules clamp sanely.
  const auto spec = MethodologySpec::get(Level::kL1, Revision::kV2015);
  EXPECT_EQ(spec.required_node_count(1, Watts{500.0}), 1u);
}

TEST(WorkloadEdges, DefaultCoreMeanIntegrationMatchesOverride) {
  // FirestarterWorkload overrides core_mean_intensity with the exact
  // constant; the base-class numerical integration must agree.
  const FirestarterWorkload w(hours(1.0), 0.97);
  const RunPhases p = w.phases();
  const double integrated = average_over(
      [&](double t) { return w.intensity(t); }, p.core_begin().value(),
      p.core_end().value());
  EXPECT_NEAR(integrated, w.core_mean_intensity(), 1e-12);
}

TEST(CampaignEdges, MismatchedElectricalModelRejected) {
  auto workload = std::make_shared<FirestarterWorkload>(minutes(10.0));
  std::vector<double> means{300.0, 310.0, 290.0, 305.0};
  const ClusterPowerModel cluster("edge4", means, workload);
  std::vector<double> fewer{300.0, 310.0};
  const ClusterPowerModel small("edge2", fewer, workload);
  const SystemPowerModel sys = make_system_power_model(
      small, 2, PsuEfficiencyCurve::gold(), AuxiliaryConfig{});
  PlanInputs in;
  in.total_nodes = 4;
  in.approx_node_power = Watts{300.0};
  in.run = cluster.phases();
  Rng rng(1);
  const auto plan = plan_measurement(
      MethodologySpec::get(Level::kL1, Revision::kV2015), in, rng);
  EXPECT_THROW(run_campaign(cluster, sys, plan, CampaignConfig{}),
               contract_error);
}

}  // namespace
}  // namespace pv
