// Byzantine meter defense: the reconciliation statistics in isolation
// (CUSUM, Theil-Sen, hierarchy residuals, cohort verdicts) and the full
// campaign integration (quarantine through the dead-meter path, exact
// unit-error correction, thread-count invariance, zero-fault identity).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "core/campaign.hpp"
#include "core/reconcile.hpp"
#include "core/report.hpp"
#include "sim/fleet.hpp"
#include "stats/rng.hpp"
#include "workload/profiles.hpp"

namespace pv {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// --- statistical building blocks ------------------------------------------

TEST(Cusum, QuietSeriesStaysBelowThreshold) {
  Rng rng(1);
  std::vector<double> z;
  for (int i = 0; i < 64; ++i) z.push_back(rng.normal(0.0, 1.0));
  const CusumResult r = cusum_detect(z, 0.5, 8.0);
  EXPECT_FALSE(r.crossed);
}

TEST(Cusum, MeanShiftCrossesNearTheChangepoint) {
  std::vector<double> z(40, 0.0);
  for (std::size_t i = 20; i < z.size(); ++i) z[i] = 3.0;  // +3 sigma step
  const CusumResult r = cusum_detect(z, 0.5, 8.0);
  ASSERT_TRUE(r.crossed);
  EXPECT_GE(r.first_cross, 20u);
  EXPECT_LE(r.first_cross, 25u);
  EXPECT_GT(r.max_stat, 8.0);
}

TEST(Cusum, NegativeShiftCaughtByLowerArm) {
  std::vector<double> z(40, 0.0);
  for (std::size_t i = 10; i < z.size(); ++i) z[i] = -2.0;
  EXPECT_TRUE(cusum_detect(z, 0.5, 8.0).crossed);
}

TEST(Cusum, NanSamplesAreSkipped) {
  std::vector<double> z(30, 4.0);
  z[3] = kNaN;
  z[17] = kNaN;
  EXPECT_TRUE(cusum_detect(z, 0.5, 8.0).crossed);
}

TEST(TheilSen, ExactOnALine) {
  std::vector<double> xs;
  for (int i = 0; i < 20; ++i) xs.push_back(3.0 + 0.25 * i);
  EXPECT_NEAR(theil_sen_slope(xs), 0.25, 1e-12);
}

TEST(TheilSen, RobustToAnOutlierAndSkipsNans) {
  std::vector<double> xs;
  for (int i = 0; i < 21; ++i) xs.push_back(0.5 * i);
  xs[10] = 1e6;   // one wild sample
  xs[15] = kNaN;  // one missing window
  EXPECT_NEAR(theil_sen_slope(xs), 0.5, 0.05);
}

TEST(HierarchyResiduals, ExactWhenChildrenSumToParent) {
  const std::vector<double> parent = {1000.0, 1020.0, 980.0};
  const std::vector<std::vector<double>> children = {
      {490.0, 500.0, 480.0}, {490.0, 499.6, 480.4}};
  // children sum to 980/999.6/960.4; scale 1/0.98 corrects the 2% loss.
  const auto res = hierarchy_residuals(parent, children, 1.0 / 0.98);
  ASSERT_EQ(res.size(), 3u);
  EXPECT_NEAR(res[0], 0.0, 1e-9);
  EXPECT_NEAR(res[1], 1.0 / 0.98 * 999.6 / 1020.0 - 1.0, 1e-9);
}

TEST(HierarchyResiduals, NanParentOrChildYieldsNanWindow) {
  const std::vector<double> parent = {1000.0, kNaN, 1000.0};
  const std::vector<std::vector<double>> children = {
      {500.0, 500.0, kNaN}, {500.0, 500.0, 500.0}};
  const auto res = hierarchy_residuals(parent, children, 1.0);
  EXPECT_TRUE(std::isfinite(res[0]));
  EXPECT_TRUE(std::isnan(res[1]));
  EXPECT_TRUE(std::isnan(res[2]));
}

// --- cohort verdicts on synthetic series ----------------------------------

// An honest cohort: per-meter static level spread (fleet variability) plus
// tiny window noise.
std::vector<MeterSeries> honest_cohort(std::size_t meters,
                                       std::size_t windows,
                                       std::uint64_t seed = 3) {
  std::vector<MeterSeries> out;
  for (std::size_t i = 0; i < meters; ++i) {
    Rng rng(seed, i);
    const double level = 400.0 * (1.0 + 0.03 * rng.normal(0.0, 1.0));
    MeterSeries s;
    s.meter_id = i;
    for (std::size_t w = 0; w < windows; ++w) {
      s.means_w.push_back(level + rng.normal(0.0, 0.4));
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(Reconcile, HonestCohortStaysTrusted) {
  const auto meters = honest_cohort(24, 16);
  const auto rep = reconcile_meters(meters, {});
  EXPECT_EQ(rep.meters_checked, 24u);
  EXPECT_EQ(rep.meters_quarantined, 0u);
  EXPECT_EQ(rep.meters_corrected, 0u);
  for (const auto& d : rep.diagnoses) {
    EXPECT_EQ(d.verdict, MeterVerdict::kTrusted) << "meter " << d.meter_id;
  }
}

TEST(Reconcile, UnitErrorConvictedAndExactlyInvertible) {
  auto meters = honest_cohort(24, 16);
  for (double& x : meters[5].means_w) x *= 1000.0;  // W reported as mW
  for (double& x : meters[9].means_w) x /= 1000.0;  // W reported as kW
  const auto rep = reconcile_meters(meters, {});
  EXPECT_EQ(rep.meters_corrected, 2u);
  EXPECT_EQ(rep.meters_quarantined, 0u);
  EXPECT_EQ(rep.diagnoses[5].verdict, MeterVerdict::kUnitError);
  EXPECT_DOUBLE_EQ(rep.diagnoses[5].correction_scale, 1000.0);
  EXPECT_TRUE(rep.diagnoses[5].corrected);
  EXPECT_EQ(rep.diagnoses[9].verdict, MeterVerdict::kUnitError);
  EXPECT_DOUBLE_EQ(rep.diagnoses[9].correction_scale, 0.001);
}

TEST(Reconcile, SlowGainDriftConvictedAsDrifting) {
  auto meters = honest_cohort(24, 16);
  for (std::size_t w = 0; w < meters[7].means_w.size(); ++w) {
    // 3% creep across the run — far below the z backstop, pure CUSUM.
    meters[7].means_w[w] *= 1.0 + 0.002 * static_cast<double>(w);
  }
  const auto rep = reconcile_meters(meters, {});
  EXPECT_EQ(rep.diagnoses[7].verdict, MeterVerdict::kDrifting);
  EXPECT_TRUE(rep.diagnoses[7].quarantined);
  EXPECT_GT(rep.diagnoses[7].drift_per_window, 0.0);
  EXPECT_EQ(rep.meters_quarantined, 1u);
}

TEST(Reconcile, RecalibrationStepConvictedAsMiscalibrated) {
  auto meters = honest_cohort(24, 16);
  for (std::size_t w = 8; w < meters[3].means_w.size(); ++w) {
    meters[3].means_w[w] *= 1.04;  // one-shot 4% recalibration
  }
  const auto rep = reconcile_meters(meters, {});
  EXPECT_EQ(rep.diagnoses[3].verdict, MeterVerdict::kMiscalibrated);
  EXPECT_TRUE(rep.diagnoses[3].quarantined);
}

TEST(Reconcile, SubThresholdWobbleIsNotConvicted) {
  // Statistically detectable but immaterial: a 0.3% step is below the
  // practical-significance floor and must not cost a meter its coverage.
  auto meters = honest_cohort(24, 16);
  for (std::size_t w = 8; w < meters[6].means_w.size(); ++w) {
    meters[6].means_w[w] *= 1.003;
  }
  const auto rep = reconcile_meters(meters, {});
  EXPECT_EQ(rep.diagnoses[6].verdict, MeterVerdict::kTrusted);
  EXPECT_EQ(rep.meters_quarantined, 0u);
}

TEST(Reconcile, GrossStaticGainCaughtByZBackstop) {
  auto meters = honest_cohort(24, 16);
  for (double& x : meters[11].means_w) x *= 1.6;  // not a power of ten
  const auto rep = reconcile_meters(meters, {});
  EXPECT_EQ(rep.diagnoses[11].verdict, MeterVerdict::kMiscalibrated);
  EXPECT_NEAR(rep.diagnoses[11].gain_estimate, 1.6, 0.1);
}

TEST(Reconcile, ClockSkewDetectedOnStructuredSignal) {
  // A strongly time-varying workload: every honest meter tracks it, the
  // skewed meter reports it one window late.
  std::vector<MeterSeries> meters;
  const auto signal = [](std::size_t w) {
    return 400.0 + 80.0 * std::sin(0.7 * static_cast<double>(w));
  };
  for (std::size_t i = 0; i < 12; ++i) {
    Rng rng(17, i);
    MeterSeries s;
    s.meter_id = i;
    for (std::size_t w = 0; w < 24; ++w) {
      const std::size_t src = (i == 4 && w > 0) ? w - 1 : w;  // meter 4 lags
      s.means_w.push_back(signal(src) + rng.normal(0.0, 0.5));
    }
    meters.push_back(std::move(s));
  }
  const auto rep = reconcile_meters(meters, {});
  EXPECT_EQ(rep.diagnoses[4].verdict, MeterVerdict::kClockSkewed);
  EXPECT_EQ(rep.diagnoses[4].clock_lag, 1);
  EXPECT_TRUE(rep.diagnoses[4].quarantined);
}

TEST(Reconcile, TinyCohortComesBackTrusted) {
  const auto meters = honest_cohort(2, 16);
  const auto rep = reconcile_meters(meters, {});
  EXPECT_EQ(rep.meters_quarantined, 0u);
  for (const auto& d : rep.diagnoses) {
    EXPECT_EQ(d.verdict, MeterVerdict::kTrusted);
  }
}

TEST(Reconcile, HierarchyResidualShrinksAfterCorrection) {
  auto meters = honest_cohort(16, 16);
  for (double& x : meters[2].means_w) x *= 1000.0;
  HierarchyCheck check;
  check.label = "rack 0";
  check.parent_id = 9000;
  check.child_scale = 1.0;
  for (std::size_t w = 0; w < 16; ++w) {
    double sum = 0.0;
    for (std::size_t i = 0; i < meters.size(); ++i) {
      // The parent sees the *true* child powers (meter 2's lie is its own).
      sum += meters[i].means_w[w] / (i == 2 ? 1000.0 : 1.0);
    }
    check.parent_means_w.push_back(sum);
  }
  for (const auto& m : meters) {
    check.child_ids.push_back(m.meter_id);
    check.child_means_w.push_back(m.means_w);
  }
  const auto rep = reconcile_meters(meters, {check});
  ASSERT_EQ(rep.residuals.size(), 1u);
  EXPECT_GT(rep.residuals[0].worst_before, 10.0);   // x1000 child: huge
  EXPECT_LT(rep.residuals[0].worst_after, 0.01);    // exactly undone
  EXPECT_FALSE(rep.residuals[0].parent_distrusted);
}

TEST(Reconcile, HonestChildrenIndictTheLyingParent) {
  const auto meters = honest_cohort(16, 16);
  HierarchyCheck check;
  check.label = "rack 0";
  check.parent_id = 9000;
  check.child_scale = 1.0;
  for (std::size_t w = 0; w < 16; ++w) {
    double sum = 0.0;
    for (const auto& m : meters) sum += m.means_w[w];
    check.parent_means_w.push_back(sum * 1.15);  // parent reads 15% high
  }
  for (const auto& m : meters) {
    check.child_ids.push_back(m.meter_id);
    check.child_means_w.push_back(m.means_w);
  }
  const auto rep = reconcile_meters(meters, {check});
  ASSERT_EQ(rep.residuals.size(), 1u);
  EXPECT_TRUE(rep.residuals[0].parent_distrusted);
  EXPECT_EQ(rep.parents_distrusted, 1u);
  EXPECT_EQ(rep.meters_quarantined, 0u);  // the children stay trusted
}

TEST(Reconcile, PureFunctionOfItsInputs) {
  auto meters = honest_cohort(24, 16);
  for (double& x : meters[5].means_w) x *= 1000.0;
  const auto a = reconcile_meters(meters, {});
  const auto b = reconcile_meters(meters, {});
  ASSERT_EQ(a.diagnoses.size(), b.diagnoses.size());
  for (std::size_t i = 0; i < a.diagnoses.size(); ++i) {
    EXPECT_EQ(a.diagnoses[i].verdict, b.diagnoses[i].verdict);
    EXPECT_EQ(a.diagnoses[i].robust_z, b.diagnoses[i].robust_z);
    EXPECT_EQ(a.diagnoses[i].cusum_max, b.diagnoses[i].cusum_max);
  }
}

// --- campaign integration --------------------------------------------------

struct Rig {
  std::unique_ptr<ClusterPowerModel> cluster;
  std::unique_ptr<SystemPowerModel> electrical;
  MeasurementPlan plan;
};

Rig make_l3_rig(std::size_t n_nodes) {
  auto workload = std::make_shared<FirestarterWorkload>(
      minutes(30.0), 1.0, minutes(2.0), minutes(1.0));
  FleetVariability var = FleetVariability::typical_cpu().scaled_to(0.03);
  var.outlier_prob = 0.0;
  Rig rig;
  rig.cluster = std::make_unique<ClusterPowerModel>(
      "byz-rig", generate_node_powers(n_nodes, 400.0, var, 99), workload);
  rig.electrical = std::make_unique<SystemPowerModel>(make_system_power_model(
      *rig.cluster, 16, PsuEfficiencyCurve::platinum(), AuxiliaryConfig{}));
  PlanInputs in;
  in.total_nodes = n_nodes;
  in.approx_node_power = watts(400.0);
  in.run = rig.cluster->phases();
  Rng rng(1);
  rig.plan = plan_measurement(MethodologySpec::get(Level::kL3, Revision::kV2015),
                              in, rng);
  return rig;
}

CampaignConfig byz_config() {
  CampaignConfig c;
  c.seed = 5;
  c.meter_interval_override = Seconds{10.0};
  // Forced cycle by list position: 0 drift, 8 unit, 24 clock, 40 step.
  c.faults.byzantine_meters = {0, 8, 24, 40};
  c.reconcile.enabled = true;
  return c;
}

TEST(CampaignReconcile, ConvictsTheForcedLiarsAndRestoresTheSubmission) {
  const Rig rig = make_l3_rig(48);
  const CampaignConfig cfg = byz_config();

  CampaignConfig undefended = cfg;
  undefended.reconcile.enabled = false;
  const auto before =
      run_campaign(*rig.cluster, *rig.electrical, rig.plan, undefended);
  const auto after =
      run_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg);

  ASSERT_TRUE(after.data_quality.reconcile_ran);
  const ReconcileReport& ir = after.data_quality.integrity;
  EXPECT_EQ(ir.meters_checked, 48u);

  const auto find = [&](std::size_t id) -> const MeterDiagnosis& {
    for (const auto& d : ir.diagnoses) {
      if (d.meter_id == id) return d;
    }
    ADD_FAILURE() << "no diagnosis for meter " << id;
    static MeterDiagnosis dummy;
    return dummy;
  };
  // Meter 0 drifts, meter 40 takes a recalibration step: quarantined.
  EXPECT_TRUE(find(0).quarantined);
  EXPECT_NE(find(0).verdict, MeterVerdict::kTrusted);
  EXPECT_TRUE(find(40).quarantined);
  // Meter 8 reports milliwatts: corrected exactly.
  EXPECT_EQ(find(8).verdict, MeterVerdict::kUnitError);
  EXPECT_TRUE(find(8).corrected);
  EXPECT_DOUBLE_EQ(find(8).correction_scale, 1000.0);
  // Meter 24's clock skew is invisible — and harmless — on the constant
  // FIRESTARTER profile: it must NOT be convicted (false-positive safety).
  EXPECT_EQ(find(24).verdict, MeterVerdict::kTrusted);

  // Quarantine flows through the dead-meter degradation path.
  const auto& lost = after.data_quality.lost_meter_ids;
  EXPECT_NE(std::find(lost.begin(), lost.end(), 0u), lost.end());
  EXPECT_NE(std::find(lost.begin(), lost.end(), 40u), lost.end());
  EXPECT_TRUE(after.data_quality.ci_widened);

  // The defense must beat the undefended pipeline by a wide margin.
  EXPECT_GT(before.relative_error, 0.10);
  EXPECT_LT(after.relative_error, 0.03);
}

TEST(CampaignReconcile, DiagnosesAreSortedByMeterId) {
  const Rig rig = make_l3_rig(48);
  const auto result =
      run_campaign(*rig.cluster, *rig.electrical, rig.plan, byz_config());
  const auto& ds = result.data_quality.integrity.diagnoses;
  for (std::size_t i = 1; i < ds.size(); ++i) {
    EXPECT_LT(ds[i - 1].meter_id, ds[i].meter_id);
  }
}

TEST(CampaignReconcile, VerdictsAreThreadCountInvariant) {
  const Rig rig = make_l3_rig(48);
  CampaignConfig serial = byz_config();
  serial.threads = 1;
  CampaignConfig fanned = byz_config();
  fanned.threads = 4;
  const auto a = run_campaign(*rig.cluster, *rig.electrical, rig.plan, serial);
  const auto b = run_campaign(*rig.cluster, *rig.electrical, rig.plan, fanned);
  EXPECT_EQ(a.submitted_power.value(), b.submitted_power.value());
  EXPECT_EQ(a.submitted_energy.value(), b.submitted_energy.value());
  const auto& da = a.data_quality.integrity.diagnoses;
  const auto& db = b.data_quality.integrity.diagnoses;
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].meter_id, db[i].meter_id);
    EXPECT_EQ(da[i].verdict, db[i].verdict);
    EXPECT_EQ(da[i].robust_z, db[i].robust_z);
    EXPECT_EQ(da[i].cusum_max, db[i].cusum_max);
  }
}

TEST(CampaignReconcile, EnablingReconcileOnACleanCampaignChangesNothing) {
  const Rig rig = make_l3_rig(48);
  CampaignConfig plain;
  plain.seed = 5;
  plain.meter_interval_override = Seconds{10.0};
  CampaignConfig watched = plain;
  watched.reconcile.enabled = true;
  const auto a = run_campaign(*rig.cluster, *rig.electrical, rig.plan, plain);
  const auto b = run_campaign(*rig.cluster, *rig.electrical, rig.plan, watched);
  // Reconciliation reads the already-produced traces; a clean campaign's
  // submission must be bit-identical with the watchdog on.
  EXPECT_EQ(a.submitted_power.value(), b.submitted_power.value());
  EXPECT_EQ(a.submitted_energy.value(), b.submitted_energy.value());
  EXPECT_EQ(b.data_quality.integrity.meters_quarantined, 0u);
  EXPECT_EQ(b.data_quality.integrity.meters_corrected, 0u);
  EXPECT_TRUE(b.data_quality.reconcile_ran);
  EXPECT_FALSE(a.data_quality.reconcile_ran);
}

TEST(CampaignReconcile, IntegrityBlockRendersVerdictsSorted) {
  const Rig rig = make_l3_rig(48);
  const auto result =
      run_campaign(*rig.cluster, *rig.electrical, rig.plan, byz_config());
  const std::string report = integrity_quality_report(result.data_quality);
  EXPECT_NE(report.find("integrity (byzantine defense)"), std::string::npos);
  EXPECT_NE(report.find("unit-error"), std::string::npos);
  EXPECT_NE(report.find("corrected"), std::string::npos);
  // Meter 0 must be listed before meter 40.
  EXPECT_LT(report.find("meter 0:"), report.find("meter 40:"));
}

}  // namespace
}  // namespace pv
