// A closed-form oracle for per-sample meter noise.
//
// A meter with no calibration error and relative noise sd sigma reads
// truth_k * (1 + sigma z_k).  On a window where every node's truth is
// constant, a node's mean reading over S samples therefore differs from
// the perfect meter's mean m by (sigma m / S) * sum z_k, so
//
//   d = (noisy mean - perfect mean) * sqrt(S) / (sigma m)
//
// is exactly N(0, 1) per node, and independent across nodes.  The oracle
// runs one plan twice — noisy meters, perfect meters — and checks the
// d's mean and variance across >= 1000 nodes against those of a standard
// normal.  A draw index repeated across a node's samples inflates the
// variance (a chunk-local index repeats across the chunks set below); a
// draw shared across nodes collapses it; a mis-scaled ziggurat moves it.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/campaign.hpp"
#include "core/plan.hpp"
#include "core/scenario.hpp"
#include "sim/streaming.hpp"
#include "stats/normality.hpp"

namespace pv {
namespace {

// The q-quantile of chi-square with k degrees of freedom, by bisection on
// the upper tail.
double chi_square_quantile(double q, double k) {
  double lo = 0.0;
  double hi = k + 20.0 * std::sqrt(2.0 * k);
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (1.0 - chi_square_sf(mid, k) < q) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

struct OracleRig {
  Scenario scenario;
  MeasurementPlan plan;
  std::size_t samples = 0;  // per node
};

// Every node metered at its AC tap over the core phase of a Firestarter
// run, where the workload (and so each node's truth) is constant.
OracleRig make_oracle_rig(std::size_t nodes) {
  ScenarioSpec spec;
  spec.name = "noise-oracle";
  spec.nodes = nodes;
  spec.cv = 0.03;
  spec.fleet_seed = 11;
  spec.run_minutes = 20.0;
  OracleRig rig{build_scenario(spec), {}, 0};
  rig.plan = rig.scenario.plan(MethodologySpec::get(Level::kL3,
                                                    Revision::kV2015),
                               11);
  rig.plan.node_indices.clear();
  for (std::size_t i = 0; i < nodes; ++i) rig.plan.node_indices.push_back(i);
  rig.plan.window = rig.scenario.cluster->phases().core_window();
  rig.plan.timing = TimingStrategy::kContinuous;
  rig.plan.meter_mode = MeterMode::kSampled;
  rig.plan.meter_interval = Seconds{10.0};
  rig.plan.point = MeasurementPoint::kNodeAc;
  rig.samples = window_sample_count(rig.plan.window, rig.plan.meter_interval);
  return rig;
}

std::vector<double> node_means(const OracleRig& rig, MeterAccuracy accuracy) {
  CampaignConfig config;
  config.seed = 23;
  config.meter_accuracy = accuracy;
  // Chunks far shorter than the window: each node's samples span many
  // chunks, so chunk-local draw indices would repeat.
  config.live.chunk_samples = 7;
  const CampaignResult result =
      run_campaign(*rig.scenario.cluster, *rig.scenario.electrical, rig.plan,
                   config);
  return result.node_mean_powers_w;
}

TEST(NoiseOracle, ChiSquareQuantileInvertsTheTail) {
  EXPECT_NEAR(chi_square_quantile(0.95, 1.0), 3.841458820694124, 1e-9);
  EXPECT_NEAR(chi_square_quantile(0.5, 2.0), 2.0 * std::log(2.0), 1e-9);
}

TEST(NoiseOracle, NodeMeanNoiseIsStandardNormalAfterScaling) {
  constexpr std::size_t kNodes = 16000;
  constexpr double kSigma = 0.01;
  const OracleRig rig = make_oracle_rig(kNodes);
  ASSERT_GT(rig.samples, 100u);
  const std::vector<double> noisy =
      node_means(rig, MeterAccuracy{0.0, 0.0, kSigma});
  const std::vector<double> perfect =
      node_means(rig, MeterAccuracy::perfect());
  ASSERT_EQ(noisy.size(), kNodes);
  ASSERT_EQ(perfect.size(), kNodes);

  const double root_s = std::sqrt(static_cast<double>(rig.samples));
  std::vector<double> d(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    d[i] = (noisy[i] - perfect[i]) * root_s / (kSigma * perfect[i]);
  }
  const double n = static_cast<double>(kNodes);
  double mean = 0.0;
  for (const double x : d) mean += x;
  mean /= n;
  double ss = 0.0;
  for (const double x : d) ss += (x - mean) * (x - mean);
  const double var = ss / (n - 1.0);

  EXPECT_NEAR(mean, 0.0, 5.0 / std::sqrt(n));
  // (n-1) s^2 ~ chi-square(n-1): two-sided 99.9% bounds on s^2.
  const double lo = chi_square_quantile(0.0005, n - 1.0) / (n - 1.0);
  const double hi = chi_square_quantile(0.9995, n - 1.0) / (n - 1.0);
  EXPECT_GT(var, lo);
  EXPECT_LT(var, hi);
}

}  // namespace
}  // namespace pv
