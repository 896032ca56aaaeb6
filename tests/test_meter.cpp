// Unit tests for the meter models.

#include "meter/meter.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/descriptive.hpp"
#include "util/expects.hpp"

namespace pv {
namespace {

TEST(MeterAccuracy, PresetsAreOrdered) {
  const auto ref = MeterAccuracy::reference_grade();
  const auto pdu = MeterAccuracy::pdu_grade();
  const auto commodity = MeterAccuracy::commodity_grade();
  EXPECT_LT(ref.gain_error_sd, pdu.gain_error_sd);
  EXPECT_LT(pdu.gain_error_sd, commodity.gain_error_sd);
  const auto perfect = MeterAccuracy::perfect();
  EXPECT_EQ(perfect.gain_error_sd, 0.0);
  EXPECT_EQ(perfect.noise_sd, 0.0);
}

TEST(MeterModel, PerfectMeterReportsTruth) {
  Rng cal(1);
  const MeterModel meter(MeterAccuracy::perfect(), MeterMode::kSampled,
                         Seconds{1.0}, cal);
  const NoiseStream noise(2);
  const auto trace = meter.measure([](double) { return 500.0; }, Seconds{0.0},
                                   Seconds{60.0}, noise, 0);
  EXPECT_EQ(trace.size(), 60u);
  EXPECT_DOUBLE_EQ(trace.mean_power().value(), 500.0);
  EXPECT_DOUBLE_EQ(meter.gain(), 1.0);
  EXPECT_DOUBLE_EQ(meter.offset_w(), 0.0);
}

TEST(MeterModel, CalibrationErrorIsFixedPerDevice) {
  Rng cal(3);
  const MeterModel meter(MeterAccuracy{0.02, 5.0, 0.0}, MeterMode::kSampled,
                         Seconds{1.0}, cal);
  const NoiseStream noise(4);
  const auto trace = meter.measure([](double) { return 1000.0; }, Seconds{0.0},
                                   Seconds{100.0}, noise, 0);
  // With zero per-sample noise, every reading equals gain*truth + offset.
  const double expect = 1000.0 * meter.gain() + meter.offset_w();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_DOUBLE_EQ(trace.watt_at(i), expect);
  }
  EXPECT_NE(meter.gain(), 1.0);
}

TEST(MeterModel, DistinctDevicesDrawDistinctCalibrations) {
  Rng cal_a(5, 0), cal_b(5, 1);
  const MeterModel a(MeterAccuracy::pdu_grade(), MeterMode::kSampled,
                     Seconds{1.0}, cal_a);
  const MeterModel b(MeterAccuracy::pdu_grade(), MeterMode::kSampled,
                     Seconds{1.0}, cal_b);
  EXPECT_NE(a.gain(), b.gain());
}

TEST(MeterModel, NoiseAveragesOut) {
  Rng cal(6);
  const MeterModel meter(MeterAccuracy{0.0, 0.0, 0.02}, MeterMode::kSampled,
                         Seconds{1.0}, cal);
  const NoiseStream noise(7);
  const auto trace = meter.measure([](double) { return 800.0; }, Seconds{0.0},
                                   Seconds{3600.0}, noise, 0);
  // 1 h of samples with 2% noise: mean within ~4 sigma/sqrt(n) ~ 1.1 W.
  EXPECT_NEAR(trace.mean_power().value(), 800.0, 1.5);
  const Summary s = summarize(trace.watts());
  EXPECT_NEAR(s.stddev, 16.0, 1.5);
}

TEST(MeterModel, SampledModeAliasesFastRipple) {
  // A ripple with period exactly equal to the sampling interval is
  // invisible to an instantaneous sampler (it always hits the same phase)
  // but correctly averaged by an integrating meter.
  const auto ripple = [](double t) {
    return 100.0 + 50.0 * std::sin(2.0 * M_PI * t);
  };
  Rng cal_a(8), cal_b(9);
  const NoiseStream noise(10);
  const MeterModel sampled(MeterAccuracy::perfect(), MeterMode::kSampled,
                           Seconds{1.0}, cal_a);
  const MeterModel integrated(MeterAccuracy::perfect(), MeterMode::kIntegrated,
                              Seconds{1.0}, cal_b);
  const auto st =
      sampled.measure(ripple, Seconds{0.0}, Seconds{100.0}, noise, 0);
  const auto it =
      integrated.measure(ripple, Seconds{0.0}, Seconds{100.0}, noise, 0);
  // Sampler sees sin at midpoint phase (always the same value != mean).
  EXPECT_NEAR(st.mean_power().value(), ripple(0.5), 1e-9);
  // Integrator recovers the true 100 W mean.
  EXPECT_NEAR(it.mean_power().value(), 100.0, 1e-6);
}

TEST(MeterModel, IntegratedModeMatchesAnalyticEnergy) {
  Rng cal(11);
  const NoiseStream noise(12);
  const MeterModel meter(MeterAccuracy::perfect(), MeterMode::kIntegrated,
                         Seconds{1.0}, cal);
  // Linear ramp: energy over [0, 10] of (100 + 10 t) = 1000 + 500 = 1500 J.
  const Joules e = meter
                       .measure([](double t) { return 100.0 + 10.0 * t; },
                                Seconds{0.0}, Seconds{10.0}, noise, 0)
                       .energy();
  EXPECT_NEAR(e.value(), 1500.0, 1e-9);
}

TEST(MeterModel, WindowShorterThanIntervalThrows) {
  Rng cal(13);
  const NoiseStream noise(14);
  const MeterModel meter(MeterAccuracy::perfect(), MeterMode::kSampled,
                         Seconds{10.0}, cal);
  EXPECT_THROW(meter.measure([](double) { return 1.0; }, Seconds{0.0},
                             Seconds{5.0}, noise, 0),
               contract_error);
  EXPECT_THROW(meter.measure(nullptr, Seconds{0.0}, Seconds{50.0}, noise, 0),
               contract_error);
}

TEST(MeterModel, CoarseIntervalProducesFewerReadings) {
  Rng cal(15);
  const NoiseStream noise(16);
  const MeterModel meter(MeterAccuracy::perfect(), MeterMode::kIntegrated,
                         Seconds{30.0}, cal);
  const auto trace = meter.measure([](double) { return 50.0; }, Seconds{0.0},
                                   Seconds{300.0}, noise, 0);
  EXPECT_EQ(trace.size(), 10u);
  EXPECT_DOUBLE_EQ(trace.dt().value(), 30.0);
}

}  // namespace
}  // namespace pv
