// Unit tests for the meter fault models: dropout, bursts, stuck sensors,
// spikes, clipping, meter death, and the stuck-run detector.

#include "meter/faults.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/rng.hpp"

namespace pv {
namespace {

PowerTrace noisy_trace(std::size_t n, std::uint64_t seed = 1,
                       double mean = 400.0) {
  Rng rng(seed);
  std::vector<double> w(n);
  for (auto& v : w) v = mean + rng.normal(0.0, 3.0);
  return PowerTrace(Seconds{0.0}, Seconds{1.0}, std::move(w));
}

const TimeWindow kWindow{Seconds{0.0}, Seconds{1000.0}};

TEST(FaultSpec, DefaultIsFaultFree) {
  EXPECT_FALSE(FaultSpec{}.any());
  EXPECT_FALSE(FaultSpec::none().any());
  EXPECT_TRUE(FaultSpec::mild().any());
  EXPECT_TRUE(FaultSpec::harsh().any());
}

TEST(Faults, NoFaultsPassThroughUntouched) {
  const PowerTrace clean = noisy_trace(200);
  Rng rng(5);
  FaultEvents ev;
  const GappyTrace g =
      inject_faults(clean, FaultSpec::none(), MeterFate{}, rng, &ev);
  EXPECT_EQ(g.valid_count(), 200u);
  EXPECT_EQ(ev.samples_dropped + ev.samples_dead + ev.samples_stuck +
                ev.samples_spiked + ev.samples_clipped,
            0u);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_DOUBLE_EQ(g.trace().watt_at(i), clean.watt_at(i));
  }
}

TEST(Faults, DropoutLosesRoughlyTheConfiguredFraction) {
  const PowerTrace clean = noisy_trace(5000);
  FaultSpec spec;
  spec.dropout_prob = 0.10;
  Rng rng(6);
  FaultEvents ev;
  const GappyTrace g = inject_faults(clean, spec, MeterFate{}, rng, &ev);
  const double lost = static_cast<double>(ev.samples_dropped) / 5000.0;
  EXPECT_NEAR(lost, 0.10, 0.02);
  EXPECT_EQ(g.valid_count(), 5000u - ev.samples_dropped);
}

TEST(Faults, BurstOutagesProduceContiguousGaps) {
  const PowerTrace clean = noisy_trace(3600);
  FaultSpec spec;
  spec.burst_rate_per_hour = 4.0;
  spec.burst_mean_s = 60.0;
  Rng rng(7);
  const GappyTrace g = inject_faults(clean, spec, MeterFate{}, rng);
  const GapStats s = g.gap_stats();
  EXPECT_GT(s.missing, 0u);
  // Bursts are long: the longest gap dwarfs a single sample.
  EXPECT_GE(s.longest_gap, 10u);
}

TEST(Faults, MeterDeathKillsEverythingAfterDeathTime) {
  const PowerTrace clean = noisy_trace(100);
  MeterFate fate;
  fate.dies = true;
  fate.death_time_s = 40.0;
  Rng rng(8);
  FaultEvents ev;
  const GappyTrace g =
      inject_faults(clean, FaultSpec::none(), fate, rng, &ev);
  EXPECT_EQ(ev.samples_dead, 60u);
  for (std::size_t i = 0; i < 40; ++i) EXPECT_TRUE(g.valid_at(i));
  for (std::size_t i = 40; i < 100; ++i) EXPECT_FALSE(g.valid_at(i));
}

TEST(Faults, StuckSensorFreezesAtLastValue) {
  const PowerTrace clean = noisy_trace(100);
  MeterFate fate;
  fate.sticks = true;
  fate.stuck_begin_s = 20.0;
  fate.stuck_end_s = 60.0;
  Rng rng(9);
  FaultEvents ev;
  const GappyTrace g =
      inject_faults(clean, FaultSpec::none(), fate, rng, &ev);
  EXPECT_EQ(ev.samples_stuck, 40u);
  const double frozen = g.trace().watt_at(19);
  for (std::size_t i = 20; i < 60; ++i) {
    EXPECT_DOUBLE_EQ(g.trace().watt_at(i), frozen) << "i=" << i;
    EXPECT_TRUE(g.valid_at(i));  // stuck readings arrive "valid"
  }
  EXPECT_NE(g.trace().watt_at(60), frozen);
}

TEST(Faults, SpikesMultiplyReadings) {
  const PowerTrace clean = noisy_trace(2000);
  FaultSpec spec;
  spec.spike_prob = 0.01;
  spec.spike_max_gain = 5.0;
  Rng rng(10);
  FaultEvents ev;
  const GappyTrace g = inject_faults(clean, spec, MeterFate{}, rng, &ev);
  EXPECT_GT(ev.samples_spiked, 0u);
  // Spiked readings are at least 1.5x the clean value.
  std::size_t big = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (g.trace().watt_at(i) > 1.4 * clean.watt_at(i)) ++big;
  }
  EXPECT_EQ(big, ev.samples_spiked);
}

TEST(Faults, ClippingSaturatesAtFullScale) {
  const PowerTrace clean = noisy_trace(500, 2, 400.0);
  FaultSpec spec;
  spec.clip_max_w = 398.0;
  Rng rng(11);
  FaultEvents ev;
  const GappyTrace g = inject_faults(clean, spec, MeterFate{}, rng, &ev);
  EXPECT_GT(ev.samples_clipped, 0u);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_LE(g.trace().watt_at(i), 398.0);
  }
}

TEST(Faults, InjectionIsDeterministicPerSeed) {
  const PowerTrace clean = noisy_trace(1000);
  const FaultSpec spec = FaultSpec::harsh();
  Rng fate_a(33), fate_b(33);
  const MeterFate fa = draw_meter_fate(spec, kWindow, fate_a);
  const MeterFate fb = draw_meter_fate(spec, kWindow, fate_b);
  EXPECT_EQ(fa.dies, fb.dies);
  EXPECT_DOUBLE_EQ(fa.death_time_s, fb.death_time_s);
  Rng ra(44), rb(44);
  const GappyTrace ga = inject_faults(clean, spec, fa, ra);
  const GappyTrace gb = inject_faults(clean, spec, fb, rb);
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_EQ(ga.valid_at(i), gb.valid_at(i));
    EXPECT_DOUBLE_EQ(ga.trace().watt_at(i), gb.trace().watt_at(i));
  }
}

TEST(Faults, FlagStuckRunsInvalidatesFrozenStretch) {
  // Real signal, then 30 frozen samples, then real again.
  std::vector<double> w;
  Rng rng(12);
  for (int i = 0; i < 20; ++i) w.push_back(400.0 + rng.normal(0.0, 2.0));
  for (int i = 0; i < 30; ++i) w.push_back(w.back());
  for (int i = 0; i < 20; ++i) w.push_back(400.0 + rng.normal(0.0, 2.0));
  GappyTrace g = GappyTrace::fully_valid(
      PowerTrace(Seconds{0.0}, Seconds{1.0}, std::move(w)));
  const std::size_t flagged = flag_stuck_runs(g, 5);
  // The run is 31 identical values (the honest last reading + 30 repeats);
  // everything but the first is flagged.
  EXPECT_EQ(flagged, 30u);
  EXPECT_TRUE(g.valid_at(19));
  for (std::size_t i = 20; i < 50; ++i) EXPECT_FALSE(g.valid_at(i));
  EXPECT_TRUE(g.valid_at(50));
}

TEST(Faults, FlagStuckRunsSparesShortRepeats) {
  // 3 identical readings < min_run of 5: an honest flat stretch survives.
  std::vector<double> w{1, 2, 3, 3, 3, 4, 5};
  GappyTrace g = GappyTrace::fully_valid(
      PowerTrace(Seconds{0.0}, Seconds{1.0}, std::move(w)));
  EXPECT_EQ(flag_stuck_runs(g, 5), 0u);
  EXPECT_EQ(g.valid_count(), 7u);
}

TEST(FaultPlan, EnabledAndForcedDead) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.dead_meters = {3, 9};
  EXPECT_TRUE(plan.enabled());
  EXPECT_TRUE(plan.forced_dead(3));
  EXPECT_FALSE(plan.forced_dead(4));
  FaultPlan spiky;
  spiky.spec.spike_prob = 0.01;
  EXPECT_TRUE(spiky.enabled());
}

TEST(Faults, FateRespectsProbabilities) {
  FaultSpec never;
  Rng rng(13);
  const MeterFate f = draw_meter_fate(never, kWindow, rng);
  EXPECT_FALSE(f.dies);
  EXPECT_FALSE(f.sticks);

  FaultSpec always;
  always.death_prob = 1.0;
  always.stuck_prob = 1.0;
  Rng rng2(14);
  const MeterFate g = draw_meter_fate(always, kWindow, rng2);
  EXPECT_TRUE(g.dies);
  EXPECT_GE(g.death_time_s, 0.0);
  EXPECT_LE(g.death_time_s, 1000.0);
  EXPECT_TRUE(g.sticks);
  EXPECT_GT(g.stuck_end_s, g.stuck_begin_s);
}

// --- byzantine faults: readings that lie instead of going missing ---------

TEST(ByzantineFaults, PresetEnablesOnlySemanticFaults) {
  const FaultSpec b = FaultSpec::byzantine();
  EXPECT_TRUE(b.any());
  EXPECT_TRUE(b.any_byzantine());
  EXPECT_FALSE(FaultSpec::none().any_byzantine());
  EXPECT_FALSE(FaultSpec::harsh().any_byzantine());
  EXPECT_DOUBLE_EQ(b.dropout_prob, 0.0);
  EXPECT_DOUBLE_EQ(b.death_prob, 0.0);
}

TEST(ByzantineFaults, GainDriftMultipliesExactly) {
  const PowerTrace clean = noisy_trace(300);
  MeterFate fate;
  fate.drift_rate_per_hour = 0.1;
  Rng rng(21);
  FaultEvents ev;
  const GappyTrace g =
      inject_faults(clean, FaultSpec::none(), fate, rng, &ev);
  EXPECT_EQ(ev.samples_miscalibrated, 300u);
  EXPECT_EQ(g.valid_count(), 300u);  // lies never invalidate samples
  for (std::size_t i = 0; i < g.size(); ++i) {
    const double t = clean.time_at(i).value() + 0.5;
    EXPECT_DOUBLE_EQ(g.trace().watt_at(i),
                     clean.watt_at(i) * fate.byzantine_gain(t));
  }
  // The gain actually creeps: last reading distorted more than the first.
  EXPECT_GT(fate.byzantine_gain(299.5), fate.byzantine_gain(0.5));
}

TEST(ByzantineFaults, UnitErrorScalesEveryReading) {
  const PowerTrace clean = noisy_trace(100);
  MeterFate fate;
  fate.unit_scale = 1000.0;
  Rng rng(22);
  FaultEvents ev;
  const GappyTrace g =
      inject_faults(clean, FaultSpec::none(), fate, rng, &ev);
  EXPECT_EQ(ev.samples_miscalibrated, 100u);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_DOUBLE_EQ(g.trace().watt_at(i), clean.watt_at(i) * 1000.0);
  }
}

TEST(ByzantineFaults, RecalibrationStepsOnlyAfterTheEvent) {
  const PowerTrace clean = noisy_trace(200);
  MeterFate fate;
  fate.recalibrates = true;
  fate.recal_time_s = 100.0;
  fate.recal_gain = 1.05;
  Rng rng(23);
  const GappyTrace g = inject_faults(clean, FaultSpec::none(), fate, rng);
  for (std::size_t i = 0; i < g.size(); ++i) {
    const double t = clean.time_at(i).value() + 0.5;
    const double expected = t >= 100.0 ? 1.05 : 1.0;
    EXPECT_DOUBLE_EQ(g.trace().watt_at(i), clean.watt_at(i) * expected);
  }
}

TEST(ByzantineFaults, ClockSkewSourcesShiftedSamples) {
  const PowerTrace clean = noisy_trace(100);
  MeterFate fate;
  fate.clock_skew_s = 10.0;  // dt = 1 s: reads 10 samples ahead
  Rng rng(24);
  FaultEvents ev;
  const GappyTrace g =
      inject_faults(clean, FaultSpec::none(), fate, rng, &ev);
  EXPECT_GT(ev.samples_time_shifted, 0u);
  for (std::size_t i = 0; i < g.size(); ++i) {
    const std::size_t src = std::min<std::size_t>(i + 10, 99);
    EXPECT_DOUBLE_EQ(g.trace().watt_at(i), clean.watt_at(src));
  }
}

TEST(ByzantineFaults, ReorderSwapsAdjacentPairs) {
  const PowerTrace clean = noisy_trace(100);
  FaultSpec spec;
  spec.reorder_prob = 1.0;
  Rng rng(25);
  FaultEvents ev;
  const GappyTrace g = inject_faults(clean, spec, MeterFate{}, rng, &ev);
  EXPECT_EQ(ev.samples_reordered, 100u);  // 50 swapped pairs
  for (std::size_t i = 0; i + 1 < g.size(); i += 2) {
    EXPECT_DOUBLE_EQ(g.trace().watt_at(i), clean.watt_at(i + 1));
    EXPECT_DOUBLE_EQ(g.trace().watt_at(i + 1), clean.watt_at(i));
  }
}

TEST(ByzantineFaults, DuplicateTimestampsRepeatThePreviousReading) {
  const PowerTrace clean = noisy_trace(50);
  FaultSpec spec;
  spec.dup_ts_prob = 1.0;
  Rng rng(26);
  FaultEvents ev;
  const GappyTrace g = inject_faults(clean, spec, MeterFate{}, rng, &ev);
  EXPECT_EQ(ev.samples_duplicated_ts, 49u);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_DOUBLE_EQ(g.trace().watt_at(i), clean.watt_at(0));
  }
}

TEST(ByzantineFaults, FateDrawIsDeterministicAndBounded) {
  FaultSpec always;
  always.drift_prob = 1.0;
  always.recal_prob = 1.0;
  always.unit_error_prob = 1.0;
  always.clock_skew_prob = 1.0;
  Rng rng_a(31);
  Rng rng_b(31);
  const MeterFate a = draw_meter_fate(always, kWindow, rng_a);
  const MeterFate b = draw_meter_fate(always, kWindow, rng_b);
  EXPECT_TRUE(a.byzantine());
  EXPECT_DOUBLE_EQ(a.drift_rate_per_hour, b.drift_rate_per_hour);
  EXPECT_DOUBLE_EQ(a.recal_time_s, b.recal_time_s);
  EXPECT_DOUBLE_EQ(a.unit_scale, b.unit_scale);
  EXPECT_DOUBLE_EQ(a.clock_skew_s, b.clock_skew_s);
  EXPECT_LE(std::abs(a.drift_rate_per_hour), always.drift_max_per_hour);
  EXPECT_GE(a.recal_time_s, 0.0);
  EXPECT_LE(a.recal_time_s, 1000.0);
  EXPECT_TRUE(a.unit_scale == always.unit_scale ||
              a.unit_scale == 1.0 / always.unit_scale);
  EXPECT_LE(std::abs(a.clock_skew_s), always.clock_skew_max_s);
}

TEST(ByzantineFaults, ForcedCycleCoversAllFourModesAndAlternatesSign) {
  FaultPlan plan;
  plan.byzantine_meters = {10, 20, 30, 40, 50};
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.forced_byzantine(20), 1u);
  EXPECT_EQ(plan.forced_byzantine(7), FaultPlan::npos);

  const TimeWindow win{Seconds{0.0}, Seconds{1800.0}};
  std::vector<MeterFate> fates(5);
  for (std::size_t pos = 0; pos < 5; ++pos) {
    plan.apply_forced_byzantine(pos, win, fates[pos]);
    EXPECT_TRUE(fates[pos].byzantine());
  }
  EXPECT_DOUBLE_EQ(fates[0].drift_rate_per_hour, FaultPlan::kByzDriftPerHour);
  EXPECT_DOUBLE_EQ(fates[1].unit_scale, FaultPlan::kByzUnitScale);
  EXPECT_DOUBLE_EQ(fates[2].clock_skew_s, FaultPlan::kByzClockSkewS);
  EXPECT_TRUE(fates[3].recalibrates);
  EXPECT_DOUBLE_EQ(fates[3].recal_time_s, 0.4 * 1800.0);
  EXPECT_DOUBLE_EQ(fates[3].recal_gain, 1.0 + FaultPlan::kByzStepFrac);
  // The second cycle pushes the other way.
  EXPECT_DOUBLE_EQ(fates[4].drift_rate_per_hour, -FaultPlan::kByzDriftPerHour);
}

}  // namespace
}  // namespace pv
