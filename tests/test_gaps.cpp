// Unit tests for GappyTrace: gap statistics, gap-aware means/energy, and
// linear-interpolation repair.

#include "trace/gaps.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/expects.hpp"

namespace pv {
namespace {

PowerTrace ramp(std::size_t n, double t0 = 0.0, double dt = 1.0) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = 100.0 + 10.0 * static_cast<double>(i);
  return PowerTrace(Seconds{t0}, Seconds{dt}, std::move(w));
}

TEST(GappyTrace, MaskMustMatchTraceLength) {
  EXPECT_THROW(GappyTrace(ramp(5), std::vector<std::uint8_t>(4, 1)),
               contract_error);
}

TEST(GappyTrace, FullyValidMatchesPlainTrace) {
  const GappyTrace g = GappyTrace::fully_valid(ramp(10));
  EXPECT_EQ(g.valid_count(), 10u);
  EXPECT_DOUBLE_EQ(g.mean_power().value(), g.trace().mean_power().value());
  EXPECT_DOUBLE_EQ(g.energy().value(), g.trace().energy().value());
  const GapStats s = g.gap_stats();
  EXPECT_EQ(s.missing, 0u);
  EXPECT_EQ(s.gap_count, 0u);
  EXPECT_EQ(s.longest_gap, 0u);
  EXPECT_DOUBLE_EQ(s.coverage, 1.0);
}

TEST(GappyTrace, GapStatsCountRunsAndCoverage) {
  // valid: 1 0 0 1 1 0 1 0 0 0  -> 2+1+3 missing, 3 gaps, longest 3
  std::vector<std::uint8_t> mask{1, 0, 0, 1, 1, 0, 1, 0, 0, 0};
  const GappyTrace g(ramp(10), mask);
  const GapStats s = g.gap_stats();
  EXPECT_EQ(s.total, 10u);
  EXPECT_EQ(s.missing, 6u);
  EXPECT_EQ(s.gap_count, 3u);
  EXPECT_EQ(s.longest_gap, 3u);
  EXPECT_DOUBLE_EQ(s.coverage, 0.4);
}

TEST(GappyTrace, MeanSkipsInvalidSamples) {
  std::vector<std::uint8_t> mask{1, 0, 1, 0};
  const GappyTrace g(ramp(4), mask);  // valid samples: 100, 120
  EXPECT_DOUBLE_EQ(g.mean_power().value(), 110.0);
  // Energy spreads the gap-aware mean over the full extent.
  EXPECT_DOUBLE_EQ(g.energy().value(), 110.0 * 4.0);
}

TEST(GappyTrace, FullyInvalidTraceRefusesStatistics) {
  GappyTrace g(ramp(3), std::vector<std::uint8_t>(3, 0));
  EXPECT_THROW(g.mean_power(), contract_error);
  EXPECT_THROW(g.repaired(), contract_error);
}

TEST(GappyTrace, InvalidateUpdatesStats) {
  GappyTrace g = GappyTrace::fully_valid(ramp(5));
  g.invalidate(2);
  EXPECT_FALSE(g.valid_at(2));
  EXPECT_EQ(g.gap_stats().missing, 1u);
}

TEST(GappyTrace, RepairInterpolateBridgesInteriorGaps) {
  // 100 _ _ 130 with a linear ramp: interpolation recovers it exactly.
  std::vector<std::uint8_t> mask{1, 0, 0, 1};
  const GappyTrace g(ramp(4), mask);
  const PowerTrace r = g.repaired();
  EXPECT_DOUBLE_EQ(r.watt_at(1), 110.0);
  EXPECT_DOUBLE_EQ(r.watt_at(2), 120.0);
  EXPECT_DOUBLE_EQ(r.watt_at(0), 100.0);
  EXPECT_DOUBLE_EQ(r.watt_at(3), 130.0);
}

TEST(GappyTrace, RepairInterpolateEdgeGapsUseNearestValid) {
  std::vector<std::uint8_t> mask{0, 1, 1, 0};
  const GappyTrace g(ramp(4), mask);
  const PowerTrace r = g.repaired();
  EXPECT_DOUBLE_EQ(r.watt_at(0), 110.0);  // leading gap -> first valid
  EXPECT_DOUBLE_EQ(r.watt_at(3), 120.0);  // trailing gap -> last valid
}

TEST(GappyTrace, RepairPreservesTimeBase) {
  std::vector<std::uint8_t> mask{1, 0, 1};
  const GappyTrace g(ramp(3, /*t0=*/50.0, /*dt=*/2.0), mask);
  const PowerTrace r = g.repaired();
  EXPECT_DOUBLE_EQ(r.t0().value(), 50.0);
  EXPECT_DOUBLE_EQ(r.dt().value(), 2.0);
  EXPECT_EQ(r.size(), 3u);
}

}  // namespace
}  // namespace pv
