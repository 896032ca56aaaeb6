// Unit tests for submissions, validation and ranking.

#include "core/submission.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/expects.hpp"

namespace pv {
namespace {

Submission lcsc_submission() {
  Submission s;
  s.system_name = "L-CSC";
  s.site = "GSI";
  s.rmax = teraflops(316.7);
  s.power = kilowatts(57.15);
  s.provenance = PowerProvenance::kMeasured;
  s.level = Level::kL2;
  s.revision = Revision::kV1_2;
  s.total_nodes = 160;
  s.nodes_measured = 160;
  s.core_phase_duration = hours(1.5);
  s.window_duration = hours(1.5);
  s.reported_accuracy = 0.01;
  return s;
}

TEST(Submission, EfficiencyMetrics) {
  const Submission s = lcsc_submission();
  // 316.7 TF / 57.15 kW = 5541.5 MFLOPS/W.
  EXPECT_NEAR(s.mflops_per_watt(), 5541.6, 1.0);
  EXPECT_NEAR(s.gflops_per_watt(), 5.5416, 0.001);
}

TEST(Submission, ValidCompliantSubmission) {
  const auto issues = validate_submission(lcsc_submission(), Watts{1200.0});
  EXPECT_TRUE(issues.empty());
}

TEST(Submission, DerivedPowerIsFlaggedButAllowed) {
  Submission s = lcsc_submission();
  s.provenance = PowerProvenance::kDerived;
  const auto issues = validate_submission(s, Watts{1200.0});
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "provenance");
}

TEST(Submission, TooFewNodesFlagged) {
  Submission s = lcsc_submission();
  s.level = Level::kL2;
  s.nodes_measured = 10;  // 1/8 of 160 = 20 needed
  const auto issues = validate_submission(s, Watts{1200.0});
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues[0].rule, "fraction");
}

TEST(Submission, ShortWindowFlaggedUnderNewRules) {
  Submission s = lcsc_submission();
  s.level = Level::kL1;
  s.revision = Revision::kV2015;
  s.nodes_measured = 16;
  s.window_duration = minutes(20.0);  // < full 1.5 h core phase
  bool timing = false;
  for (const auto& i : validate_submission(s, Watts{1200.0})) {
    if (i.rule == "timing") timing = true;
  }
  EXPECT_TRUE(timing);
}

TEST(Submission, MissingAccuracyAssessmentFlaggedUnder2015) {
  Submission s = lcsc_submission();
  s.revision = Revision::kV2015;
  s.reported_accuracy.reset();
  bool reporting = false;
  for (const auto& i : validate_submission(s, Watts{1200.0})) {
    if (i.rule == "reporting") reporting = true;
  }
  EXPECT_TRUE(reporting);
}

TEST(RankedList, OrdersByEfficiency) {
  RankedList list("Test500");
  Submission a = lcsc_submission();
  a.system_name = std::string("A");
  a.power = kilowatts(100.0);
  Submission b = lcsc_submission();
  b.system_name = std::string("B");
  b.power = kilowatts(50.0);  // same Rmax, half the power: more efficient
  list.add(a);
  list.add(b);
  const auto ranked = list.ranked_by_efficiency();
  EXPECT_EQ(ranked[0].system_name, "B");
  EXPECT_EQ(list.efficiency_rank("B"), 1u);
  EXPECT_EQ(list.efficiency_rank("A"), 2u);
  EXPECT_EQ(list.efficiency_rank("missing"), 0u);
}

TEST(RankedList, PerformanceOrderDiffersFromEfficiencyOrder) {
  RankedList list("Test500");
  Submission big = lcsc_submission();
  big.system_name = "big";
  big.rmax = petaflops(17.0);
  big.power = megawatts(8.0);  // 2125 MF/W
  Submission small = lcsc_submission();
  small.system_name = "small";  // ~5542 MF/W
  list.add(big);
  list.add(small);
  EXPECT_EQ(list.ranked_by_performance()[0].system_name, "big");
  EXPECT_EQ(list.ranked_by_efficiency()[0].system_name, "small");
}

TEST(RankedList, RenderContainsEntries) {
  RankedList list("MiniGreen500");
  list.add(lcsc_submission());
  const std::string out = list.render();
  EXPECT_NE(out.find("MiniGreen500"), std::string::npos);
  EXPECT_NE(out.find("L-CSC"), std::string::npos);
  EXPECT_NE(out.find("Level 2"), std::string::npos);
}

TEST(RankedList, RejectsDegenerateSubmissions) {
  RankedList list("x");
  Submission s = lcsc_submission();
  s.power = Watts{0.0};
  EXPECT_THROW(list.add(s), contract_error);
  Submission t = lcsc_submission();
  t.system_name.clear();
  EXPECT_THROW(list.add(t), contract_error);
}

TEST(RankedList, RankingVolatilityFromMeasurementSpread) {
  // §1: the #1 vs #3 efficiency gap can be smaller than the measurement
  // spread.  A 20% power understatement flips the order.
  RankedList list("x");
  Submission first = lcsc_submission();
  first.system_name = "first";
  first.power = kilowatts(57.15);
  Submission rival = lcsc_submission();
  rival.system_name = "rival";
  rival.power = kilowatts(57.15 * 1.15);  // honestly 15% less efficient
  list.add(first);
  list.add(rival);
  EXPECT_EQ(list.efficiency_rank("first"), 1u);

  RankedList gamed("x-gamed");
  rival.power = kilowatts(57.15 * 1.15 * 0.80);  // 20% window gaming
  gamed.add(first);
  gamed.add(rival);
  EXPECT_EQ(gamed.efficiency_rank("rival"), 1u);
}

}  // namespace
}  // namespace pv
