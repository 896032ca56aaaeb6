// Unit tests for PSU efficiency curves and conversion-loss modeling.

#include "meter/psu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/expects.hpp"

namespace pv {
namespace {

TEST(PsuEfficiencyCurve, InterpolatesBetweenPoints) {
  const PsuEfficiencyCurve c({{0.0, 0.80}, {0.5, 0.90}, {1.0, 0.86}});
  EXPECT_DOUBLE_EQ(c.efficiency_at(0.0), 0.80);
  EXPECT_DOUBLE_EQ(c.efficiency_at(0.25), 0.85);
  EXPECT_DOUBLE_EQ(c.efficiency_at(0.5), 0.90);
  EXPECT_DOUBLE_EQ(c.efficiency_at(0.75), 0.88);
  EXPECT_DOUBLE_EQ(c.efficiency_at(1.0), 0.86);
}

TEST(PsuEfficiencyCurve, ClampsOutsideControlPoints) {
  const PsuEfficiencyCurve c({{0.2, 0.85}, {0.8, 0.92}});
  EXPECT_DOUBLE_EQ(c.efficiency_at(0.05), 0.85);
  EXPECT_DOUBLE_EQ(c.efficiency_at(2.0), 0.92);  // overload: last point
}

TEST(PsuEfficiencyCurve, ValidatesInput) {
  EXPECT_THROW(PsuEfficiencyCurve({{0.5, 0.9}}), contract_error);
  EXPECT_THROW(PsuEfficiencyCurve({{0.5, 0.9}, {0.4, 0.8}}), contract_error);
  EXPECT_THROW(PsuEfficiencyCurve({{0.1, 0.0}, {0.5, 0.9}}), contract_error);
  EXPECT_THROW(PsuEfficiencyCurve({{0.1, 0.9}, {1.5, 0.9}}), contract_error);
}

TEST(PsuEfficiencyCurve, PresetsOrderedByCertification) {
  EXPECT_LT(PsuEfficiencyCurve::gold().efficiency_at(0.5),
            PsuEfficiencyCurve::platinum().efficiency_at(0.5));
  EXPECT_LT(PsuEfficiencyCurve::platinum().efficiency_at(0.5),
            PsuEfficiencyCurve::titanium().efficiency_at(0.5));
}

TEST(PsuModel, AcInputExceedsDcLoad) {
  const PsuModel psu(Watts{1000.0}, PsuEfficiencyCurve::platinum());
  const Watts ac = psu.ac_input(Watts{500.0});
  // 50% load on platinum: 0.94 efficiency.
  EXPECT_NEAR(ac.value(), 500.0 / 0.94, 1e-9);
  EXPECT_NEAR(psu.loss(Watts{500.0}).value(), 500.0 / 0.94 - 500.0, 1e-9);
  EXPECT_DOUBLE_EQ(psu.ac_input(Watts{0.0}).value(), 0.0);
}

TEST(PsuModel, LightLoadIsLessEfficient) {
  const PsuModel psu(Watts{1000.0}, PsuEfficiencyCurve::gold());
  const double eff_light =
      20.0 / psu.ac_input(Watts{20.0}).value();
  const double eff_mid = 500.0 / psu.ac_input(Watts{500.0}).value();
  EXPECT_LT(eff_light, eff_mid);
}

TEST(PsuModel, DcOutputInvertsAcInput) {
  const PsuModel psu(Watts{1200.0}, PsuEfficiencyCurve::titanium());
  for (double dc : {5.0, 100.0, 600.0, 1100.0}) {
    const Watts ac = psu.ac_input(Watts{dc});
    EXPECT_NEAR(psu.dc_output(ac).value(), dc, 1e-5) << "dc=" << dc;
  }
  EXPECT_DOUBLE_EQ(psu.dc_output(Watts{0.0}).value(), 0.0);
}

TEST(PsuModel, DomainChecks) {
  EXPECT_THROW(PsuModel(Watts{0.0}, PsuEfficiencyCurve::gold()),
               contract_error);
  const PsuModel psu(Watts{100.0}, PsuEfficiencyCurve::gold());
  EXPECT_THROW(psu.ac_input(Watts{-1.0}), contract_error);
}

TEST(PsuModel, AcInputIsMonotoneInTheDcLoad) {
  // Losses never make more load cost less at the wall: the AC draw is
  // strictly increasing in DC load for every certification tier.
  for (const auto& curve :
       {PsuEfficiencyCurve::gold(), PsuEfficiencyCurve::platinum(),
        PsuEfficiencyCurve::titanium()}) {
    const PsuModel psu(Watts{1000.0}, curve);
    double prev = psu.ac_input(Watts{1.0}).value();
    for (double dc = 26.0; dc <= 1101.0; dc += 25.0) {
      const double cur = psu.ac_input(Watts{dc}).value();
      EXPECT_GT(cur, prev) << "dc=" << dc;
      prev = cur;
    }
  }
}

TEST(PsuModel, RoundTripIsExactAcrossTheWholeLoadRange) {
  const PsuModel psu(Watts{800.0}, PsuEfficiencyCurve::gold());
  // Including far below the lightest control point and above rated.
  for (double dc = 0.5; dc <= 900.0; dc *= 1.7) {
    const Watts ac = psu.ac_input(Watts{dc});
    EXPECT_GT(ac.value(), dc);
    EXPECT_NEAR(psu.dc_output(ac).value(), dc, 1e-5 * dc) << "dc=" << dc;
  }
}

TEST(NominalConversionModel, RoundTrips) {
  const NominalConversionModel m{0.94};
  const Watts dc{940.0};
  const Watts ac = m.ac_from_dc(dc);
  EXPECT_NEAR(ac.value(), 1000.0, 1e-9);
  EXPECT_NEAR(m.dc_from_ac(ac).value(), dc.value(), 1e-9);
}

TEST(NominalConversionModel, DisagreesWithTrueCurveOffPeak) {
  // The Level 1 vendor-nominal model applies one efficiency everywhere;
  // at light load the true curve is worse, so the nominal model
  // *underestimates* AC power — one of the Level 1 error channels.
  const PsuModel psu(Watts{1000.0}, PsuEfficiencyCurve::gold());
  const NominalConversionModel nominal{0.90};  // matches the 50% point
  const Watts dc{50.0};
  EXPECT_LT(nominal.ac_from_dc(dc).value(), psu.ac_input(dc).value());
}

// ---------------------------------------------------------------------------
// The shared breakpoint table: a rebound curve evaluates exactly what a
// fresh compile of the same curve at the same rating evaluates.

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// DC loads covering every branch of the evaluation at `rated`: zero,
/// below the first breakpoint, on and next to every breakpoint, between
/// breakpoints, at full load and above it.
std::vector<double> sweep_loads(const PsuEfficiencyCurve& curve,
                                double rated) {
  const auto& pts = curve.points();
  std::vector<double> loads = {0.0, 0.5 * pts.front().first * rated,
                               rated, 1.25 * rated, 2.0 * rated};
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double on = pts[i].first * rated;
    loads.push_back(on);
    loads.push_back(std::nextafter(on, 0.0));
    loads.push_back(std::nextafter(on, 2.0 * rated));
    if (i + 1 < pts.size()) {
      loads.push_back(0.5 * (pts[i].first + pts[i + 1].first) * rated);
    }
  }
  return loads;
}

TEST(CompiledPsuCurve, ReboundCurveIsBitIdenticalToAFreshCompile) {
  const PsuEfficiencyCurve curves[] = {PsuEfficiencyCurve::gold(),
                                       PsuEfficiencyCurve::platinum(),
                                       PsuEfficiencyCurve::titanium()};
  const double ratings[] = {1.0, 250.0, 404.7, 560.3, 1000.0, 1523.9};
  for (const PsuEfficiencyCurve& curve : curves) {
    // Compiled at a rating none of the sweeps uses, then rebound.
    const CompiledPsuCurve source(curve, Watts{777.7});
    for (const double rated : ratings) {
      const CompiledPsuCurve fresh(curve, Watts{rated});
      const CompiledPsuCurve rebound = source.rebound(Watts{rated});
      ASSERT_TRUE(rebound.shares_table_with(source));
      ASSERT_FALSE(fresh.shares_table_with(source));
      const std::vector<double> dc = sweep_loads(curve, rated);
      const std::size_t n = dc.size();
      std::vector<double> lf, eff;
      std::vector<double> fresh_batch(n), rebound_batch(n);
      fresh.ac_from_dc_batch(dc, fresh_batch, lf, eff);
      rebound.ac_from_dc_batch(dc, rebound_batch, lf, eff);
      // Every lane of a bank on the rebound curve against the fresh one.
      const std::vector<const CompiledPsuCurve*> fresh_lanes(n, &fresh);
      const std::vector<const CompiledPsuCurve*> rebound_lanes(n, &rebound);
      const FleetPsuBank fresh_bank = FleetPsuBank::build(fresh_lanes);
      const FleetPsuBank rebound_bank = FleetPsuBank::build(rebound_lanes);
      std::vector<double> fresh_fleet(n), rebound_fleet(n);
      fresh_bank.ac_from_dc_fleet(dc, fresh_fleet, 0, lf, eff);
      rebound_bank.ac_from_dc_fleet(dc, rebound_fleet, 0, lf, eff);
      for (std::size_t k = 0; k < n; ++k) {
        const double want = fresh.ac_from_dc(dc[k]);
        SCOPED_TRACE("rated " + std::to_string(rated) + ", load " +
                     std::to_string(dc[k]));
        EXPECT_TRUE(bits_equal(rebound.ac_from_dc(dc[k]), want));
        EXPECT_TRUE(bits_equal(fresh_batch[k], want));
        EXPECT_TRUE(bits_equal(rebound_batch[k], want));
        EXPECT_TRUE(bits_equal(fresh_fleet[k], want));
        EXPECT_TRUE(bits_equal(rebound_fleet[k], want));
      }
    }
  }
}

TEST(CompiledPsuCurve, EmptyCurveStaysEmpty) {
  const CompiledPsuCurve none;
  EXPECT_TRUE(none.empty());
  EXPECT_FALSE(none.shares_table_with(none));
  EXPECT_THROW((void)none.rebound(Watts{400.0}), contract_error);
  const CompiledPsuCurve some(PsuEfficiencyCurve::gold(), Watts{400.0});
  EXPECT_FALSE(some.empty());
  EXPECT_FALSE(some.rebound(Watts{500.0}).empty());
  EXPECT_THROW((void)some.rebound(Watts{0.0}), contract_error);
}

TEST(PsuModel, FleetCurveConstructorMatchesTheCurveConstructor) {
  const CompiledPsuCurve fleet(PsuEfficiencyCurve::platinum(), Watts{1.0});
  const PsuModel shared(Watts{480.0}, fleet);
  const PsuModel own(Watts{480.0}, PsuEfficiencyCurve::platinum());
  EXPECT_TRUE(shared.compiled().shares_table_with(fleet));
  EXPECT_EQ(shared.rated_output().value(), own.rated_output().value());
  for (const double dc : sweep_loads(PsuEfficiencyCurve::platinum(), 480.0)) {
    EXPECT_TRUE(bits_equal(shared.ac_input(Watts{dc}).value(),
                           own.ac_input(Watts{dc}).value()));
  }
  EXPECT_THROW(PsuModel(Watts{0.0}, fleet), contract_error);
}

TEST(FleetPsuBank, SharesOnlyPointerSharedTablesBitForBit) {
  // Five ratings on one curve, as two fleets: rebound from one compiled
  // table (a lowered model's nodes) and compiled node by node (distinct,
  // if equal, tables).  The bank takes a shared table only by pointer:
  // the first runs the fleet-major blend with per-lane 1/rated and must
  // give the bits of a freshly compiled curve's scalar call; the second
  // is refused.
  const CompiledPsuCurve fleet(PsuEfficiencyCurve::platinum(), Watts{1.0});
  std::vector<PsuModel> rebound;
  std::vector<PsuModel> separate;
  for (int i = 0; i < 5; ++i) {
    const Watts rated{300.0 + 40.0 * i};
    rebound.emplace_back(rated, fleet);
    separate.emplace_back(rated, PsuEfficiencyCurve::platinum());
  }
  const auto lanes_of = [](const std::vector<PsuModel>& psus) {
    std::vector<const CompiledPsuCurve*> lanes;
    for (const PsuModel& p : psus) lanes.push_back(&p.compiled());
    return lanes;
  };
  const std::vector<const CompiledPsuCurve*> separate_lanes =
      lanes_of(separate);
  EXPECT_FALSE(separate_lanes[0]->shares_table_with(*separate_lanes[1]));
  EXPECT_THROW((void)FleetPsuBank::build(separate_lanes), contract_error);

  const std::vector<const CompiledPsuCurve*> lanes = lanes_of(rebound);
  EXPECT_TRUE(lanes[0]->shares_table_with(*lanes[1]));
  const FleetPsuBank bank = FleetPsuBank::build(lanes);
  const std::vector<double> dc = {0.0, 5.0, 60.0, 150.0, 290.0, 512.0};
  const auto want = [&](std::size_t lane, double load) {
    return separate[lane].compiled().ac_from_dc(load);
  };
  std::vector<double> ac(dc.size()), lf, eff;
  // Lanes 0..4, then lane 4 again through a one-lane window at offset 4.
  bank.ac_from_dc_fleet(std::span<const double>(dc).first(5),
                        std::span<double>(ac).first(5), 0, lf, eff);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_TRUE(bits_equal(ac[k], want(k, dc[k])));
  }
  bank.ac_from_dc_fleet(std::span<const double>(dc).subspan(5, 1),
                        std::span<double>(ac).subspan(5, 1), 4, lf, eff);
  EXPECT_TRUE(bits_equal(ac[5], want(4, dc[5])));
  EXPECT_THROW(bank.ac_from_dc_fleet(std::span<const double>(dc).first(2),
                                     std::span<double>(ac).first(2), 4, lf,
                                     eff),
               contract_error);
}

TEST(FleetPsuBank, MixedTablesAndMixedDcLanesAreRefused) {
  const PsuModel gold(Watts{400.0}, PsuEfficiencyCurve::gold());
  const PsuModel platinum(Watts{400.0}, PsuEfficiencyCurve::platinum());
  const CompiledPsuCurve none;
  using Lanes = std::vector<const CompiledPsuCurve*>;
  for (const Lanes& lanes :
       {Lanes{&gold.compiled(), &platinum.compiled(), &gold.compiled()},
        Lanes{&gold.compiled(), nullptr, &gold.compiled()},
        Lanes{nullptr, &gold.compiled()}, Lanes{&none}}) {
    EXPECT_THROW((void)FleetPsuBank::build(lanes), contract_error);
  }

  // All DC lanes: the bank passes the DC loads through.
  const std::vector<double> dc = {120.0, 0.0, 333.25};
  std::vector<double> ac(dc.size()), lf, eff;
  const FleetPsuBank dc_bank = FleetPsuBank::build(Lanes(3, nullptr));
  dc_bank.ac_from_dc_fleet(dc, ac, 0, lf, eff);
  for (std::size_t k = 0; k < dc.size(); ++k) {
    EXPECT_TRUE(bits_equal(ac[k], dc[k]));
  }
  EXPECT_THROW(dc_bank.ac_from_dc_fleet(dc, ac, 1, lf, eff), contract_error);
}

}  // namespace
}  // namespace pv
