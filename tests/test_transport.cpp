// Tests for the simulated meter transport and its fault model.

#include "collect/transport.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/expects.hpp"

namespace pv {
namespace {

TEST(MixStreams, DistinctIdentitiesGetDistinctStreams) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      for (std::uint64_t c = 0; c < 4; ++c) {
        seen.insert(mix_streams(a, b, c));
      }
    }
  }
  EXPECT_EQ(seen.size(), 16u * 16u * 4u);  // no collisions in a small grid
  EXPECT_NE(mix_streams(1, 2), mix_streams(2, 1));  // order matters
}

TEST(LatencyModel, DrawsStayInPhysicalRange) {
  LatencyModel lat;
  lat.base_s = 0.01;
  lat.jitter_s = 0.02;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = lat.draw(rng);
    ASSERT_GE(d, lat.base_s);
    ASSERT_LT(d, 60.0);  // exponential tail, but not absurd
  }
  // Without jitter, every draw above the floor came from the tail: about
  // 2% of them, each an Exp(0.3 s) excess.
  lat.jitter_s = 0.0;
  constexpr int kDraws = 40000;
  int tail = 0;
  double excess_s = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double d = lat.draw(rng);
    if (d > lat.base_s) {
      ++tail;
      excess_s += d - lat.base_s;
    }
  }
  EXPECT_NEAR(static_cast<double>(tail) / kDraws, kLatencyTailProb, 0.005);
  ASSERT_GT(tail, 0);
  EXPECT_NEAR(excess_s / tail, kLatencyTailScaleS, 0.05);
}

TEST(SimTransport, ExchangeIsDeterministicPerIdentity) {
  TransportSpec spec;
  spec.drop_prob = 0.3;
  spec.duplicate_prob = 0.1;
  const SimTransport a(spec, 99);
  const SimTransport b(spec, 99);
  for (std::size_t meter = 0; meter < 8; ++meter) {
    for (std::size_t chunk = 0; chunk < 8; ++chunk) {
      for (std::size_t attempt = 0; attempt < 3; ++attempt) {
        const Exchange ea = a.exchange(meter, chunk, attempt, 1.0);
        const Exchange eb = b.exchange(meter, chunk, attempt, 1.0);
        ASSERT_EQ(ea.ok, eb.ok);
        ASSERT_EQ(ea.elapsed_s, eb.elapsed_s);
        ASSERT_EQ(ea.duplicate, eb.duplicate);
      }
    }
  }
  // A different seed gives a different fault pattern somewhere.
  const SimTransport c(spec, 100);
  bool any_difference = false;
  for (std::size_t chunk = 0; chunk < 64 && !any_difference; ++chunk) {
    any_difference = a.exchange(0, chunk, 0, 1.0).ok !=
                     c.exchange(0, chunk, 0, 1.0).ok;
  }
  EXPECT_TRUE(any_difference);
}

TEST(SimTransport, PerfectNetworkAlwaysAnswers) {
  const SimTransport t(TransportSpec{}, 1);
  for (std::size_t chunk = 0; chunk < 100; ++chunk) {
    const Exchange ex = t.exchange(3, chunk, 0, 10.0);
    ASSERT_TRUE(ex.ok);
    ASSERT_GT(ex.elapsed_s, 0.0);
    ASSERT_LT(ex.elapsed_s, 10.0);
  }
}

TEST(SimTransport, FailureChargesTheFullTimeout) {
  TransportSpec spec;
  spec.drop_prob = 1.0;
  const SimTransport t(spec, 5);
  const Exchange ex = t.exchange(0, 0, 0, 2.5);
  EXPECT_FALSE(ex.ok);
  EXPECT_EQ(ex.elapsed_s, 2.5);
  EXPECT_FALSE(ex.duplicate);  // a lost exchange cannot also duplicate
}

TEST(SimTransport, TightTimeoutTurnsLatencyIntoTimeouts) {
  const SimTransport t(TransportSpec{}, 8);  // base 20 ms + jitter
  std::size_t failures = 0;
  for (std::size_t chunk = 0; chunk < 200; ++chunk) {
    if (!t.exchange(0, chunk, 0, /*timeout_s=*/0.021).ok) ++failures;
  }
  EXPECT_GT(failures, 0u);   // most jitter draws exceed 1 ms of headroom
  EXPECT_LT(failures, 200u); // but some land under it
}

TEST(SimTransport, ExplicitBlackholeNeverAnswers) {
  TransportSpec spec;
  spec.blackhole_meters = {4, 7};
  const SimTransport t(spec, 11);
  EXPECT_TRUE(t.blackhole(4));
  EXPECT_TRUE(t.blackhole(7));
  EXPECT_FALSE(t.blackhole(5));
  for (std::size_t attempt = 0; attempt < 10; ++attempt) {
    const Exchange ex = t.exchange(4, 0, attempt, 1.0);
    ASSERT_FALSE(ex.ok);
    ASSERT_EQ(ex.elapsed_s, 1.0);
  }
}

TEST(SimTransport, BlackholeFractionSelectsRoughlyThatShare) {
  TransportSpec spec;
  spec.blackhole_fraction = 0.2;
  const SimTransport t(spec, 21);
  std::size_t dark = 0;
  constexpr std::size_t kMeters = 2000;
  for (std::size_t m = 0; m < kMeters; ++m) {
    if (t.blackhole(m)) ++dark;
  }
  EXPECT_NEAR(static_cast<double>(dark) / kMeters, 0.2, 0.03);
  // The draw is per-meter and stable: asking twice agrees.
  for (std::size_t m = 0; m < 100; ++m) {
    ASSERT_EQ(t.blackhole(m), t.blackhole(m));
  }
}

TEST(SimTransport, DuplicatesOnlyAccompanySuccess) {
  TransportSpec spec;
  spec.duplicate_prob = 0.5;
  spec.drop_prob = 0.3;
  const SimTransport t(spec, 33);
  std::size_t dups = 0;
  for (std::size_t chunk = 0; chunk < 500; ++chunk) {
    const Exchange ex = t.exchange(1, chunk, 0, 5.0);
    if (ex.duplicate) {
      ASSERT_TRUE(ex.ok);
      ++dups;
    }
  }
  EXPECT_GT(dups, 0u);
}

TEST(SimTransport, RejectsOutOfRangeSpecs) {
  TransportSpec bad;
  bad.drop_prob = 1.5;
  EXPECT_THROW(SimTransport(bad, 1), contract_error);
  bad = TransportSpec{};
  bad.duplicate_prob = -0.1;
  EXPECT_THROW(SimTransport(bad, 1), contract_error);
  bad = TransportSpec{};
  bad.blackhole_fraction = 2.0;
  EXPECT_THROW(SimTransport(bad, 1), contract_error);
  bad = TransportSpec{};
  bad.latency.base_s = -1.0;
  EXPECT_THROW(SimTransport(bad, 1), contract_error);
}

}  // namespace
}  // namespace pv
