// Tests for capped exponential backoff and the per-meter circuit breaker.

#include "collect/retry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "util/expects.hpp"

namespace pv {
namespace {

// The constant schedule's nominal delay before retry r: min(4, 0.25 * 2^r).
double nominal_delay_s(std::size_t retry) {
  return std::min(4.0, 0.25 * std::ldexp(1.0, static_cast<int>(retry)));
}

TEST(BackoffPolicy, GrowsExponentiallyUpToTheCap) {
  // 0.25, 0.5, 1, 2 s, then the 4 s cap from retry 4 on, each within
  // +/-10% jitter.
  Rng rng(1);
  for (std::size_t r = 0; r <= 6; ++r) {
    const double d = backoff_delay_s(r, rng);
    EXPECT_GE(d, 0.9 * nominal_delay_s(r)) << "retry " << r;
    EXPECT_LE(d, 1.1 * nominal_delay_s(r)) << "retry " << r;
  }
  const double late = backoff_delay_s(30, rng);  // stays capped
  EXPECT_GE(late, 0.9 * 4.0);
  EXPECT_LE(late, 1.1 * 4.0);
}

TEST(BackoffPolicy, JitterStaysWithinItsFraction) {
  // Every draw lies within +/-10% of the nominal delay, and the draws
  // spread over that band rather than sitting at its centre.
  Rng rng(2);
  for (std::size_t r = 0; r <= 6; ++r) {
    double lo = 2.0;
    double hi = 0.0;
    for (int i = 0; i < 1000; ++i) {
      const double ratio = backoff_delay_s(r, rng) / nominal_delay_s(r);
      ASSERT_GE(ratio, 0.9) << "retry " << r;
      ASSERT_LE(ratio, 1.1) << "retry " << r;
      lo = std::min(lo, ratio);
      hi = std::max(hi, ratio);
    }
    EXPECT_LT(lo, 0.91) << "retry " << r;
    EXPECT_GT(hi, 1.09) << "retry " << r;
  }
}

TEST(BackoffPolicy, JitterIsDeterministicPerSeed) {
  Rng a(7), b(7);
  for (std::size_t r = 0; r < 20; ++r) {
    ASSERT_EQ(backoff_delay_s(r, a), backoff_delay_s(r, b));
  }
}

BreakerConfig quick_breaker() {
  BreakerConfig c;
  c.open_after = 3;
  c.cooldown_s = 10.0;
  return c;
}

TEST(CircuitBreaker, TripsAfterConsecutiveFailures) {
  CircuitBreaker b(quick_breaker());
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  b.on_failure(1.0);
  b.on_failure(2.0);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_TRUE(b.allow(2.5));
  b.on_failure(3.0);  // third consecutive failure
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.trips(), 1u);
  EXPECT_DOUBLE_EQ(b.open_until_s(), 13.0);
  EXPECT_FALSE(b.allow(5.0));  // rejected instantly while open
}

TEST(CircuitBreaker, SuccessResetsTheFailureCount) {
  CircuitBreaker b(quick_breaker());
  b.on_failure(1.0);
  b.on_failure(2.0);
  b.on_success();  // interleaved success: not "consecutive" any more
  b.on_failure(3.0);
  b.on_failure(4.0);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.trips(), 0u);
}

TEST(CircuitBreaker, HalfOpenProbeSuccessCloses) {
  CircuitBreaker b(quick_breaker());
  b.on_failure(0.0);
  b.on_failure(0.0);
  b.on_failure(0.0);
  ASSERT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_FALSE(b.allow(9.9));
  EXPECT_TRUE(b.allow(10.0));  // cooldown elapsed -> probe admitted
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  b.on_success();
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  // The cooldown escalation was reset: a fresh trip opens for 10 s again.
  b.on_failure(20.0);
  b.on_failure(20.0);
  b.on_failure(20.0);
  EXPECT_DOUBLE_EQ(b.open_until_s(), 30.0);
}

TEST(CircuitBreaker, FailedProbeEscalatesTheCooldownCapped) {
  // Each failed probe doubles the cooldown, up to the 900 s cap:
  // 100, 200, 400, 800, then 900 for good.
  BreakerConfig c = quick_breaker();
  c.cooldown_s = 100.0;
  CircuitBreaker b(c);
  b.on_failure(0.0);
  b.on_failure(0.0);
  b.on_failure(0.0);  // trip 1: open for 100 s
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_DOUBLE_EQ(b.open_until_s(), 100.0);
  double now = 100.0;
  for (const double cooldown : {200.0, 400.0, 800.0, 900.0, 900.0}) {
    ASSERT_FALSE(b.allow(now - 1.0));
    ASSERT_TRUE(b.allow(now));  // half-open probe
    b.on_failure(now);          // fails: reopen, escalated
    EXPECT_EQ(b.state(), BreakerState::kOpen);
    EXPECT_DOUBLE_EQ(b.open_until_s(), now + cooldown);
    now += cooldown;
  }
  EXPECT_EQ(b.trips(), 6u);
}

TEST(CircuitBreaker, DisabledBreakerNeverBlocks) {
  BreakerConfig c = quick_breaker();
  c.enabled = false;
  CircuitBreaker b(c);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(b.allow(0.0));
    b.on_failure(0.0);
  }
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.trips(), 0u);
}

TEST(CircuitBreaker, RejectsNonsenseConfig) {
  BreakerConfig c = quick_breaker();
  c.open_after = 0;
  EXPECT_THROW(CircuitBreaker{c}, contract_error);
  c = quick_breaker();
  c.cooldown_s = 0.0;
  EXPECT_THROW(CircuitBreaker{c}, contract_error);
  c.cooldown_s = 901.0;  // a first cooldown above the escalation cap
  EXPECT_THROW(CircuitBreaker{c}, contract_error);
  c.cooldown_s = 900.0;
  EXPECT_NO_THROW(CircuitBreaker{c});
}

TEST(BreakerState, NamesAreStable) {
  EXPECT_EQ(std::string(to_string(BreakerState::kClosed)), "closed");
  EXPECT_EQ(std::string(to_string(BreakerState::kOpen)), "open");
  EXPECT_EQ(std::string(to_string(BreakerState::kHalfOpen)), "half-open");
}

}  // namespace
}  // namespace pv
