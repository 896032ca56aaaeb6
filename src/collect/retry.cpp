#include "collect/retry.hpp"

#include <algorithm>
#include <cmath>

#include "util/expects.hpp"

namespace pv {

double backoff_delay_s(std::size_t retry, Rng& rng) {
  const double base =
      std::min(kBackoffMaxS,
               kBackoffInitialS *
                   std::pow(kBackoffMultiplier, static_cast<double>(retry)));
  return base * (1.0 + kBackoffJitterFrac * (2.0 * rng.uniform() - 1.0));
}

const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker(BreakerConfig config)
    : config_(config), next_cooldown_s_(config.cooldown_s) {
  PV_EXPECTS(config.open_after >= 1, "breaker must allow at least one failure");
  PV_EXPECTS(config.cooldown_s > 0.0 && config.cooldown_s <= kCooldownMaxS,
             "breaker cooldown must be in (0, 900] s");
}

bool CircuitBreaker::allow(double now_s) {
  if (!config_.enabled) return true;
  switch (state_) {
    case BreakerState::kClosed:
    case BreakerState::kHalfOpen:
      return true;
    case BreakerState::kOpen:
      if (now_s >= open_until_s_) {
        state_ = BreakerState::kHalfOpen;
        return true;
      }
      return false;
  }
  return true;
}

void CircuitBreaker::on_success() {
  state_ = BreakerState::kClosed;
  consecutive_failures_ = 0;
  next_cooldown_s_ = config_.cooldown_s;  // a healthy meter earns a reset
}

void CircuitBreaker::on_failure(double now_s) {
  if (!config_.enabled) return;
  if (state_ == BreakerState::kHalfOpen) {
    // The probe failed: the meter is still gone.  Back off harder.
    trip(now_s);
    return;
  }
  if (state_ == BreakerState::kClosed) {
    if (++consecutive_failures_ >= config_.open_after) trip(now_s);
  }
}

void CircuitBreaker::trip(double now_s) {
  state_ = BreakerState::kOpen;
  open_until_s_ = now_s + next_cooldown_s_;
  next_cooldown_s_ =
      std::min(kCooldownMaxS, next_cooldown_s_ * kCooldownMultiplier);
  consecutive_failures_ = 0;
  ++trips_;
}

}  // namespace pv
