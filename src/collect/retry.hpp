#pragma once
// Retry policy and per-meter circuit breaker for the collection path.
//
// A flaky meter must be retried (transient losses are common and cheap to
// recover); a dead meter must *stop* being retried (every retry burns a
// full timeout of poll budget that healthy meters could have used).  The
// standard production answer is capped exponential backoff between
// attempts plus a circuit breaker per endpoint:
//
//   closed ──(N consecutive failures)──> open
//   open   ──(cooldown elapses)────────> half-open
//   half-open ──success──> closed        (cooldown resets)
//   half-open ──failure──> open          (cooldown doubles, capped at 900 s)
//
// While open, requests are rejected instantly — no timeout is paid — so a
// meter that never answers costs O(failures-to-open + log(run length))
// timeouts instead of one per poll.  That bound is what keeps campaign
// wall clock within a small factor of the fault-free run even when a
// fifth of the fleet is unreachable (the bench_collection_resilience
// contract).
//
// Backoff jitter is drawn from a seeded Rng, not wall clock, so identical
// campaigns schedule identical retries.

#include <cstddef>

#include "stats/rng.hpp"

namespace pv {

/// Capped exponential backoff between a chunk's attempts: retry r waits
/// min(kBackoffMaxS, kBackoffInitialS * kBackoffMultiplier^r), scaled by
/// a factor drawn uniformly from 1 +/- kBackoffJitterFrac.
inline constexpr double kBackoffInitialS = 0.25;
inline constexpr double kBackoffMultiplier = 2.0;
inline constexpr double kBackoffMaxS = 4.0;
inline constexpr double kBackoffJitterFrac = 0.1;

/// Delay inserted before retry number `retry` (0-based), its jitter drawn
/// from the seeded `rng`.
[[nodiscard]] double backoff_delay_s(std::size_t retry, Rng& rng);

/// A half-open breaker whose probe fails reopens for its last cooldown
/// times kCooldownMultiplier, at most kCooldownMaxS.
inline constexpr double kCooldownMultiplier = 2.0;
inline constexpr double kCooldownMaxS = 900.0;

/// Circuit-breaker tuning.
struct BreakerConfig {
  bool enabled = true;
  std::size_t open_after = 3;  ///< consecutive failures to trip
  double cooldown_s = 60.0;    ///< first open period, at most kCooldownMaxS
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

[[nodiscard]] const char* to_string(BreakerState s);

/// Per-meter breaker over a virtual clock (seconds since collection
/// start).  Not thread-safe: each meter's poller owns its breaker.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig config);

  /// Whether a request may be issued at virtual time `now_s`.  An open
  /// breaker whose cooldown has elapsed transitions to half-open and
  /// admits the probe.
  [[nodiscard]] bool allow(double now_s);

  /// Records a successful exchange: closes a half-open breaker and resets
  /// the failure count and cooldown escalation.
  void on_success();

  /// Records a failed exchange ending at virtual time `now_s`: trips a
  /// closed breaker after `open_after` consecutive failures; re-opens a
  /// half-open breaker with an escalated cooldown.
  void on_failure(double now_s);

  [[nodiscard]] BreakerState state() const { return state_; }
  /// Transitions into the open state so far.
  [[nodiscard]] std::size_t trips() const { return trips_; }
  [[nodiscard]] double open_until_s() const { return open_until_s_; }

 private:
  void trip(double now_s);

  BreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  std::size_t consecutive_failures_ = 0;
  double open_until_s_ = 0.0;
  double next_cooldown_s_ = 0.0;
  std::size_t trips_ = 0;
};

}  // namespace pv
