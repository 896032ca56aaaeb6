#pragma once
// Simulated meter transport: the lossy channel between a poller and a
// meter.
//
// Real campaigns read meters over BMC/IPMI, SNMP or serial PDU channels
// that add latency, lose requests, and occasionally answer twice.  The
// paper's submission rules silently assume this path works; production
// experience (Cray PMDB validation, flux-power-monitor's polling loops)
// says it is where collections actually die.  SimTransport models that
// channel with seeded, per-exchange randomness so every retry storm is
// bit-reproducible: the outcome of (meter, chunk, attempt) is a pure
// function of the campaign seed, independent of thread interleaving and
// of whatever happened before — which is also what makes kill-and-resume
// collections replay identically.
//
// Time is virtual.  An exchange *charges* the caller its latency (or the
// full timeout) rather than sleeping, so a simulated hour of flaky
// polling costs milliseconds of real CPU while preserving the wall-clock
// arithmetic the circuit-breaker contract is about.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/rng.hpp"

namespace pv {

/// Mixes up to three identity components (meter id, chunk, attempt) into
/// one RNG stream id so every exchange/chunk gets an independent stream.
[[nodiscard]] std::uint64_t mix_streams(std::uint64_t a, std::uint64_t b,
                                        std::uint64_t c = 0);

/// The latency model's heavy tail (the overloaded-BMC case): a reply
/// comes from a slow meter moment with probability kLatencyTailProb and
/// then waits an extra exponential delay of scale kLatencyTailScaleS.
inline constexpr double kLatencyTailProb = 0.02;
inline constexpr double kLatencyTailScaleS = 0.3;

/// Reply-latency distribution: a fixed floor plus uniform jitter plus the
/// occasional exponential tail above.
struct LatencyModel {
  double base_s = 0.02;    ///< minimum round trip
  double jitter_s = 0.03;  ///< uniform extra, U(0, jitter)

  /// Draws one reply latency.
  [[nodiscard]] double draw(Rng& rng) const;
};

/// Fault model of the collection channel.  Default-constructed == a
/// perfect network with the default latency floor.
struct TransportSpec {
  LatencyModel latency;
  double drop_prob = 0.0;       ///< request or reply lost -> caller times out
  double duplicate_prob = 0.0;  ///< reply delivered twice (dedup downstream)
  /// Fraction of meters that never answer any request (seeded draw per
  /// meter id) — the "20% of meters time out on every poll" scenario.
  double blackhole_fraction = 0.0;
  /// Specific meter ids forced to never answer (deterministic scenarios;
  /// the collector also routes FaultPlan::dead_meters here).
  std::vector<std::size_t> blackhole_meters;
};

/// What one request/reply exchange did.
struct Exchange {
  bool ok = false;         ///< reply arrived inside the deadline
  double elapsed_s = 0.0;  ///< latency charged (full timeout on failure)
  bool duplicate = false;  ///< the reply also arrived a second time
};

/// Seeded simulated transport shared by every poller of a campaign.
/// Stateless between calls: safe to use from any thread.
class SimTransport {
 public:
  SimTransport(TransportSpec spec, std::uint64_t seed);

  /// Performs one exchange for `meter_id`'s chunk `chunk`, attempt
  /// `attempt`, with the caller willing to wait `timeout_s`.  Outcomes are
  /// deterministic per (seed, meter, chunk, attempt).
  [[nodiscard]] Exchange exchange(std::size_t meter_id, std::size_t chunk,
                                  std::size_t attempt, double timeout_s) const;

  /// Whether this meter answers at all (blackhole list or seeded draw).
  [[nodiscard]] bool blackhole(std::size_t meter_id) const;

  [[nodiscard]] const TransportSpec& spec() const { return spec_; }

 private:
  TransportSpec spec_;
  std::uint64_t seed_;
};

}  // namespace pv
