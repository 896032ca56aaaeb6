#include "collect/transport.hpp"

#include <algorithm>
#include <cmath>

#include "util/expects.hpp"

namespace pv {
namespace {

constexpr std::uint64_t kTransportSalt = 0x7A4E5B0C17ULL;
constexpr std::uint64_t kBlackholeSalt = 0xB1ACC40E5ULL;

}  // namespace

// Collision-resistant-enough mixing of an exchange identity into one
// stream id, so every (meter, chunk, attempt) triple gets an independent
// RNG stream regardless of how many chunks or attempts other meters used.
std::uint64_t mix_streams(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  SplitMix64 ma(a + 0x243F6A8885A308D3ULL);
  SplitMix64 mb(ma.next() ^ (b + 0x13198A2E03707344ULL));
  SplitMix64 mc(mb.next() ^ (c + 0xA4093822299F31D0ULL));
  return mc.next();
}

double LatencyModel::draw(Rng& rng) const {
  double lat = base_s + rng.uniform(0.0, std::max(0.0, jitter_s));
  if (rng.bernoulli(kLatencyTailProb)) {
    lat += -kLatencyTailScaleS * std::log(1.0 - rng.uniform());
  }
  return lat;
}

SimTransport::SimTransport(TransportSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {
  PV_EXPECTS(spec_.drop_prob >= 0.0 && spec_.drop_prob <= 1.0,
             "drop probability must be in [0, 1]");
  PV_EXPECTS(spec_.duplicate_prob >= 0.0 && spec_.duplicate_prob <= 1.0,
             "duplicate probability must be in [0, 1]");
  PV_EXPECTS(spec_.blackhole_fraction >= 0.0 && spec_.blackhole_fraction <= 1.0,
             "blackhole fraction must be in [0, 1]");
  PV_EXPECTS(spec_.latency.base_s >= 0.0 && spec_.latency.jitter_s >= 0.0,
             "latency model parameters out of range");
}

bool SimTransport::blackhole(std::size_t meter_id) const {
  if (std::find(spec_.blackhole_meters.begin(), spec_.blackhole_meters.end(),
                meter_id) != spec_.blackhole_meters.end()) {
    return true;
  }
  if (spec_.blackhole_fraction <= 0.0) return false;
  Rng rng(seed_ ^ kBlackholeSalt, meter_id);
  return rng.uniform() < spec_.blackhole_fraction;
}

Exchange SimTransport::exchange(std::size_t meter_id, std::size_t chunk,
                                std::size_t attempt,
                                double timeout_s) const {
  PV_EXPECTS(timeout_s > 0.0, "exchange timeout must be positive");
  Exchange ex;
  if (blackhole(meter_id)) {
    ex.elapsed_s = timeout_s;
    return ex;
  }
  Rng rng(seed_ ^ kTransportSalt, mix_streams(meter_id, chunk, attempt));
  const double lat = spec_.latency.draw(rng);
  const bool dropped = rng.bernoulli(spec_.drop_prob);
  const bool dup = rng.bernoulli(spec_.duplicate_prob);
  if (dropped || lat >= timeout_s) {
    // The caller cannot tell a lost request from a slow reply: either way
    // it waits out its full deadline.
    ex.elapsed_s = timeout_s;
    return ex;
  }
  ex.ok = true;
  ex.elapsed_s = lat;
  ex.duplicate = dup;
  return ex;
}

}  // namespace pv
