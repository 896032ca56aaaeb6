#include "stats/rng.hpp"

#include <cmath>

#include "util/expects.hpp"

namespace pv {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  // Mix the stream id into the seeding chain; SplitMix64 guarantees any
  // 64-bit seed yields a full-quality state.
  SplitMix64 sm(stream_seed(seed, stream));
  for (auto& word : s_) word = sm.next();
  // All-zero state is the one invalid xoshiro state; SplitMix64 cannot
  // produce four consecutive zeros, but keep the guard explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  PV_EXPECTS(lo <= hi, "uniform(lo, hi) needs lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  PV_EXPECTS(n > 0, "uniform_index needs n > 0");
  // Lemire (2019): multiply-shift with rejection of the biased low range.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0ULL - n) % n;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Marsaglia polar method: exact, branch-light, no trig.
  double u, v, s;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double sd) {
  PV_EXPECTS(sd >= 0.0, "standard deviation must be non-negative");
  return mean + sd * normal();
}

bool Rng::bernoulli(double p) {
  PV_EXPECTS(p >= 0.0 && p <= 1.0, "bernoulli probability outside [0,1]");
  return uniform() < p;
}

namespace zignor {
namespace {

// Doornik's zigNorInit: the block edges from the top of the tail upward,
// each block's width chosen so its area is kV.
Tables build_tables() {
  Tables t{};
  double f = std::exp(-0.5 * kR * kR);
  t.x[0] = kV / f;
  t.x[1] = kR;
  t.x[kBlocks] = 0.0;
  for (int i = 2; i < kBlocks; ++i) {
    t.x[i] = std::sqrt(-2.0 * std::log(kV / t.x[i - 1] + f));
    f = std::exp(-0.5 * t.x[i] * t.x[i]);
  }
  for (int i = 0; i < kBlocks; ++i) t.r[i] = t.x[i + 1] / t.x[i];
  return t;
}

// A uniform in (0, 1) — never 0, so its log is finite.
double open_unit(std::uint64_t w) {
  return (static_cast<double>(w >> 12) + 0.5) * 0x1.0p-52;
}

}  // namespace

const Tables kTables = build_tables();

double rejected(std::uint64_t w, double u, unsigned block) {
  SplitMix64 sub(w);
  for (;;) {
    if (block == 0) {
      // The tail beyond kR (Marsaglia 1964): exponential proposals.
      double x, y;
      do {
        x = std::log(open_unit(sub.next())) / kR;
        y = std::log(open_unit(sub.next()));
      } while (-2.0 * y < x * x);
      return u < 0.0 ? x - kR : kR - x;
    }
    // The wedge of block `block`: accept x when a height uniform between
    // f(x[block]) and f(x[block+1]) falls under f(x).
    const double x = u * kTables.x[block];
    const double f0 =
        std::exp(-0.5 * (kTables.x[block] * kTables.x[block] - x * x));
    const double f1 = std::exp(
        -0.5 * (kTables.x[block + 1] * kTables.x[block + 1] - x * x));
    if (f1 + open_unit(sub.next()) * (f0 - f1) < 1.0) return x;
    // Rejected: a fresh word, through the rectangle test again.
    const std::uint64_t next = sub.next();
    block = block_of(next);
    u = signed_unit(next);
    if (std::fabs(u) < kTables.r[block]) return u * kTables.x[block];
  }
}

}  // namespace zignor

}  // namespace pv
