#pragma once
// Deterministic, splittable pseudo-random generation.
//
// Every stochastic component in the library draws from a generator seeded
// from an (experiment seed, stream id) pair, so fleet simulations are
// reproducible bit-for-bit regardless of thread count: node i always uses
// stream i.
//
// Two generators share that keying:
//   * Rng — xoshiro256** (Blackman & Vigna, public domain algorithm),
//     seeded through SplitMix64 as its authors recommend.  A sequential
//     stream for everything drawn a few times per device: calibration,
//     fault fates and processes, workload noise, fleet generation.  It
//     satisfies std::uniform_random_bit_generator, so it composes with
//     <random> distributions, but the helpers below avoid
//     libstdc++-specific distribution quirks for the few distributions we
//     rely on for calibration.
//   * NoiseStream — per-sample meter noise.  Draw k is Doornik's ZIGNOR
//     ziggurat over the (k+1)-th output of SplitMix64, which is
//     random-access (state k is origin + k·gamma), so draw k is a pure
//     function of (origin, k).  The stream is an immutable 8-byte origin:
//     no path has to consume a meter's noise in sample order, and a
//     retried, re-polled or re-chunked sample sees the same value.
//     normal_block draws a block of consecutive indices across a row of
//     streams, the fused fleet kernel's access pattern, sample-major.  On
//     CPUs with AVX-512 F+DQ (checked once, at the first call) it runs
//     64-lane groups: a group's origins stay in registers across the
//     block's samples, and each lane-sample is SplitMix64 with 64-bit
//     vector multiplies, the block index, the uniform and the rectangle
//     test on the scalar draw's operations in the scalar draw's order, so
//     every lane that passes gets the scalar value.  The lane-samples that
//     fail (about 2.8%) are listed as (sample, lane) entries and settled
//     eight at a time: the wedge test on the scalar draw's operands with a
//     polynomial exp (kWedgeExp), decided only outside a band of 2^-30
//     around 1 that the polynomial's error cannot cross, then the retry
//     word's rectangle test.  The tail, the band and failed retries (about
//     0.09% of words) are redrawn through the scalar draw.  Elsewhere it
//     is the per-lane loop.

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

namespace pv {

/// SplitMix64 (Vigna): a tiny 64-bit generator used for seeding and, read
/// at random access, as the noise streams' counter-based source.
class SplitMix64 {
 public:
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() { return mix(state_ += kGamma); }

  /// The output finalizer: next() returns mix(seed + k·kGamma) on its
  /// k-th call (k from 1), so any output can be computed directly.
  static constexpr std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// The SplitMix64 seed of stream `stream` under `seed`.  Different streams
/// of the same seed are statistically independent.
constexpr std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return seed ^ (0xA3C59AC2F1D3B8E5ULL * (stream + 1));
}

/// xoshiro256**: the library-wide sequential PRNG.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state via SplitMix64 from stream_seed(seed,
  /// stream).
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }
  std::uint64_t next();

  /// Uniform double in [0, 1) with 53 bits of mantissa.
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n); n must be > 0.  Uses Lemire's unbiased
  /// multiply-shift rejection method.
  std::uint64_t uniform_index(std::uint64_t n);
  /// Standard normal deviate (Marsaglia polar method, cached pair).
  double normal();
  /// Normal deviate with the given mean and standard deviation (sd >= 0).
  double normal(double mean, double sd);
  /// True with probability p (p in [0, 1]).
  bool bernoulli(double p);

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Doornik's ZIGNOR ziggurat ("An Improved Ziggurat Method to Generate
/// Normal Random Samples", 2005) with 128 blocks.  Unlike the 32-bit
/// Marsaglia–Tsang original, the block index and the uniform come from
/// disjoint bits of one 64-bit word.
namespace zignor {

inline constexpr int kBlocks = 128;
/// Start of the tail: the right edge of the bottom block's rectangle.
inline constexpr double kR = 3.442619855899;
/// Area of every block, the bottom one including the tail beyond kR
/// (for the unnormalized density f(x) = exp(-x²/2)).
inline constexpr double kV = 9.91256303526217e-3;

/// x[0] = V/f(R) is the bottom block's width, x[1] = R, x[kBlocks] = 0;
/// block i spans heights f(x[i])..f(x[i+1]) at width x[i], and
/// r[i] = x[i+1]/x[i] is the share of it under the curve at every height.
struct Tables {
  double x[kBlocks + 1];
  double r[kBlocks];
};

/// The tables, built once at start-up from kR and kV.
extern const Tables kTables;

/// The draw's rejection path: the wedge test, the tail, and retries, all
/// continuing on a SplitMix64 sub-stream seeded by the rejected word `w`.
[[nodiscard]] double rejected(std::uint64_t w, double u, unsigned block);

/// A word's block index: bits 6..0.
inline unsigned block_of(std::uint64_t w) {
  return static_cast<unsigned>(w & 0x7F);
}

/// A word's uniform in [-1, 1): bits 63..11, disjoint from the block's.
inline double signed_unit(std::uint64_t w) {
  return 2.0 * (static_cast<double>(w >> 11) * 0x1.0p-53) - 1.0;
}

/// A word's uniform in (0, 1): bits 63..12.  Never 0, so its log is
/// finite; the rejection path draws its heights and tail proposals so.
inline double open_unit(std::uint64_t w) {
  return (static_cast<double>(w >> 12) + 0.5) * 0x1.0p-52;
}

/// The vector block's stand-in for exp in the wedge test: the Taylor
/// coefficients 1/n! of exp, n = 0..kWedgeExpDegree, evaluated by Horner's
/// rule with fused multiply-adds.  The wedge exponents of blocks 1..127
/// lie within +-0.7317, where it is within 2^-50 of exp, relative, so a
/// sum f1 + U·(f0 - f1) formed from it lies within 2^-30 of the scalar
/// draw's, and every lane outside that band takes the scalar draw's
/// branch.
inline constexpr int kWedgeExpDegree = 15;
inline constexpr std::array<double, kWedgeExpDegree + 1> kWedgeExp = [] {
  std::array<double, kWedgeExpDegree + 1> c{};
  c[0] = 1.0;
  for (int n = 1; n <= kWedgeExpDegree; ++n) c[n] = c[n - 1] / n;
  return c;
}();

/// One standard normal from one 64-bit word.  About 97% of words return
/// from the rectangle test below without touching the slow path.
inline double normal(std::uint64_t w) {
  const unsigned block = block_of(w);
  const double u = signed_unit(w);
  if (std::fabs(u) < kTables.r[block]) return u * kTables.x[block];
  return rejected(w, u, block);
}

}  // namespace zignor

/// A meter's per-sample noise: draw k (k the meter-global sample index)
/// is a pure function of the stream's origin and k.  Copyable, immutable
/// and 8 bytes, so fleet tables hold one per lane and any thread, chunk
/// or retry can read any sample's draw.
class NoiseStream {
 public:
  /// The stream of `stream` under `seed`: its origin is the first word
  /// Rng(seed, stream) would seed its state with.
  explicit NoiseStream(std::uint64_t seed, std::uint64_t stream = 0)
      : origin_(SplitMix64(stream_seed(seed, stream)).next()) {}

  [[nodiscard]] std::uint64_t origin() const { return origin_; }

  /// The SplitMix64 word feeding draw k: the (k+1)-th output of
  /// SplitMix64(origin).
  [[nodiscard]] std::uint64_t word(std::uint64_t k) const {
    return SplitMix64::mix(origin_ + (k + 1) * SplitMix64::kGamma);
  }

  /// Standard normal draw k.
  [[nodiscard]] double normal(std::uint64_t k) const {
    return zignor::normal(word(k));
  }

 private:
  std::uint64_t origin_;
};

/// Draws k0 .. k0 + samples - 1 of every lane, sample-major:
/// out[s * lanes.size() + i] = lanes[i].normal(k0 + s), bit for bit (the
/// indices wrap modulo 2^64, as normal's do).  `out` must hold
/// samples * lanes.size() values, and neither count may exceed 2^32 - 1
/// (contract_error otherwise).
void normal_block(std::span<const NoiseStream> lanes, std::uint64_t k0,
                  std::size_t samples, std::span<double> out);

/// The path normal_block takes on this CPU: "avx512" or "per-lane".
[[nodiscard]] const char* normal_block_path();

}  // namespace pv
