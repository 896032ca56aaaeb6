// Unit tests for the xoshiro256** RNG wrapper, and a battery with known
// answers for the meter-noise generator: SplitMix64 against Vigna's
// reference outputs, the ZIGNOR tables against their defining areas, and
// the noise draws against the normal distribution's moments, tail mass,
// goodness-of-fit tests and independence across lags, streams and seeds.

#include "stats/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "stats/normality.hpp"
#include "stats/special.hpp"
#include "util/expects.hpp"

namespace pv {
namespace {

TEST(SplitMix, KnownSequenceIsDeterministic) {
  SplitMix64 a(12345);
  SplitMix64 b(12345);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DeterministicForSameSeedAndStream) {
  Rng a(7, 3);
  Rng b(7, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer) {
  Rng a(7, 0);
  Rng b(7, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, SeedsDiffer) {
  Rng a(1, 0);
  Rng b(2, 0);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(5);
  double acc = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / kN, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-5.0, 3.0);
    ASSERT_GE(u, -5.0);
    ASSERT_LT(u, 3.0);
  }
  EXPECT_THROW(rng.uniform(2.0, 1.0), contract_error);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(13);
  constexpr std::uint64_t kRange = 7;
  std::vector<int> counts(kRange, 0);
  constexpr int kN = 70000;
  for (int i = 0; i < kN; ++i) ++counts[rng.uniform_index(kRange)];
  for (std::uint64_t v = 0; v < kRange; ++v) {
    // Expected 10000 each; 5 sigma ~ 470.
    EXPECT_NEAR(counts[v], kN / static_cast<int>(kRange), 500) << "value " << v;
  }
  EXPECT_THROW(rng.uniform_index(0), contract_error);
}

TEST(Rng, UniformIndexOfOneIsZero) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(23);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.01);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.02);
}

TEST(Rng, NormalWithParameters) {
  Rng rng(29);
  double sum = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += rng.normal(100.0, 5.0);
  EXPECT_NEAR(sum / kN, 100.0, 0.2);
  EXPECT_THROW(rng.normal(0.0, -1.0), contract_error);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
  EXPECT_THROW(rng.bernoulli(1.5), contract_error);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  SUCCEED();
}

// ---------------------------------------------------------------------------
// The meter-noise generator.

TEST(SplitMix, MatchesTheReferenceImplementation) {
  // The first outputs of Vigna's splitmix64.c seeded with 1234567.
  SplitMix64 sm(1234567);
  EXPECT_EQ(sm.next(), 6457827717110365317ULL);
  EXPECT_EQ(sm.next(), 3203168211198807973ULL);
  EXPECT_EQ(sm.next(), 9817491932198370423ULL);
  EXPECT_EQ(sm.next(), 4593380528125082431ULL);
  EXPECT_EQ(sm.next(), 16408922859458223821ULL);
}

TEST(NoiseStream, RandomAccessWordsAreTheSplitMixSequence) {
  const NoiseStream noise(0xBADCAB1EULL, 42);
  SplitMix64 sm(noise.origin());
  for (std::uint64_t k = 0; k < 16; ++k) EXPECT_EQ(noise.word(k), sm.next());
  // Pure in (origin, k): read in any order, any number of times.
  const NoiseStream copy = noise;
  for (std::uint64_t k = 1000; k-- > 990;) {
    EXPECT_EQ(noise.normal(k), copy.normal(k));
  }
  static_assert(sizeof(NoiseStream) == 8);
}

TEST(NoiseStream, OriginIsKeyedBySeedAndStream) {
  EXPECT_EQ(NoiseStream(7, 3).origin(), NoiseStream(7, 3).origin());
  EXPECT_NE(NoiseStream(7, 3).origin(), NoiseStream(7, 4).origin());
  EXPECT_NE(NoiseStream(7, 3).origin(), NoiseStream(8, 3).origin());
  EXPECT_EQ(NoiseStream(7, 3).origin(),
            SplitMix64(stream_seed(7, 3)).next());
}

// Unnormalized density of the ziggurat.
double zig_f(double x) { return std::exp(-0.5 * x * x); }

TEST(Zignor, TablesHaveTheirDefiningShape) {
  const zignor::Tables& t = zignor::kTables;
  EXPECT_EQ(t.x[1], zignor::kR);
  EXPECT_EQ(t.x[zignor::kBlocks], 0.0);
  for (int i = 0; i < zignor::kBlocks; ++i) {
    EXPECT_GT(t.x[i], t.x[i + 1]) << "block " << i;
    EXPECT_EQ(t.r[i], t.x[i + 1] / t.x[i]) << "block " << i;
  }
  // Every block above the base has area V.
  for (int i = 1; i < zignor::kBlocks; ++i) {
    const double area = t.x[i] * (zig_f(t.x[i + 1]) - zig_f(t.x[i]));
    EXPECT_NEAR(area / zignor::kV, 1.0, 1e-8) << "block " << i;
  }
  // The base block: its rectangle plus the tail beyond R is V too.
  const double tail =
      std::sqrt(0.5 * M_PI) * std::erfc(zignor::kR / std::sqrt(2.0));
  EXPECT_NEAR((zignor::kR * zig_f(zignor::kR) + tail) / zignor::kV, 1.0,
              1e-12);
  EXPECT_DOUBLE_EQ(t.x[0] * zig_f(zignor::kR), zignor::kV);
}

// 10^6 draws: 1000 streams of one seed, 1000 consecutive draws each,
// stored stream-major.
constexpr std::size_t kStreams = 1000;
constexpr std::size_t kDraws = 1000;

std::vector<double> noise_block(std::uint64_t seed) {
  std::vector<double> z(kStreams * kDraws);
  for (std::size_t s = 0; s < kStreams; ++s) {
    const NoiseStream noise(seed, s);
    for (std::size_t k = 0; k < kDraws; ++k) {
      z[s * kDraws + k] = noise.normal(k);
    }
  }
  return z;
}

// Pearson correlation of the pairs (a[i], b[i]).
double correlation(const std::vector<double>& a, const std::vector<double>& b) {
  const double n = static_cast<double>(a.size());
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sab += (a[i] - ma) * (b[i] - mb);
    saa += (a[i] - ma) * (a[i] - ma);
    sbb += (b[i] - mb) * (b[i] - mb);
  }
  return sab / std::sqrt(saa * sbb);
}

// |observed - n p| within 5 binomial standard deviations.
void expect_binomial(std::size_t observed, std::size_t n, double p,
                     const char* what) {
  const double nn = static_cast<double>(n);
  const double sd = std::sqrt(nn * p * (1.0 - p));
  EXPECT_NEAR(static_cast<double>(observed), nn * p, 5.0 * sd) << what;
}

TEST(ZignorBattery, MomentsMatchTheStandardNormal) {
  const std::vector<double> z = noise_block(0x5EED);
  const double n = static_cast<double>(z.size());
  double m1 = 0.0;
  for (const double x : z) m1 += x;
  m1 /= n;
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (const double x : z) {
    const double d = x - m1;
    m2 += d * d;
    m3 += d * d * d;
    m4 += d * d * d * d;
  }
  m2 /= n;
  m3 /= n;
  m4 /= n;
  const double skew = m3 / std::pow(m2, 1.5);
  const double kurt = m4 / (m2 * m2) - 3.0;
  // Five standard errors of each sample moment under N(0, 1).
  EXPECT_NEAR(m1, 0.0, 5.0 / std::sqrt(n));
  EXPECT_NEAR(m2, 1.0, 5.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(skew, 0.0, 5.0 * std::sqrt(6.0 / n));
  EXPECT_NEAR(kurt, 0.0, 5.0 * std::sqrt(24.0 / n));
}

TEST(ZignorBattery, NormalityTestsAccept) {
  const std::vector<double> z = noise_block(0xAD);
  const NormalityResult ad = anderson_darling(z);
  const NormalityResult jb = jarque_bera(z);
  EXPECT_TRUE(ad.consistent_with_normal(0.01))
      << "A*^2 = " << ad.statistic << ", p = " << ad.p_value;
  EXPECT_TRUE(jb.consistent_with_normal(0.01))
      << "JB = " << jb.statistic << ", p = " << jb.p_value;
}

TEST(ZignorBattery, BinnedDensityFitsTheNormal) {
  // Chi-square over 184 bins of width 0.05 on [-4.6, 4.6] plus the two
  // tails, accepted at 0.1%.
  const std::vector<double> z = noise_block(0xB1);
  constexpr int kBins = 184;
  constexpr double kLo = -4.6;
  constexpr double kWidth = 0.05;
  std::vector<std::size_t> count(kBins + 2, 0);
  for (const double x : z) {
    const double pos = (x - kLo) / kWidth;
    const int bin = pos < 0.0 ? 0
                    : pos >= kBins ? kBins + 1
                                   : 1 + static_cast<int>(pos);
    ++count[static_cast<std::size_t>(bin)];
  }
  const double n = static_cast<double>(z.size());
  double chi2 = 0.0;
  for (int b = 0; b < kBins + 2; ++b) {
    const double lo = b == 0 ? -INFINITY : kLo + kWidth * (b - 1);
    const double hi = b == kBins + 1 ? INFINITY : kLo + kWidth * b;
    const double expected = n * (norm_cdf(hi) - norm_cdf(lo));
    const double d = static_cast<double>(count[static_cast<std::size_t>(b)]) -
                     expected;
    chi2 += d * d / expected;
  }
  EXPECT_GT(chi_square_sf(chi2, kBins + 1), 0.001) << "chi2 = " << chi2;
}

TEST(ZignorBattery, TailMassAndFastPathShareMatchTheirProbabilities) {
  std::size_t tail = 0;
  std::size_t fast = 0;
  std::size_t n = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    const NoiseStream noise(0x7A11, s);
    for (std::size_t k = 0; k < kDraws; ++k, ++n) {
      if (std::fabs(noise.normal(k)) > zignor::kR) ++tail;
      // The rectangle test zignor::normal makes on the word.
      const std::uint64_t w = noise.word(k);
      if (std::fabs(zignor::signed_unit(w)) <
          zignor::kTables.r[zignor::block_of(w)]) {
        ++fast;
      }
    }
  }
  expect_binomial(tail, n, 2.0 * norm_cdf(-zignor::kR), "mass beyond R");
  double share = 0.0;
  for (const double r : zignor::kTables.r) share += r;
  share /= zignor::kBlocks;
  EXPECT_NEAR(share, 0.9724, 1e-4);
  expect_binomial(fast, n, share, "fast-path share");
}

TEST(ZignorBattery, DrawsAreUncorrelatedAcrossLagsStreamsAndSeeds) {
  const std::vector<double> z = noise_block(0xC0);
  const std::vector<double> other_seed = noise_block(0xC1);
  std::vector<double> a, b;
  // Lag 1 within each stream.
  for (std::size_t s = 0; s < kStreams; ++s) {
    for (std::size_t k = 0; k + 1 < kDraws; ++k) {
      a.push_back(z[s * kDraws + k]);
      b.push_back(z[s * kDraws + k + 1]);
    }
  }
  EXPECT_NEAR(correlation(a, b), 0.0, 5.0 / std::sqrt(a.size())) << "lag 1";
  // Neighbouring streams at the same draw index.
  a.clear();
  b.clear();
  for (std::size_t s = 0; s + 1 < kStreams; ++s) {
    for (std::size_t k = 0; k < kDraws; ++k) {
      a.push_back(z[s * kDraws + k]);
      b.push_back(z[(s + 1) * kDraws + k]);
    }
  }
  EXPECT_NEAR(correlation(a, b), 0.0, 5.0 / std::sqrt(a.size()))
      << "cross-stream";
  // The same stream and index under another seed.
  EXPECT_NEAR(correlation(z, other_seed), 0.0, 5.0 / std::sqrt(z.size()))
      << "cross-seed";
}

}  // namespace
}  // namespace pv
