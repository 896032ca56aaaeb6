// Property tests for the mergeable quantile sketch (stats/sketch) and the
// fixed-capacity ring buffer (util/ring) the streaming assessment path is
// built from.
//
//   * rank-error bound — over seeded random and adversarial streams, the
//     reported q-quantile is within alpha relative error of the true
//     order statistic at floor(q * (n - 1));
//   * merge order never changes the result — Chan-style associativity:
//     any grouping and ordering of partial sketches yields the identical
//     state (integer counters), checked bit-for-bit via identical() and
//     on the reported quantile bits;
//   * sketch-of-full-stream equals merge-of-window-sketches bit-for-bit —
//     the exactness claim the per-window streaming engine relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "stats/sketch.hpp"
#include "util/ring.hpp"
#include "stats/rng.hpp"

namespace pv {
namespace {

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// True order statistic at the sketch's rank convention.
double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(xs.size() - 1));
  return xs[std::min(rank, xs.size() - 1)];
}

// The DDSketch guarantee: |est - true| <= alpha * |true|.  A hair of
// slack covers the double rounding in the bin-midpoint evaluation.
void expect_within_alpha(const QuantileSketch& sk,
                         const std::vector<double>& xs, double q,
                         const std::string& what) {
  const double truth = exact_quantile(xs, q);
  const double est = sk.quantile(q);
  EXPECT_LE(std::fabs(est - truth), sk.alpha() * std::fabs(truth) + 1e-12)
      << what << ": q=" << q << " true=" << truth << " est=" << est;
}

const double kQuantiles[] = {0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99,
                             1.0};

TEST(QuantileSketch, RankErrorBoundOnSeededRandomStreams) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    std::vector<double> xs;
    for (std::size_t i = 0; i < 5000; ++i) {
      // Node-power-like values spanning several orders of magnitude.
      xs.push_back(std::exp(4.0 + 4.0 * rng.uniform()));
    }
    QuantileSketch sk(0.01);
    sk.push(std::span<const double>(xs));
    ASSERT_EQ(sk.count(), xs.size());
    for (const double q : kQuantiles) {
      expect_within_alpha(sk, xs, q, "seed " + std::to_string(seed));
    }
  }
}

TEST(QuantileSketch, RankErrorBoundOnAdversarialStreams) {
  // Streams chosen to stress the binning: sorted both ways, constant,
  // geometric across the whole bin range, alternating huge/tiny, and
  // sign-mixed.
  std::vector<std::pair<std::string, std::vector<double>>> streams;
  {
    std::vector<double> asc;
    for (std::size_t i = 1; i <= 4000; ++i) {
      asc.push_back(static_cast<double>(i) * 0.37);
    }
    streams.emplace_back("sorted-ascending", asc);
    std::vector<double> desc(asc.rbegin(), asc.rend());
    streams.emplace_back("sorted-descending", desc);
  }
  streams.emplace_back("constant", std::vector<double>(1000, 432.5));
  {
    std::vector<double> geo;
    for (int k = -120; k <= 120; ++k) geo.push_back(std::pow(1.25, k));
    streams.emplace_back("geometric", geo);
  }
  {
    std::vector<double> alt;
    for (std::size_t i = 0; i < 1000; ++i) {
      alt.push_back(i % 2 == 0 ? 1e12 : 1e-12);
    }
    streams.emplace_back("huge-tiny-alternating", alt);
  }
  {
    std::vector<double> mixed;
    Rng rng(77);
    for (std::size_t i = 0; i < 3000; ++i) {
      const double mag = std::exp(6.0 * rng.uniform());
      mixed.push_back(rng.uniform() < 0.5 ? -mag : mag);
    }
    streams.emplace_back("sign-mixed", mixed);
  }
  for (const auto& [name, xs] : streams) {
    QuantileSketch sk(0.01);
    sk.push(std::span<const double>(xs));
    for (const double q : kQuantiles) expect_within_alpha(sk, xs, q, name);
  }
}

TEST(QuantileSketch, ExactMinMaxAndEdgeQuantiles) {
  QuantileSketch sk(0.02);
  const std::vector<double> xs = {3.0, -7.5, 1e6, 0.0, 42.0};
  sk.push(std::span<const double>(xs));
  // min/max are tracked exactly and clamp the estimates, so the extreme
  // quantiles are exact, not merely alpha-close.
  EXPECT_TRUE(bits_equal(sk.min(), -7.5));
  EXPECT_TRUE(bits_equal(sk.max(), 1e6));
  EXPECT_TRUE(bits_equal(sk.quantile(0.0), -7.5));
  EXPECT_TRUE(bits_equal(sk.quantile(1.0), 1e6));
}

TEST(QuantileSketch, MergeOrderNeverChangesTheResult) {
  // Build 8 partial sketches over different slices of one stream, then
  // merge them under several groupings/orders (left fold, right fold,
  // pairwise tree, interleaved).  All must be bit-identical.
  Rng rng(99);
  std::vector<std::vector<double>> parts(8);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const std::size_t len = 100 + 37 * p;
    for (std::size_t i = 0; i < len; ++i) {
      parts[p].push_back(350.0 + 120.0 * rng.uniform());
    }
  }
  const auto sketch_of = [&](const std::vector<double>& xs) {
    QuantileSketch sk(0.01);
    sk.push(std::span<const double>(xs));
    return sk;
  };

  QuantileSketch left(0.01);
  for (const auto& p : parts) left.merge(sketch_of(p));

  QuantileSketch right(0.01);
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    right.merge(sketch_of(*it));
  }

  // Pairwise tree: ((0+1)+(2+3)) + ((4+5)+(6+7)).
  std::vector<QuantileSketch> level;
  for (const auto& p : parts) level.push_back(sketch_of(p));
  while (level.size() > 1) {
    std::vector<QuantileSketch> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      QuantileSketch m = level[i];
      m.merge(level[i + 1]);
      next.push_back(m);
    }
    level = std::move(next);
  }

  EXPECT_TRUE(left.identical(right));
  EXPECT_TRUE(left.identical(level.front()));
  for (const double q : kQuantiles) {
    EXPECT_TRUE(bits_equal(left.quantile(q), right.quantile(q))) << q;
    EXPECT_TRUE(bits_equal(left.quantile(q), level.front().quantile(q))) << q;
  }
}

TEST(QuantileSketch, FullStreamEqualsMergedWindowSketchesBitForBit) {
  // The streaming engine's exactness claim: sketching the whole campaign
  // in one pass and merging per-window sketches are the same state.
  for (const std::uint64_t seed : {5u, 21u}) {
    Rng rng(seed);
    std::vector<double> stream;
    for (std::size_t i = 0; i < 6000; ++i) {
      stream.push_back(380.0 + 90.0 * rng.uniform() -
                       (i % 97 == 0 ? 500.0 : 0.0));  // some negatives
    }
    QuantileSketch full(0.01);
    full.push(std::span<const double>(stream));

    QuantileSketch merged(0.01);
    const std::size_t window = 229;  // deliberately not a divisor
    for (std::size_t first = 0; first < stream.size(); first += window) {
      const std::size_t len = std::min(window, stream.size() - first);
      QuantileSketch win(0.01);
      win.push(std::span<const double>(stream).subspan(first, len));
      merged.merge(win);
    }
    EXPECT_TRUE(full.identical(merged)) << "seed " << seed;
    for (const double q : kQuantiles) {
      EXPECT_TRUE(bits_equal(full.quantile(q), merged.quantile(q)))
          << "seed " << seed << " q " << q;
    }
  }
}

TEST(QuantileSketch, FootprintStaysLogarithmicInRange) {
  // 1e6 pushes spanning 12 decades land in O(log range / log gamma) bins.
  QuantileSketch sk(0.01);
  Rng rng(3);
  for (std::size_t i = 0; i < 1000000; ++i) {
    sk.push(std::exp(-14.0 + 28.0 * rng.uniform()));
  }
  EXPECT_EQ(sk.count(), 1000000u);
  // gamma ~ 1.0202 -> ~50 bins per decade -> ~1400 for 28 e-folds.
  EXPECT_LT(sk.bin_count(), 1500u);
}

TEST(RingBuffer, OverwritesOldestWhenFull) {
  RingBuffer<int> ring(3);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 3u);
  ring.push(1);
  ring.push(2);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0], 1);
  EXPECT_EQ(ring.back(), 2);
  ring.push(3);
  EXPECT_TRUE(ring.full());
  ring.push(4);  // evicts 1
  ring.push(5);  // evicts 2
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring[0], 3);
  EXPECT_EQ(ring[1], 4);
  EXPECT_EQ(ring[2], 5);
  EXPECT_EQ(ring.back(), 5);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 3u);
}

TEST(RingBuffer, CapacityOneKeepsOnlyTheNewest) {
  RingBuffer<double> ring(1);
  for (int i = 0; i < 10; ++i) ring.push(static_cast<double>(i));
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring[0], 9.0);
}

}  // namespace
}  // namespace pv
