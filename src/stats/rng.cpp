#include "stats/rng.hpp"

#include <cmath>
#include <type_traits>

#include "util/expects.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PV_NOISE_AVX512 1
#include <immintrin.h>
#endif

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

namespace {

#ifdef PV_NOISE_AVX512

// The vector path loads a row of streams as packed 64-bit origins.
static_assert(sizeof(NoiseStream) == sizeof(std::uint64_t) &&
              std::is_standard_layout_v<NoiseStream>);

// The main pass draws 64-lane groups: eight vectors of eight lanes whose
// SplitMix64 states stay in registers across a block's samples.
constexpr std::size_t kGroup = 64;

// Entries in the list of lane-samples whose word failed the rectangle
// test, each (s << 32) | lane.  A group's sample stores eight entries per
// vector at the fill mark, at most 64 in all, so the list is settled
// whenever fewer than 64 are free, and at the end of the block; a block
// of 64 lanes and 32 samples (about 56 entries) is settled once, in full
// vectors.
constexpr std::size_t kRejectedList = 320;

// Half the width of the band around 1 in which the vector wedge test
// decides nothing: outside it, its sum and the scalar draw's are on the
// same side of 1 (see settle_rejected).
constexpr double kWedgeBand = 0x1.0p-30;

// The vector helpers below are the scalar draw's operations on eight
// lanes.  They use the zero-seeded (maskz, setzero) intrinsic forms,
// because GCC's -Wmaybe-uninitialized trips on the undefined seeds of the
// others.
#define PV_AVX512 __attribute__((target("avx512f,avx512dq")))

constexpr __mmask8 kAll = 0xFF;

// The lanes of a live mask's first `n` (below 8) entries.
inline __mmask8 first_lanes(std::size_t n) {
  return static_cast<__mmask8>((1U << n) - 1);
}

// SplitMix64::mix of eight words; vpmullq is exact modulo 2^64.
PV_AVX512 inline __m512i mix8(__m512i z) {
  const __m512i mul1 =
      _mm512_set1_epi64(static_cast<long long>(0xBF58476D1CE4E5B9ULL));
  const __m512i mul2 =
      _mm512_set1_epi64(static_cast<long long>(0x94D049BB133111EBULL));
  z = _mm512_mullo_epi64(
      _mm512_xor_si512(z, _mm512_maskz_srli_epi64(kAll, z, 30)), mul1);
  z = _mm512_mullo_epi64(
      _mm512_xor_si512(z, _mm512_maskz_srli_epi64(kAll, z, 27)), mul2);
  return _mm512_xor_si512(z, _mm512_maskz_srli_epi64(kAll, z, 31));
}

// Eight words split as zignor::normal splits one: the block index, the
// signed uniform 2.0 * (double(w >> 11) * 0x1p-53) - 1.0 (every step
// exact) and x[block].
struct Split8 {
  __m512i block;
  __m512d u;
  __m512d x;
};

PV_AVX512 inline Split8 split8(__m512i w) {
  Split8 s;
  s.block = _mm512_and_si512(w, _mm512_set1_epi64(0x7F));
  const __m512d top =
      _mm512_maskz_cvtepu64_pd(kAll, _mm512_maskz_srli_epi64(kAll, w, 11));
  s.u = _mm512_sub_pd(
      _mm512_mul_pd(_mm512_set1_pd(2.0),
                    _mm512_mul_pd(top, _mm512_set1_pd(0x1.0p-53))),
      _mm512_set1_pd(1.0));
  s.x = _mm512_mask_i64gather_pd(_mm512_setzero_pd(), kAll, s.block,
                                 zignor::kTables.x, 8);
  return s;
}

// The rectangle test |u| < r[block] of zignor::normal.
PV_AVX512 inline __mmask8 inside8(const Split8& s) {
  const __m512d r = _mm512_mask_i64gather_pd(_mm512_setzero_pd(), kAll,
                                             s.block, zignor::kTables.r, 8);
  return _mm512_cmp_pd_mask(_mm512_abs_pd(s.u), r, _CMP_LT_OQ);
}

// zignor::kWedgeExp by Horner's rule: the wedge test's exp.
PV_AVX512 inline __m512d wedge_exp8(__m512d a) {
  __m512d p = _mm512_set1_pd(zignor::kWedgeExp[zignor::kWedgeExpDegree]);
  for (int n = zignor::kWedgeExpDegree - 1; n >= 0; --n) {
    p = _mm512_fmadd_pd(p, a, _mm512_set1_pd(zignor::kWedgeExp[n]));
  }
  return p;
}

// Draws the `pending` lane-samples listed in `rejected`, whose words
// failed the rectangle test: eight at a time where the vector pass below
// can settle them, through NoiseStream::normal where it cannot.  An entry
// (s << 32) | lane is draw k0 + s of lane `lane`, stored at
// out[s·n + lane]; its word is recomputed from the lane's origin and the
// step (k0 + 1 + s)·γ, which ran no slower than keeping the words in a
// second list.  zignor::rejected makes the wedge test f1 + U·(f0 - f1) < 1
// on x = u·x[b], f0 = exp(-0.5·(x[b]² - x²)), f1 = exp(-0.5·(x[b+1]² - x²))
// and U = open_unit(mix(w + γ)), and on a rejection puts the sub-stream's
// next word mix(w + 2γ) through the rectangle test.  Here the same
// operands, in the same order, feed wedge_exp8 in place of exp.  Its error
// and libm's are far below kWedgeBand, so a sum below 1 - band is below 1
// in the scalar draw too (accept: store x, the scalar product), and one at
// or above 1 + band is not (the retry word: store its u·x[block] if it
// passes).  Block-0 words (the tail), sums inside the band and retry words
// that fail are left to the scalar draw; the list is compacted to them in
// place (an entry is rewritten only after it was read).
PV_AVX512 void settle_rejected(const NoiseStream* lanes, std::uint64_t k0,
                               double* out, std::size_t n,
                               std::uint64_t* rejected, std::size_t pending) {
  const __m512i first = _mm512_set1_epi64(static_cast<long long>(k0 + 1));
  const __m512i gamma =
      _mm512_set1_epi64(static_cast<long long>(SplitMix64::kGamma));
  const __m512i gamma2 =
      _mm512_set1_epi64(static_cast<long long>(2 * SplitMix64::kGamma));
  const __m512i low = _mm512_set1_epi64(0xFFFFFFFFLL);
  const __m512i width = _mm512_set1_epi64(static_cast<long long>(n));
  const __m512i one = _mm512_set1_epi64(1);
  const __m512d minus_half = _mm512_set1_pd(-0.5);
  std::size_t rest = 0;
  for (std::size_t j = 0; j < pending; j += 8) {
    const __mmask8 live = pending - j >= 8 ? kAll : first_lanes(pending - j);
    const __m512i entry = _mm512_maskz_loadu_epi64(live, rejected + j);
    const __m512i lane = _mm512_and_si512(entry, low);
    const __m512i s = _mm512_maskz_srli_epi64(kAll, entry, 32);
    // Both factors are below 2^32, so vpmuludq's 32x32 -> 64 product is
    // the slot's exact index.
    const __m512i slot =
        _mm512_add_epi64(_mm512_maskz_mul_epu32(kAll, s, width), lane);
    const __m512i w = mix8(_mm512_add_epi64(
        _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), live, lane,
                                    lanes, 8),
        _mm512_mullo_epi64(_mm512_add_epi64(first, s), gamma)));
    const Split8 sp = split8(w);
    const __m512d x = _mm512_mul_pd(sp.u, sp.x);
    const __m512d x_next = _mm512_mask_i64gather_pd(
        _mm512_setzero_pd(), kAll, _mm512_add_epi64(sp.block, one),
        zignor::kTables.x, 8);
    const __m512d xx = _mm512_mul_pd(x, x);
    const __m512d f0 = wedge_exp8(_mm512_mul_pd(
        minus_half, _mm512_sub_pd(_mm512_mul_pd(sp.x, sp.x), xx)));
    const __m512d f1 = wedge_exp8(_mm512_mul_pd(
        minus_half, _mm512_sub_pd(_mm512_mul_pd(x_next, x_next), xx)));
    const __m512d height = _mm512_mul_pd(
        _mm512_add_pd(
            _mm512_maskz_cvtepu64_pd(
                kAll, _mm512_maskz_srli_epi64(
                          kAll, mix8(_mm512_add_epi64(w, gamma)), 12)),
            _mm512_set1_pd(0.5)),
        _mm512_set1_pd(0x1.0p-52));
    const __m512d sum =
        _mm512_add_pd(f1, _mm512_mul_pd(height, _mm512_sub_pd(f0, f1)));
    const __mmask8 wedge = live & _mm512_test_epi64_mask(sp.block, sp.block);
    const __mmask8 accept =
        wedge & _mm512_cmp_pd_mask(sum, _mm512_set1_pd(1.0 - kWedgeBand),
                                   _CMP_LT_OQ);
    const __mmask8 reject =
        wedge & _mm512_cmp_pd_mask(sum, _mm512_set1_pd(1.0 + kWedgeBand),
                                   _CMP_GE_OQ);
    const Split8 retry = split8(mix8(_mm512_add_epi64(w, gamma2)));
    const __mmask8 retried = reject & inside8(retry);
    _mm512_mask_i64scatter_pd(
        out, accept | retried, slot,
        _mm512_mask_blend_pd(retried, x, _mm512_mul_pd(retry.u, retry.x)), 8);
    const __mmask8 scalar = live & static_cast<__mmask8>(~(accept | retried));
    _mm512_storeu_si512(rejected + rest,
                        _mm512_maskz_compress_epi64(scalar, entry));
    rest += static_cast<std::size_t>(__builtin_popcount(scalar));
  }
  for (std::size_t j = 0; j < rest; ++j) {
    const std::uint64_t s = rejected[j] >> 32;
    const std::uint64_t lane = rejected[j] & 0xFFFFFFFFU;
    out[s * n + lane] = lanes[lane].normal(k0 + s);
  }
}

// Eight lanes of one sample in the main pass: the words of the SplitMix64
// states `state`, their values u * x[block] stored at `dst` (masked to
// `live` in the trailing partial group), and the entries of the lanes
// that fail the rectangle test listed.  Each step is the scalar draw's
// arithmetic, lane for lane: the word is SplitMix64::mix(origin + (k0+1+s)·γ) in 64-bit integer
// operations, and the uniform and the rectangle test are zignor::normal's,
// so a lane that passes stores the scalar draw's value.
template <bool kMasked>
PV_AVX512 __attribute__((always_inline)) inline void draw8(
    __m512i state, __mmask8 live, __m512i entry, double* dst,
    std::uint64_t* rejected, std::size_t& pending) {
  const Split8 sp = split8(mix8(state));
  const __m512d value = _mm512_mul_pd(sp.u, sp.x);
  __mmask8 slow = static_cast<__mmask8>(~inside8(sp));
  if constexpr (kMasked) {
    _mm512_mask_storeu_pd(dst, live, value);
    slow &= live;
  } else {
    _mm512_storeu_pd(dst, value);
  }
  _mm512_storeu_si512(rejected + pending,
                      _mm512_maskz_compress_epi64(slow, entry));
  pending += static_cast<std::size_t>(__builtin_popcount(slow));
}

// Draws every sample of the block for the group of lanes [g, g + 64), or
// [g, n) for the trailing partial group (kMasked).  The group's eight
// SplitMix64 states, origin + (k0+1+s)·γ, stay in registers and gain γ
// per sample; a full group stores whole vectors without masks.  The list
// is checked once per sample, before the group adds at most 64 entries.
template <bool kMasked>
PV_AVX512 __attribute__((always_inline)) inline void draw_group(
    const NoiseStream* lanes, std::uint64_t k0, std::size_t samples,
    double* out, std::size_t n, std::size_t g, std::uint64_t* rejected,
    std::size_t& pending) {
  const __m512i gamma =
      _mm512_set1_epi64(static_cast<long long>(SplitMix64::kGamma));
  const __m512i first = _mm512_set1_epi64(
      static_cast<long long>((k0 + 1) * SplitMix64::kGamma));
  const __m512i iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const std::size_t vectors = kMasked ? (n - g + 7) / 8 : kGroup / 8;
  __m512i state[kGroup / 8] = {};
  __mmask8 live[kGroup / 8] = {};
#pragma GCC unroll 8
  for (std::size_t v = 0; v < vectors; ++v) {
    const std::size_t left = n - g - 8 * v;
    live[v] = left >= 8 ? kAll : first_lanes(left);
    state[v] = _mm512_add_epi64(
        _mm512_maskz_loadu_epi64(live[v], lanes + g + 8 * v), first);
  }
  for (std::size_t s = 0; s < samples; ++s) {
    if (pending > kRejectedList - kGroup) {
      settle_rejected(lanes, k0, out, n, rejected, pending);
      pending = 0;
    }
    const __m512i tag = _mm512_add_epi64(
        iota, _mm512_set1_epi64(static_cast<long long>((s << 32) | g)));
    double* const row = out + s * n + g;
#pragma GCC unroll 8
    for (std::size_t v = 0; v < vectors; ++v) {
      draw8<kMasked>(state[v], live[v],
                     _mm512_add_epi64(
                         tag, _mm512_set1_epi64(static_cast<long long>(8 * v))),
                     row + 8 * v, rejected, pending);
      state[v] = _mm512_add_epi64(state[v], gamma);
    }
  }
}

// normal_block on AVX-512 F+DQ: whole 64-lane groups, then the trailing
// partial one, then the lane-samples still listed.
PV_AVX512 void normal_block_avx512(const NoiseStream* lanes, std::uint64_t k0,
                                   std::size_t samples, double* out,
                                   std::size_t n) {
  std::uint64_t rejected[kRejectedList] = {};
  std::size_t pending = 0;
  const std::size_t full = n - n % kGroup;
  for (std::size_t g = 0; g < full; g += kGroup) {
    draw_group<false>(lanes, k0, samples, out, n, g, rejected, pending);
  }
  if (full < n) {
    draw_group<true>(lanes, k0, samples, out, n, full, rejected, pending);
  }
  settle_rejected(lanes, k0, out, n, rejected, pending);
}

#undef PV_AVX512

bool cpu_has_avx512() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
}

#else

bool cpu_has_avx512() { return false; }

#endif

// Whether normal_block takes its vector path: asked of the CPU once.
bool block_is_vector() {
  static const bool vector = cpu_has_avx512();
  return vector;
}

}  // namespace

void normal_block(std::span<const NoiseStream> lanes, std::uint64_t k0,
                  std::size_t samples, std::span<double> out) {
  constexpr std::size_t kMaxCount = 0xFFFFFFFFU;
  const std::size_t n = lanes.size();
  PV_EXPECTS(n <= kMaxCount && samples <= kMaxCount,
             "normal_block draws fewer than 2^32 lanes and samples");
  PV_EXPECTS(out.size() == samples * n,
             "normal_block needs one out per lane and sample");
#ifdef PV_NOISE_AVX512
  if (block_is_vector()) {
    normal_block_avx512(lanes.data(), k0, samples, out.data(), n);
    return;
  }
#endif
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      out[s * n + i] = lanes[i].normal(k0 + s);
    }
  }
}

const char* normal_block_path() {
  return block_is_vector() ? "avx512" : "per-lane";
}

}  // namespace pv
