#include "stats/rng.hpp"

#include <algorithm>
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

namespace {

#ifdef PV_NOISE_AVX512

// The vector path loads a row of streams as packed 64-bit origins.
static_assert(sizeof(NoiseStream) == sizeof(std::uint64_t) &&
              std::is_standard_layout_v<NoiseStream>);

// Lanes per block of the vector pass.  The lanes whose word fails the
// rectangle test are listed while the block runs and redrawn after it,
// so the vector loop carries no branch on a rejection.
constexpr std::size_t kRowBlock = 256;

// normal_row on AVX-512 F+DQ, eight lanes per step.  Each step is the
// scalar draw's arithmetic, lane for lane: the word is
// SplitMix64::mix(origin + (k+1)·γ) in 64-bit integer operations
// (vpmullq is exact modulo 2^64), and the uniform is
// 2.0 * (double(w >> 11) * 0x1p-53) - 1.0, whose every step is exact.  A
// lane that passes the rectangle test therefore stores the scalar draw's
// u * x[block]; a lane that fails is redrawn by NoiseStream::normal.
// The zero-seeded (maskz, setzero) intrinsic forms keep GCC's
// -Wmaybe-uninitialized quiet about the undefined seeds of the others.
__attribute__((target("avx512f,avx512dq"))) void normal_row_avx512(
    const NoiseStream* lanes, std::uint64_t k, double* out, std::size_t n) {
  const __m512i step =
      _mm512_set1_epi64(static_cast<long long>((k + 1) * SplitMix64::kGamma));
  const __m512i mul1 =
      _mm512_set1_epi64(static_cast<long long>(0xBF58476D1CE4E5B9ULL));
  const __m512i mul2 =
      _mm512_set1_epi64(static_cast<long long>(0x94D049BB133111EBULL));
  const __m512i low7 = _mm512_set1_epi64(0x7F);
  const __m512i eight = _mm512_set1_epi64(8);
  const __m512d unit = _mm512_set1_pd(0x1.0p-53);
  const __m512d two = _mm512_set1_pd(2.0);
  const __m512d one = _mm512_set1_pd(1.0);
  const __mmask8 all = 0xFF;
  // Lane indices of the rejected words; a full vector is stored at the
  // fill mark, hence the eight spare entries.
  std::uint64_t redraw[kRowBlock + 8] = {};
  for (std::size_t b = 0; b < n; b += kRowBlock) {
    const std::size_t e = std::min(n, b + kRowBlock);
    std::size_t pending = 0;
    __m512i index =
        _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(b)),
                         _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0));
    for (std::size_t i = b; i < e; i += 8) {
      const __mmask8 live =
          e - i >= 8 ? all : static_cast<__mmask8>((1U << (e - i)) - 1);
      __m512i z =
          _mm512_add_epi64(_mm512_maskz_loadu_epi64(live, lanes + i), step);
      z = _mm512_mullo_epi64(
          _mm512_xor_si512(z, _mm512_maskz_srli_epi64(all, z, 30)), mul1);
      z = _mm512_mullo_epi64(
          _mm512_xor_si512(z, _mm512_maskz_srli_epi64(all, z, 27)), mul2);
      const __m512i w =
          _mm512_xor_si512(z, _mm512_maskz_srli_epi64(all, z, 31));
      const __m512i block = _mm512_and_si512(w, low7);
      const __m512d top = _mm512_maskz_cvtepu64_pd(
          all, _mm512_maskz_srli_epi64(all, w, 11));
      const __m512d u =
          _mm512_sub_pd(_mm512_mul_pd(two, _mm512_mul_pd(top, unit)), one);
      const __m512d r = _mm512_mask_i64gather_pd(_mm512_setzero_pd(), all,
                                                 block, zignor::kTables.r, 8);
      const __m512d x = _mm512_mask_i64gather_pd(_mm512_setzero_pd(), all,
                                                 block, zignor::kTables.x, 8);
      const __mmask8 fast =
          _mm512_cmp_pd_mask(_mm512_abs_pd(u), r, _CMP_LT_OQ);
      _mm512_mask_storeu_pd(out + i, live, _mm512_mul_pd(u, x));
      const __mmask8 slow = live & static_cast<__mmask8>(~fast);
      _mm512_storeu_si512(redraw + pending,
                          _mm512_maskz_compress_epi64(slow, index));
      pending += static_cast<std::size_t>(__builtin_popcount(slow));
      index = _mm512_add_epi64(index, eight);
    }
    for (std::size_t j = 0; j < pending; ++j) {
      out[redraw[j]] = lanes[redraw[j]].normal(k);
    }
  }
}

bool cpu_has_avx512() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
}

#else

bool cpu_has_avx512() { return false; }

#endif

// Whether normal_row takes its vector path: asked of the CPU once.
bool row_is_vector() {
  static const bool vector = cpu_has_avx512();
  return vector;
}

}  // namespace

void normal_row(std::span<const NoiseStream> lanes, std::uint64_t k,
                std::span<double> out) {
  PV_EXPECTS(out.size() == lanes.size(), "normal_row needs one out per lane");
#ifdef PV_NOISE_AVX512
  if (row_is_vector()) {
    normal_row_avx512(lanes.data(), k, out.data(), lanes.size());
    return;
  }
#endif
  for (std::size_t i = 0; i < lanes.size(); ++i) out[i] = lanes[i].normal(k);
}

const char* normal_row_path() {
  return row_is_vector() ? "avx512" : "per-lane";
}

}  // namespace pv
