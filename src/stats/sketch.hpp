#pragma once
// Mergeable quantile sketch for the streaming assessment path.
//
// A QuantileSketch is a DDSketch-style log-binned counter table: value x
// lands in the bin whose key is ceil(log(x) / log(gamma)) with
// gamma = (1 + alpha) / (1 - alpha), so every bin spans at most a
// relative width of alpha and the reported quantile is within alpha
// *relative* error of the true order statistic.  The whole state is
// integer bin counts plus exact min/max, which makes merging exact:
// adding integer counters is commutative and associative, so
//
//   sketch(full stream) == merge(sketch(window_1), ..., sketch(window_k))
//
// bit-for-bit, in any merge order.  That is the property the per-window
// streaming engine needs — each closed window contributes a small sketch
// and the campaign-wide quantiles come from merging them, with no
// dependence on window boundaries or merge schedule.
//
// Negative values are binned symmetrically on |x|; values too small to
// index (|x| < DBL_MIN) are counted in a dedicated zero bin.

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>

namespace pv {

class QuantileSketch {
 public:
  /// `alpha` is the relative-accuracy target in (0, 1).
  explicit QuantileSketch(double alpha = 0.01);

  void push(double x);
  void push(std::span<const double> xs) {
    for (double x : xs) push(x);
  }

  /// Adds another sketch's counters into this one.  Both sides must have
  /// been built with the same alpha.
  void merge(const QuantileSketch& other);

  /// Estimate of the q-quantile (the item at floor(q * (n - 1)) in sorted
  /// order), within `alpha()` relative error; requires count() > 0.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Number of occupied bins — the sketch's footprint is O(bins), not O(n).
  [[nodiscard]] std::size_t bin_count() const {
    return positive_.size() + negative_.size() + (zero_ > 0 ? 1 : 0);
  }

  /// True iff both sketches hold the identical state (same counters,
  /// min/max bits, alpha).  Used by the bit-for-bit merge property tests.
  [[nodiscard]] bool identical(const QuantileSketch& other) const;

 private:
  [[nodiscard]] long long key_for(double magnitude) const;
  [[nodiscard]] double bin_value(long long key) const;
  [[nodiscard]] double clamp_estimate(double v) const;

  double alpha_;
  double gamma_;
  double inv_log_gamma_;
  std::size_t n_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t zero_ = 0;
  // Ordered maps so the quantile walk visits bins in ascending value
  // order deterministically; keys are log-gamma indices of |x|.
  std::map<long long, std::uint64_t> positive_;
  std::map<long long, std::uint64_t> negative_;
};

}  // namespace pv
