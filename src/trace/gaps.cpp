#include "trace/gaps.hpp"

#include <algorithm>

#include "util/expects.hpp"

namespace pv {

GappyTrace::GappyTrace(PowerTrace trace, std::vector<std::uint8_t> valid)
    : trace_(std::move(trace)), valid_(std::move(valid)) {
  PV_EXPECTS(valid_.size() == trace_.size(),
             "validity mask length does not match trace");
}

GappyTrace GappyTrace::fully_valid(PowerTrace trace) {
  std::vector<std::uint8_t> mask(trace.size(), 1);
  return GappyTrace(std::move(trace), std::move(mask));
}

bool GappyTrace::valid_at(std::size_t i) const {
  PV_EXPECTS(i < valid_.size(), "sample index out of range");
  return valid_[i] != 0;
}

std::size_t GappyTrace::valid_count() const {
  return static_cast<std::size_t>(
      std::count_if(valid_.begin(), valid_.end(),
                    [](std::uint8_t v) { return v != 0; }));
}

void GappyTrace::invalidate(std::size_t i) {
  PV_EXPECTS(i < valid_.size(), "sample index out of range");
  valid_[i] = 0;
}

GapStats GappyTrace::gap_stats() const {
  GapStats s;
  s.total = valid_.size();
  std::size_t run = 0;
  for (std::uint8_t v : valid_) {
    if (v == 0) {
      ++s.missing;
      if (run == 0) ++s.gap_count;
      ++run;
      s.longest_gap = std::max(s.longest_gap, run);
    } else {
      run = 0;
    }
  }
  s.coverage = s.total == 0
                   ? 1.0
                   : static_cast<double>(s.total - s.missing) /
                         static_cast<double>(s.total);
  return s;
}

Watts GappyTrace::mean_power() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < valid_.size(); ++i) {
    if (valid_[i] != 0) {
      sum += trace_.watt_at(i);
      ++n;
    }
  }
  PV_EXPECTS(n > 0, "mean power of a fully invalid trace");
  return Watts{sum / static_cast<double>(n)};
}

Joules GappyTrace::energy() const {
  return Joules{mean_power().value() * trace_.duration().value()};
}

PowerTrace GappyTrace::repaired() const {
  PV_EXPECTS(valid_count() > 0, "cannot repair a fully invalid trace");
  std::vector<double> w(trace_.watts().begin(), trace_.watts().end());

  // Index of the previous valid sample for each position (or npos).
  constexpr auto npos = static_cast<std::size_t>(-1);
  std::size_t prev = npos;
  std::vector<std::size_t> prev_valid(w.size(), npos);
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (valid_[i] != 0) prev = i;
    prev_valid[i] = prev;
  }
  std::size_t next = npos;
  std::vector<std::size_t> next_valid(w.size(), npos);
  for (std::size_t i = w.size(); i-- > 0;) {
    if (valid_[i] != 0) next = i;
    next_valid[i] = next;
  }

  for (std::size_t i = 0; i < w.size(); ++i) {
    if (valid_[i] != 0) continue;
    const std::size_t p = prev_valid[i];
    const std::size_t q = next_valid[i];
    // Edge gaps degrade to nearest-valid.
    if (p == npos) {
      w[i] = w[q];
    } else if (q == npos) {
      w[i] = w[p];
    } else {
      const double frac = static_cast<double>(i - p) /
                          static_cast<double>(q - p);
      w[i] = w[p] + frac * (w[q] - w[p]);
    }
  }
  return PowerTrace(trace_.t0(), trace_.dt(), std::move(w));
}

}  // namespace pv
