#pragma once
// Gappy power traces: a PowerTrace plus a per-sample validity mask.
//
// Real site logs are full of holes — dropped samples, burst outages,
// meters that die mid-run (the Cray PMDB validation work spends much of
// its length on exactly these defects).  A GappyTrace keeps the regular
// time base of a PowerTrace, marks which samples actually arrived, and
// provides gap-aware statistics plus linear-interpolation repair so the
// §3 window statistics stay computable over holes instead of silently
// averaging garbage.

#include <cstdint>
#include <vector>

#include "trace/time_series.hpp"

namespace pv {

/// Shape of the missingness in a GappyTrace.
struct GapStats {
  std::size_t total = 0;        ///< samples in the underlying trace
  std::size_t missing = 0;      ///< invalid samples
  std::size_t gap_count = 0;    ///< maximal runs of invalid samples
  std::size_t longest_gap = 0;  ///< length of the longest run (samples)
  double coverage = 1.0;        ///< valid / total
};

/// A PowerTrace in which some samples never arrived.
class GappyTrace {
 public:
  /// `valid[i]` nonzero iff sample i of `trace` is a real reading.
  /// The mask must match the trace length.
  GappyTrace(PowerTrace trace, std::vector<std::uint8_t> valid);

  /// Wraps a trace in which every sample is valid.
  [[nodiscard]] static GappyTrace fully_valid(PowerTrace trace);

  [[nodiscard]] const PowerTrace& trace() const { return trace_; }
  [[nodiscard]] std::size_t size() const { return valid_.size(); }
  [[nodiscard]] bool valid_at(std::size_t i) const;
  [[nodiscard]] std::size_t valid_count() const;
  [[nodiscard]] const std::vector<std::uint8_t>& mask() const {
    return valid_;
  }

  /// Marks sample i invalid (used by quality checks, e.g. stuck-run
  /// detection, after construction).
  void invalidate(std::size_t i);

  [[nodiscard]] GapStats gap_stats() const;

  /// Mean power over valid samples only.  Requires >= 1 valid sample.
  [[nodiscard]] Watts mean_power() const;

  /// Energy over the trace extent, treating missing samples as drawing
  /// the gap-aware mean power — the standard treatment when a logger
  /// drops samples but the machine kept running.
  [[nodiscard]] Joules energy() const;

  /// A dense PowerTrace with each invalid sample filled linearly between
  /// the bracketing valid samples.  Leading/trailing gaps fall back to the
  /// nearest valid sample.  Requires >= 1 valid sample.
  [[nodiscard]] PowerTrace repaired() const;

 private:
  PowerTrace trace_;
  std::vector<std::uint8_t> valid_;
};

}  // namespace pv
