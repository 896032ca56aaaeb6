#pragma once
// Power-meter models.
//
// The methodology's levels differ in meter capability (Table 1, aspect 1):
// Level 1/2 need one power sample per second; Level 3 needs continuously
// integrated energy.  Physical meters also carry an accuracy class — the
// paper cites "standard variance of power measurement equipment of 1-1.5%".
// MeterModel turns a ground-truth power function into what a real meter
// would report: sampled (or integrated), with gain error, offset error and
// per-sample noise.

#include <cmath>
#include <cstdint>
#include <functional>

#include "stats/rng.hpp"
#include "trace/time_series.hpp"
#include "util/units.hpp"

namespace pv {

/// 4-point Gauss-Legendre abscissae/weights on [0, 1] — the quadrature
/// kIntegrated meters average each reporting interval with.  Shared
/// between the eager per-device loop and the streaming kernels so both
/// integrate with the exact same constants.
namespace gl4 {
inline constexpr double kXs[4] = {0.06943184420297371, 0.33000947820757187,
                                  0.66999052179242813, 0.93056815579702629};
inline constexpr double kWs[4] = {0.17392742256872693, 0.32607257743127307,
                                  0.32607257743127307, 0.17392742256872693};
}  // namespace gl4

/// Ground truth power as a function of time (seconds -> watts).
using PowerFunction = std::function<double(double)>;

/// Accuracy class of a meter.  Gain and offset are drawn once per meter
/// instance (a physical device's calibration is fixed); noise is per
/// sample.
struct MeterAccuracy {
  double gain_error_sd = 0.0;    ///< relative, e.g. 0.01 for a 1% class meter
  double offset_error_sd_w = 0.0;  ///< absolute watts
  double noise_sd = 0.0;         ///< relative per-sample noise

  /// A revenue-grade meter as required for SPEC-style measurements.
  static MeterAccuracy reference_grade();
  /// A typical 1% cluster PDU meter.
  static MeterAccuracy pdu_grade();
  /// The 1.5% equipment class the paper treats as the common case.
  static MeterAccuracy commodity_grade();
  /// An error-free meter (for isolating statistical effects in tests).
  static MeterAccuracy perfect();
};

/// How a meter reduces the signal to readings.
enum class MeterMode {
  kSampled,     ///< instantaneous samples every reporting interval
  kIntegrated,  ///< average power over each reporting interval (energy/dt)
};

/// A meter instance: fixed calibration errors plus a reporting interval.
class MeterModel {
 public:
  /// Identity meter (unit gain, zero offset, no noise) so fleet tables
  /// can size std::vector<MeterModel> before per-lane provisioning.
  MeterModel() = default;

  /// `calibration_rng` is consumed to draw this device's gain/offset;
  /// pass a stream keyed by the meter's identity for reproducibility.
  MeterModel(MeterAccuracy accuracy, MeterMode mode, Seconds interval,
             Rng& calibration_rng);

  [[nodiscard]] MeterMode mode() const { return mode_; }
  [[nodiscard]] Seconds interval() const { return interval_; }
  /// The fixed multiplicative calibration error of this device instance.
  [[nodiscard]] double gain() const { return gain_; }
  /// The fixed additive calibration error of this device instance (watts).
  [[nodiscard]] double offset_w() const { return offset_w_; }

  /// Meters the ground-truth power over [t_begin, t_end), producing one
  /// reading per reporting interval.  Reading i draws `noise` at
  /// meter-global sample index first + i: a meter metering several
  /// windows passes the count of readings it took before this one, so no
  /// two of its samples share a draw.
  /// In kIntegrated mode each reading is the true interval average (plus
  /// calibration error); in kSampled mode it is the value at the interval
  /// midpoint (plus calibration and noise), which aliases fast transients
  /// exactly the way a 1 Hz sampling meter does.
  [[nodiscard]] PowerTrace measure(const PowerFunction& truth_w,
                                   Seconds t_begin, Seconds t_end,
                                   NoiseStream noise,
                                   std::uint64_t first) const;

  /// How many readings measure() produces over `w` — the same floor
  /// arithmetic, so sample accounting (expected vs delivered) agrees with
  /// the meter exactly.
  [[nodiscard]] std::size_t samples_in(TimeWindow w) const;

  /// One reading from one truth value: calibration error, then noise
  /// draw k of `noise` (k the meter-global sample index; drawn iff
  /// noise_sd > 0).  Inline, and the fused fleet kernel spells the same
  /// `v *= 1.0 + sd * z`, so the streaming kernels, compiled in another
  /// translation unit, report bit-identical values to measure() (the
  /// project builds with -ffp-contract=off, so the multiply-add rounds
  /// the same way in every TU).
  [[nodiscard]] double apply_errors(double truth, NoiseStream noise,
                                    std::uint64_t k) const {
    double v = truth * gain_ + offset_w_;
    if (accuracy_.noise_sd > 0.0) {
      v *= 1.0 + accuracy_.noise_sd * noise.normal(k);
    }
    return v;
  }

 private:
  MeterAccuracy accuracy_{};  // all-zero: error-free
  MeterMode mode_ = MeterMode::kSampled;
  Seconds interval_{0.0};
  double gain_ = 1.0;
  double offset_w_ = 0.0;
};

}  // namespace pv
