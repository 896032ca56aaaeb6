#include "meter/meter.hpp"

#include <cmath>

#include "util/expects.hpp"

namespace pv {

MeterAccuracy MeterAccuracy::reference_grade() {
  return {/*gain*/ 0.001, /*offset W*/ 0.1, /*noise*/ 0.0005};
}

MeterAccuracy MeterAccuracy::pdu_grade() {
  return {/*gain*/ 0.01, /*offset W*/ 1.0, /*noise*/ 0.003};
}

MeterAccuracy MeterAccuracy::commodity_grade() {
  return {/*gain*/ 0.015, /*offset W*/ 2.0, /*noise*/ 0.005};
}

MeterAccuracy MeterAccuracy::perfect() { return {0.0, 0.0, 0.0}; }

MeterModel::MeterModel(MeterAccuracy accuracy, MeterMode mode,
                       Seconds interval, Rng& calibration_rng)
    : accuracy_(accuracy), mode_(mode), interval_(interval) {
  PV_EXPECTS(interval.value() > 0.0, "reporting interval must be positive");
  PV_EXPECTS(accuracy.gain_error_sd >= 0.0 && accuracy.offset_error_sd_w >= 0.0 &&
                 accuracy.noise_sd >= 0.0,
             "accuracy parameters must be non-negative");
  gain_ = 1.0 + calibration_rng.normal(0.0, accuracy.gain_error_sd);
  offset_w_ = calibration_rng.normal(0.0, accuracy.offset_error_sd_w);
}

PowerTrace MeterModel::measure(const PowerFunction& truth_w, Seconds t_begin,
                               Seconds t_end, NoiseStream noise,
                               std::uint64_t first) const {
  PV_EXPECTS(truth_w != nullptr, "null ground-truth function");
  PV_EXPECTS(t_end.value() > t_begin.value(), "empty metering window");
  const double dt = interval_.value();
  const auto n = static_cast<std::size_t>(
      std::floor((t_end.value() - t_begin.value()) / dt + 1e-9));
  PV_EXPECTS(n > 0, "window shorter than one reporting interval");

  // The streaming kernels evaluate the exact sample times and quadrature
  // below in a different translation unit; -ffp-contract=off project-wide
  // keeps every multiply-add here and there rounding identically.
  std::vector<double> readings(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = t_begin.value() + dt * static_cast<double>(i);
    double truth;
    if (mode_ == MeterMode::kIntegrated) {
      // Average of the signal over the interval via 4-point Gauss-Legendre
      // quadrature — accurate for the smooth-plus-noise profiles we meter.
      truth = 0.0;
      for (int q = 0; q < 4; ++q) {
        truth += gl4::kWs[q] * truth_w(a + gl4::kXs[q] * dt);
      }
    } else {
      truth = truth_w(a + 0.5 * dt);
    }
    readings[i] = apply_errors(truth, noise, first + i);
  }
  return PowerTrace(t_begin, interval_, std::move(readings));
}

std::size_t MeterModel::samples_in(TimeWindow w) const {
  if (!w.valid()) return 0;
  return static_cast<std::size_t>(
      std::floor(w.duration().value() / interval_.value() + 1e-9));
}

}  // namespace pv
