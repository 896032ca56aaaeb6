#include "meter/faults.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "util/expects.hpp"

namespace pv {

bool FaultSpec::any() const {
  return dropout_prob > 0.0 || burst_rate_per_hour > 0.0 ||
         stuck_prob > 0.0 || spike_prob > 0.0 ||
         std::isfinite(clip_max_w) || death_prob > 0.0 || any_byzantine();
}

bool FaultSpec::any_byzantine() const {
  return drift_prob > 0.0 || recal_prob > 0.0 || unit_error_prob > 0.0 ||
         clock_skew_prob > 0.0 || time_jitter_sd_s > 0.0 ||
         reorder_prob > 0.0 || dup_ts_prob > 0.0;
}

FaultSpec FaultSpec::none() { return FaultSpec{}; }

FaultSpec FaultSpec::mild() {
  FaultSpec s;
  s.dropout_prob = 0.005;
  s.burst_rate_per_hour = 0.2;
  s.burst_mean_s = 15.0;
  s.spike_prob = 0.0005;
  return s;
}

FaultSpec FaultSpec::harsh() {
  FaultSpec s;
  s.dropout_prob = 0.05;
  s.burst_rate_per_hour = 2.0;
  s.burst_mean_s = 60.0;
  s.stuck_prob = 0.15;
  s.stuck_mean_s = 180.0;
  s.spike_prob = 0.005;
  s.spike_max_gain = 6.0;
  s.death_prob = 0.05;
  return s;
}

FaultSpec FaultSpec::byzantine() {
  FaultSpec s;
  s.drift_prob = 0.05;
  s.drift_max_per_hour = 0.05;
  s.recal_prob = 0.02;
  s.recal_max_frac = 0.05;
  s.unit_error_prob = 0.01;
  s.clock_skew_prob = 0.02;
  s.clock_skew_max_s = 60.0;
  return s;
}

MeterFate draw_meter_fate(const FaultSpec& spec, TimeWindow campaign_window,
                          Rng& fate_rng) {
  PV_EXPECTS(campaign_window.valid(), "empty campaign window");
  MeterFate fate;
  fate.byz_origin_s = campaign_window.begin.value();
  if (spec.death_prob > 0.0 && fate_rng.bernoulli(spec.death_prob)) {
    fate.dies = true;
    fate.death_time_s = fate_rng.uniform(campaign_window.begin.value(),
                                         campaign_window.end.value());
  }
  if (spec.stuck_prob > 0.0 && fate_rng.bernoulli(spec.stuck_prob)) {
    fate.sticks = true;
    fate.stuck_begin_s = fate_rng.uniform(campaign_window.begin.value(),
                                          campaign_window.end.value());
    // Exponential episode length via inverse CDF.
    const double u = fate_rng.uniform();
    fate.stuck_end_s =
        fate.stuck_begin_s - spec.stuck_mean_s * std::log(1.0 - u);
  }
  // Byzantine fate.  Each draw is gated on its own knob so specs that never
  // enable a process consume exactly the historical RNG stream.
  if (spec.drift_prob > 0.0 && fate_rng.bernoulli(spec.drift_prob)) {
    fate.drift_rate_per_hour =
        fate_rng.uniform(-spec.drift_max_per_hour, spec.drift_max_per_hour);
  }
  if (spec.recal_prob > 0.0 && fate_rng.bernoulli(spec.recal_prob)) {
    fate.recalibrates = true;
    fate.recal_time_s = fate_rng.uniform(campaign_window.begin.value(),
                                         campaign_window.end.value());
    fate.recal_gain =
        1.0 + fate_rng.uniform(-spec.recal_max_frac, spec.recal_max_frac);
  }
  if (spec.unit_error_prob > 0.0 && fate_rng.bernoulli(spec.unit_error_prob)) {
    fate.unit_scale = fate_rng.bernoulli(0.5) ? spec.unit_scale
                                              : 1.0 / spec.unit_scale;
  }
  if (spec.clock_skew_prob > 0.0 &&
      fate_rng.bernoulli(spec.clock_skew_prob)) {
    fate.clock_skew_s =
        fate_rng.uniform(-spec.clock_skew_max_s, spec.clock_skew_max_s);
  }
  return fate;
}

bool MeterFate::byzantine() const {
  return drift_rate_per_hour != 0.0 || recalibrates || unit_scale != 1.0 ||
         clock_skew_s != 0.0;
}

double MeterFate::byzantine_gain(double t) const {
  double g = unit_scale;
  if (drift_rate_per_hour != 0.0) {
    const double hours = (t - byz_origin_s) / 3600.0;
    // A real gain cannot creep below zero; floor far under any plausible
    // drift so the model stays physical on very long windows.
    g *= std::max(0.05, 1.0 + drift_rate_per_hour * hours);
  }
  if (recalibrates && t >= recal_time_s) g *= recal_gain;
  return g;
}

void FaultEvents::accumulate(const FaultEvents& other) {
  samples_total += other.samples_total;
  samples_dropped += other.samples_dropped;
  samples_dead += other.samples_dead;
  samples_stuck += other.samples_stuck;
  samples_spiked += other.samples_spiked;
  samples_clipped += other.samples_clipped;
  samples_miscalibrated += other.samples_miscalibrated;
  samples_time_shifted += other.samples_time_shifted;
  samples_reordered += other.samples_reordered;
  samples_duplicated_ts += other.samples_duplicated_ts;
}

GappyTrace inject_faults(const PowerTrace& clean, const FaultSpec& spec,
                         const MeterFate& fate, Rng& rng,
                         FaultEvents* events) {
  const std::size_t n = clean.size();
  const double dt = clean.dt().value();
  std::vector<double> w(clean.watts().begin(), clean.watts().end());
  std::vector<std::uint8_t> valid(n, 1);

  FaultEvents ev;
  ev.samples_total = n;

  // --- byzantine timestamp distortions -------------------------------------
  // Applied to the clean signal before the availability faults below, in a
  // fixed pass order so RNG consumption is reproducible.  Every pass is
  // gated on its knob: historical specs draw exactly what they always did.
  if (fate.clock_skew_s != 0.0 || spec.time_jitter_sd_s > 0.0) {
    const auto clamp_index = [n](std::ptrdiff_t j) {
      if (j < 0) return std::size_t{0};
      if (j >= static_cast<std::ptrdiff_t>(n)) return n - 1;
      return static_cast<std::size_t>(j);
    };
    std::vector<double> shifted(n);
    for (std::size_t i = 0; i < n; ++i) {
      double offset_s = fate.clock_skew_s;
      if (spec.time_jitter_sd_s > 0.0) {
        offset_s += rng.normal(0.0, spec.time_jitter_sd_s);
      }
      const std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) +
                               static_cast<std::ptrdiff_t>(
                                   std::llround(offset_s / dt));
      const std::size_t src = n == 0 ? 0 : clamp_index(j);
      if (src != i) ++ev.samples_time_shifted;
      shifted[i] = clean.watt_at(src);
    }
    w = std::move(shifted);
  }
  if (spec.reorder_prob > 0.0 && n >= 2) {
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (rng.bernoulli(spec.reorder_prob)) {
        std::swap(w[i], w[i + 1]);
        ev.samples_reordered += 2;
        ++i;  // a swapped pair is not re-drawn
      }
    }
  }
  if (spec.dup_ts_prob > 0.0) {
    for (std::size_t i = 1; i < n; ++i) {
      if (rng.bernoulli(spec.dup_ts_prob)) {
        w[i] = w[i - 1];  // delivered under the previous timestamp
        ++ev.samples_duplicated_ts;
      }
    }
  }
  const bool miscalibrated = fate.drift_rate_per_hour != 0.0 ||
                             fate.recalibrates || fate.unit_scale != 1.0;

  // Burst start probability per sample from the Poisson arrival rate.
  const double burst_p = spec.burst_rate_per_hour * dt / 3600.0;
  std::size_t burst_left = 0;

  double last_good = n > 0 ? w[0] : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = clean.time_at(i).value() + 0.5 * dt;

    // Hard death dominates everything after it.
    if (fate.dies && t >= fate.death_time_s) {
      valid[i] = 0;
      ++ev.samples_dead;
      continue;
    }

    // Burst outages and i.i.d. dropout produce missing samples.
    if (burst_left > 0) {
      --burst_left;
      valid[i] = 0;
      ++ev.samples_dropped;
      continue;
    }
    if (burst_p > 0.0 && rng.bernoulli(std::min(burst_p, 1.0))) {
      const double len_s = -spec.burst_mean_s * std::log(1.0 - rng.uniform());
      burst_left = static_cast<std::size_t>(std::ceil(len_s / dt));
      valid[i] = 0;
      ++ev.samples_dropped;
      continue;
    }
    if (spec.dropout_prob > 0.0 && rng.bernoulli(spec.dropout_prob)) {
      valid[i] = 0;
      ++ev.samples_dropped;
      continue;
    }

    // The reading arrives; it may still be wrong.
    if (fate.sticks && t >= fate.stuck_begin_s && t < fate.stuck_end_s) {
      w[i] = last_good;
      ++ev.samples_stuck;
      // A frozen sensor neither spikes nor clips, but the downstream
      // calibration/logging distortion still applies to its repeats.
      if (miscalibrated) {
        w[i] *= fate.byzantine_gain(t);
        ++ev.samples_miscalibrated;
      }
      continue;
    }
    if (spec.spike_prob > 0.0 && rng.bernoulli(spec.spike_prob)) {
      w[i] *= rng.uniform(1.5, std::max(1.5, spec.spike_max_gain));
      ++ev.samples_spiked;
    }
    if (w[i] > spec.clip_max_w) {
      w[i] = spec.clip_max_w;
      ++ev.samples_clipped;
    }
    last_good = w[i];
    // Calibration/logging distortion last: drift and recalibration live in
    // the meter electronics, the unit mixup in the logging path — all
    // downstream of the sensor (and of its full-scale clipping).
    if (miscalibrated) {
      w[i] *= fate.byzantine_gain(t);
      ++ev.samples_miscalibrated;
    }
  }

  if (events != nullptr) events->accumulate(ev);
  return GappyTrace(PowerTrace(clean.t0(), clean.dt(), std::move(w)),
                    std::move(valid));
}

std::size_t flag_stuck_runs(GappyTrace& trace, std::size_t min_run) {
  PV_EXPECTS(min_run >= 2, "stuck-run length must be >= 2");
  const PowerTrace& t = trace.trace();
  std::size_t flagged = 0;
  std::size_t run_start = 0;
  std::size_t run_len = 0;
  const auto flush = [&](std::size_t end) {
    if (run_len >= min_run) {
      // The first sample of a run is the sensor's honest last reading;
      // everything after it is the frozen repeat.
      for (std::size_t i = run_start + 1; i < end; ++i) {
        if (trace.valid_at(i)) {
          trace.invalidate(i);
          ++flagged;
        }
      }
    }
  };
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace.valid_at(i) && run_len > 0 &&
        t.watt_at(i) == t.watt_at(run_start)) {
      ++run_len;
      continue;
    }
    flush(i);
    if (trace.valid_at(i)) {
      run_start = i;
      run_len = 1;
    } else {
      run_len = 0;
    }
  }
  flush(trace.size());
  return flagged;
}

bool FaultPlan::forced_dead(std::size_t meter_id) const {
  return std::find(dead_meters.begin(), dead_meters.end(), meter_id) !=
         dead_meters.end();
}

std::size_t FaultPlan::forced_byzantine(std::size_t meter_id) const {
  const auto it = std::find(byzantine_meters.begin(), byzantine_meters.end(),
                            meter_id);
  return it == byzantine_meters.end()
             ? npos
             : static_cast<std::size_t>(it - byzantine_meters.begin());
}

void FaultPlan::apply_forced_byzantine(std::size_t pos,
                                       TimeWindow campaign_window,
                                       MeterFate& fate) const {
  PV_EXPECTS(campaign_window.valid(), "empty campaign window");
  fate.byz_origin_s = campaign_window.begin.value();
  // Alternate the error direction every full drift/unit/clock/step cycle so
  // a forced cohort's lies do not all push the submitted number one way.
  const double sign = (pos / 4) % 2 == 0 ? 1.0 : -1.0;
  switch (pos % 4) {
    case 0:
      fate.drift_rate_per_hour = sign * kByzDriftPerHour;
      break;
    case 1:
      fate.unit_scale = sign > 0.0 ? kByzUnitScale : 1.0 / kByzUnitScale;
      break;
    case 2:
      fate.clock_skew_s = sign * kByzClockSkewS;
      break;
    default:
      fate.recalibrates = true;
      // A recalibration event at 40% of the window: long enough before it
      // to learn the meter's honest level, long enough after to convict.
      fate.recal_time_s = campaign_window.begin.value() +
                          0.4 * campaign_window.duration().value();
      fate.recal_gain = 1.0 + sign * kByzStepFrac;
      break;
  }
}

}  // namespace pv
