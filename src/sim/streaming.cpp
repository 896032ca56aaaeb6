#include "sim/streaming.hpp"

#include <cmath>
#include <cstring>
#include <unordered_map>

#include "util/expects.hpp"

namespace pv {

namespace {

// Deduplicates table.shape into table.levels/level_idx by exact bit
// pattern.  Bails out (leaving both empty) past ShapeTable::kMaxLevels:
// a window with that many distinct values gains nothing from gathering.
void index_shape_levels(ShapeTable& table) {
  std::unordered_map<std::uint64_t, std::uint32_t> seen;
  seen.reserve(ShapeTable::kMaxLevels * 2);
  table.level_idx.reserve(table.shape.size());
  for (const double v : table.shape) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    const auto [it, inserted] = seen.emplace(
        bits, static_cast<std::uint32_t>(table.levels.size()));
    if (inserted) {
      if (table.levels.size() >= ShapeTable::kMaxLevels) {
        table.levels.clear();
        table.level_idx.clear();
        return;
      }
      table.levels.push_back(v);
    }
    table.level_idx.push_back(it->second);
  }
}

}  // namespace

std::size_t window_sample_count(const TimeWindow& w, Seconds interval) {
  PV_EXPECTS(interval.value() > 0.0, "reporting interval must be positive");
  PV_EXPECTS(w.valid(), "empty metering window");
  // Same floor arithmetic as MeterModel::measure / samples_in.
  return static_cast<std::size_t>(
      std::floor((w.end.value() - w.begin.value()) / interval.value() + 1e-9));
}

void build_shape_chunk(const ClusterPowerModel& cluster, const TimeWindow& w,
                       Seconds interval, MeterMode mode, std::size_t first,
                       std::size_t count, ShapeTable& out) {
  PV_EXPECTS(count > 0, "empty shape chunk");
  const double dt = interval.value();
  out.t_begin = w.begin.value();
  out.dt = dt;
  out.first = first;
  out.mode = mode;
  out.samples = count;
  out.levels.clear();
  out.level_idx.clear();
  if (mode == MeterMode::kIntegrated) {
    // Plane-major (see ShapeTable): quadrature plane q at q*count.
    out.shape.resize(count * 4);
    for (std::size_t i = 0; i < count; ++i) {
      // Window-global sample index: double(first + i) carries the exact
      // bits double(i_global) has in the full-window build.
      const double a = out.t_begin + dt * static_cast<double>(first + i);
      for (std::size_t q = 0; q < 4; ++q) {
        out.shape[q * count + i] = cluster.shape_factor(a + gl4::kXs[q] * dt);
      }
    }
  } else {
    out.shape.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      const double a = out.t_begin + dt * static_cast<double>(first + i);
      out.shape[i] = cluster.shape_factor(a + 0.5 * dt);
    }
  }
  index_shape_levels(out);
}

void stream_node_window(const ShapeTable& table, double node_mean_w,
                        const CompiledPsuCurve* ac_curve,
                        const MeterModel& meter, NoiseStream noise,
                        std::uint64_t k0, StreamScratch& scratch) {
  const std::size_t points = table.shape.size();
  const std::size_t samples = table.samples;
  // Metered power at every quadrature point: the node's DC draw
  // (mean * shape), converted through its PSU on AC taps.  Each phase is
  // elementwise over disjoint arrays, so the compiler vectorizes it, and
  // each element sees the identical IEEE operations the scalar per-point
  // path performs, so the bits don't move.
  scratch.ac.resize(points);
  double* const ac = scratch.ac.data();
  if (!table.levels.empty()) {
    // Level-indexed: one PSU evaluation per distinct shape value —
    // through the same inline ac_from_dc the per-point paths call, on a
    // bit-equal DC load — then an index gather.  Steady phases turn the
    // whole per-point conversion stage into a table lookup.
    double acl[ShapeTable::kMaxLevels];
    for (std::size_t l = 0; l < table.levels.size(); ++l) {
      const double dc = node_mean_w * table.levels[l];
      acl[l] = ac_curve != nullptr ? ac_curve->ac_from_dc(dc) : dc;
    }
    const std::uint32_t* const idx = table.level_idx.data();
    for (std::size_t k = 0; k < points; ++k) ac[k] = acl[idx[k]];
  } else if (ac_curve != nullptr) {
    // One batched PSU pass over every quadrature point of the chunk.
    scratch.dc.resize(points);
    double* const dc = scratch.dc.data();
    for (std::size_t k = 0; k < points; ++k) {
      dc[k] = node_mean_w * table.shape[k];
    }
    ac_curve->ac_from_dc_batch(scratch.dc, scratch.ac, scratch.lf,
                               scratch.eff);
  } else {
    for (std::size_t k = 0; k < points; ++k) {
      ac[k] = node_mean_w * table.shape[k];
    }
  }
  const double* truth = ac;
  if (table.mode == MeterMode::kIntegrated) {
    // Plane-major reduce: elementwise across samples, with the exact
    // left-to-right add order of the scalar `truth += kWs[q] * w` loop
    // (whose 0.0 seed is exact for the non-negative powers here).
    scratch.truth.resize(samples);
    double* const reduced = scratch.truth.data();
    const double* const a0 = ac;
    const double* const a1 = ac + samples;
    const double* const a2 = ac + 2 * samples;
    const double* const a3 = ac + 3 * samples;
    for (std::size_t i = 0; i < samples; ++i) {
      reduced[i] = ((gl4::kWs[0] * a0[i] + gl4::kWs[1] * a1[i]) +
                    gl4::kWs[2] * a2[i]) +
                   gl4::kWs[3] * a3[i];
    }
    truth = reduced;
  }
  // Calibration and noise, each reading at its meter-global draw index.
  scratch.readings.resize(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    scratch.readings[i] = meter.apply_errors(truth[i], noise, k0 + i);
  }
}

}  // namespace pv
