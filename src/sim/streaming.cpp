#include "sim/streaming.hpp"

#include <bit>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "util/expects.hpp"

namespace pv {

std::size_t window_sample_count(const TimeWindow& w, Seconds interval) {
  PV_EXPECTS(interval.value() > 0.0, "reporting interval must be positive");
  PV_EXPECTS(w.valid(), "empty metering window");
  // Same floor arithmetic as MeterModel::measure.
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
}

void mark_shape_runs(const ShapeTable& table, std::vector<std::uint8_t>& out) {
  const std::size_t n = table.samples;
  out.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    bool start = k == 0;
    for (std::size_t p = k; !start && p < table.shape.size(); p += n) {
      start = std::bit_cast<std::uint64_t>(table.shape[p]) !=
              std::bit_cast<std::uint64_t>(table.shape[p - 1]);
    }
    out[k] = start ? 1 : 0;
  }
}

PowerFunction memoize_on_shape(const ClusterPowerModel& cluster,
                               PowerFunction truth) {
  PV_EXPECTS(truth != nullptr, "null ground-truth function");
  return [&cluster, truth = std::move(truth),
          memo = std::unordered_map<std::uint64_t, double>(),
          last_bits = std::uint64_t{0}, last = std::optional<double>()](
             double t) mutable {
    const auto bits = std::bit_cast<std::uint64_t>(cluster.shape_factor(t));
    if (last && bits == last_bits) return *last;
    const auto it = memo.find(bits);
    last = it != memo.end() ? it->second
                            : memo.emplace(bits, truth(t)).first->second;
    last_bits = bits;
    return *last;
  };
}

}  // namespace pv
