#include "meter/psu.hpp"

#include <algorithm>
#include <cmath>

#include "util/expects.hpp"
#include "util/mathx.hpp"

namespace pv {

PsuEfficiencyCurve::PsuEfficiencyCurve(
    std::vector<std::pair<double, double>> points)
    : points_(std::move(points)) {
  PV_EXPECTS(points_.size() >= 2, "efficiency curve needs >= 2 points");
  for (std::size_t i = 0; i < points_.size(); ++i) {
    PV_EXPECTS(points_[i].first >= 0.0 && points_[i].first <= 1.0,
               "load fractions must lie in [0,1]");
    PV_EXPECTS(points_[i].second > 0.0 && points_[i].second <= 1.0,
               "efficiencies must lie in (0,1]");
    if (i > 0) {
      PV_EXPECTS(points_[i].first > points_[i - 1].first,
                 "load fractions must be strictly increasing");
    }
  }
}

PsuEfficiencyCurve PsuEfficiencyCurve::gold() {
  return PsuEfficiencyCurve({{0.02, 0.60},
                             {0.10, 0.82},
                             {0.20, 0.87},
                             {0.50, 0.90},
                             {1.00, 0.87}});
}

PsuEfficiencyCurve PsuEfficiencyCurve::platinum() {
  return PsuEfficiencyCurve({{0.02, 0.65},
                             {0.10, 0.86},
                             {0.20, 0.90},
                             {0.50, 0.94},
                             {1.00, 0.91}});
}

PsuEfficiencyCurve PsuEfficiencyCurve::titanium() {
  return PsuEfficiencyCurve({{0.02, 0.70},
                             {0.10, 0.90},
                             {0.20, 0.94},
                             {0.50, 0.96},
                             {1.00, 0.94}});
}

double PsuEfficiencyCurve::efficiency_at(double load_fraction) const {
  PV_EXPECTS(load_fraction >= 0.0, "load fraction must be non-negative");
  if (load_fraction <= points_.front().first) return points_.front().second;
  if (load_fraction >= points_.back().first) return points_.back().second;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (load_fraction <= points_[i].first) {
      const auto& [x0, y0] = points_[i - 1];
      const auto& [x1, y1] = points_[i];
      const double t = (load_fraction - x0) / (x1 - x0);
      return lerp01(y0, y1, t);
    }
  }
  return points_.back().second;  // unreachable
}

CompiledPsuCurve::CompiledPsuCurve(const PsuEfficiencyCurve& curve,
                                   Watts rated_dc_output) {
  PV_EXPECTS(rated_dc_output.value() > 0.0, "rated output must be positive");
  const auto& pts = curve.points();
  auto table = std::make_shared<Table>();
  table->xs.reserve(pts.size());
  table->ys.reserve(pts.size());
  table->slopes.reserve(pts.size() - 1);
  for (const auto& [x, y] : pts) {
    table->xs.push_back(x);
    table->ys.push_back(y);
  }
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    table->slopes.push_back((table->ys[i + 1] - table->ys[i]) /
                            (table->xs[i + 1] - table->xs[i]));
  }
  table_ = std::move(table);
  inv_rated_ = 1.0 / rated_dc_output.value();
}

CompiledPsuCurve CompiledPsuCurve::rebound(Watts rated_dc_output) const {
  PV_EXPECTS(!empty(), "rebinding an empty curve");
  PV_EXPECTS(rated_dc_output.value() > 0.0, "rated output must be positive");
  CompiledPsuCurve c;
  c.table_ = table_;
  c.inv_rated_ = 1.0 / rated_dc_output.value();
  return c;
}

void CompiledPsuCurve::ac_from_dc_batch(std::span<const double> dc,
                                        std::span<double> ac,
                                        std::vector<double>& lf_tmp,
                                        std::vector<double>& eff_tmp) const {
  const std::size_t n = dc.size();
  PV_EXPECTS(ac.size() == n, "dc/ac spans must have equal length");
  PV_EXPECTS(!empty(), "batch evaluation on an empty curve");
  const Table& t = *table_;
  lf_tmp.resize(n);
  eff_tmp.resize(n);
  double* const lf = lf_tmp.data();
  double* const eff = eff_tmp.data();
  const double* const d = dc.data();
  double* const out = ac.data();
  const double inv = inv_rated_;
  for (std::size_t k = 0; k < n; ++k) lf[k] = d[k] * inv;
  // Loop inversion: one elementwise blend pass per curve segment instead
  // of a per-value segment scan.  Last writer wins, so after all passes
  // eff[k] = ys[s] + (lf - xs[s]) * slopes[s] for
  // s = max{i < last : lf > xs[i]} — the same segment (and the same
  // expression, operand for operand) the scalar scan selects — or ys[0]
  // when lf <= xs[0].  Every select is an unconditional store of a
  // value-select (never a guarded store), so the loops if-convert and
  // vectorize.  Segment 0 is fused with the ys[0] initialisation and the
  // high clamp with the final divide, saving two full passes.
  const std::size_t last = t.xs.size() - 1;
  {
    const double x0 = t.xs[0];
    const double y0 = t.ys[0];
    const double s0 = t.slopes[0];
    for (std::size_t k = 0; k < n; ++k) {
      const double cand = y0 + (lf[k] - x0) * s0;
      eff[k] = lf[k] > x0 ? cand : y0;
    }
  }
  for (std::size_t i = 1; i < last; ++i) {
    const double xi = t.xs[i];
    const double yi = t.ys[i];
    const double si = t.slopes[i];
    for (std::size_t k = 0; k < n; ++k) {
      const double prev = eff[k];
      const double cand = yi + (lf[k] - xi) * si;
      eff[k] = lf[k] > xi ? cand : prev;
    }
  }
  // A zero load lands in the clamp-low lane (lf = 0 <= xs[0]) and
  // divides to 0/ys[0] == +0.0, matching the scalar early return for the
  // non-negative loads campaigns produce.
  const double xl = t.xs[last];
  const double yl = t.ys[last];
  for (std::size_t k = 0; k < n; ++k) {
    const double ei = eff[k];  // unconditional load so the loop if-converts
    const double e = lf[k] >= xl ? yl : ei;
    out[k] = d[k] / e;
  }
}

FleetPsuBank FleetPsuBank::build(
    std::span<const CompiledPsuCurve* const> curves) {
  FleetPsuBank bank;
  bank.curves_.assign(curves.begin(), curves.end());
  const std::size_t n = bank.curves_.size();
  bank.inv_rated_.assign(n, 0.0);
  const CompiledPsuCurve* ref = nullptr;
  bool shared = true;
  for (std::size_t i = 0; i < n; ++i) {
    const CompiledPsuCurve* c = bank.curves_[i];
    if (c == nullptr || c->empty()) {
      // A DC-tap lane in an otherwise AC fleet breaks the uniform blend.
      shared = false;
      continue;
    }
    bank.inv_rated_[i] = c->inv_rated_;
    if (ref == nullptr) {
      ref = c;
    } else if (!c->shares_table_with(*ref)) {
      // A lowered fleet's lanes hold one table object.  Distinct tables,
      // even equal ones, take the per-lane fallback.
      shared = false;
    }
  }
  // ref stays null when every lane is a DC tap: pass-through fallback.
  if (shared && ref != nullptr) bank.table_ = ref->table_;
  return bank;
}

void FleetPsuBank::ac_from_dc_fleet(std::span<const double> dc,
                                    std::span<double> ac,
                                    std::size_t lane_begin,
                                    std::vector<double>& lf_tmp,
                                    std::vector<double>& eff_tmp) const {
  const std::size_t n = dc.size();
  PV_EXPECTS(lane_begin + n <= curves_.size(), "lane range out of bank");
  PV_EXPECTS(ac.size() == n, "dc/ac spans must have equal length");
  if (table_ == nullptr) {
    for (std::size_t k = 0; k < n; ++k) {
      const CompiledPsuCurve* c = curves_[lane_begin + k];
      ac[k] = (c != nullptr && !c->empty()) ? c->ac_from_dc(dc[k]) : dc[k];
    }
    return;
  }
  // The ac_from_dc_batch blend with the node index as the lane: identical
  // passes and operand order, except lf[k] carries the per-node 1/rated.
  // Each lane therefore computes exactly the scalar call's expression.
  const CompiledPsuCurve::Table& t = *table_;
  lf_tmp.resize(n);
  eff_tmp.resize(n);
  double* const lf = lf_tmp.data();
  double* const eff = eff_tmp.data();
  const double* const d = dc.data();
  const double* const inv = inv_rated_.data() + lane_begin;
  double* const out = ac.data();
  for (std::size_t k = 0; k < n; ++k) lf[k] = d[k] * inv[k];
  const std::size_t last = t.xs.size() - 1;
  {
    const double x0 = t.xs[0];
    const double y0 = t.ys[0];
    const double s0 = t.slopes[0];
    for (std::size_t k = 0; k < n; ++k) {
      const double cand = y0 + (lf[k] - x0) * s0;
      eff[k] = lf[k] > x0 ? cand : y0;
    }
  }
  for (std::size_t i = 1; i < last; ++i) {
    const double xi = t.xs[i];
    const double yi = t.ys[i];
    const double si = t.slopes[i];
    for (std::size_t k = 0; k < n; ++k) {
      const double prev = eff[k];
      const double cand = yi + (lf[k] - xi) * si;
      eff[k] = lf[k] > xi ? cand : prev;
    }
  }
  // Zero loads divide to +0.0 exactly as in ac_from_dc_batch.
  const double xl = t.xs[last];
  const double yl = t.ys[last];
  for (std::size_t k = 0; k < n; ++k) {
    const double ei = eff[k];
    const double e = lf[k] >= xl ? yl : ei;
    out[k] = d[k] / e;
  }
}

PsuModel::PsuModel(Watts rated_dc_output, const PsuEfficiencyCurve& curve)
    : rated_(rated_dc_output), compiled_(curve, rated_dc_output) {}

PsuModel::PsuModel(Watts rated_dc_output, const CompiledPsuCurve& fleet_curve)
    : rated_(rated_dc_output),
      compiled_(fleet_curve.rebound(rated_dc_output)) {}

Watts PsuModel::ac_input(Watts dc_load) const {
  PV_EXPECTS(dc_load.value() >= 0.0, "DC load must be non-negative");
  return Watts{compiled_.ac_from_dc(dc_load.value())};
}

Watts PsuModel::dc_output(Watts ac) const {
  PV_EXPECTS(ac.value() >= 0.0, "AC input must be non-negative");
  if (ac.value() == 0.0) return Watts{0.0};
  // ac_input is strictly increasing in the DC load, so bisect.
  double lo = 0.0;
  double hi = rated_.value() * 1.5;
  while (ac_input(Watts{hi}).value() < ac.value()) {
    hi *= 2.0;
    PV_EXPECTS(hi < 1e12, "AC input beyond any plausible PSU operating point");
  }
  for (std::size_t i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (ac_input(Watts{mid}).value() < ac.value()) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-9 * (1.0 + hi)) break;
  }
  return Watts{0.5 * (lo + hi)};
}

Watts PsuModel::loss(Watts dc_load) const {
  return ac_input(dc_load) - dc_load;
}

}  // namespace pv
