#pragma once
// Power conversion modeling (methodology aspect 4: "point of measurement").
//
// Measurements "upstream of power conversion" see AC input power; DC-side
// instrumentation sees less, by the PSU's load-dependent efficiency.
// Level 1 lets a site model the conversion with manufacturer-supplied
// data; Level 3 requires the loss to be measured simultaneously.  This
// module provides the efficiency-curve model and both correction paths so
// campaigns can quantify what that choice costs in accuracy.

#include <array>
#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "util/units.hpp"

namespace pv {

class PsuEfficiencyCurve;

/// Flattened, division-minimal form of a PSU efficiency curve bound to a
/// rated output.  The campaign hot path evaluates AC input for every node
/// at every sample; the curve form matters there.  `efficiency_at` on the
/// source curve costs two divisions per call (load fraction + lerp
/// parameter) plus the pair-vector walk; this form precomputes 1/rated
/// and per-segment slopes so one evaluation is one multiply, a short
/// segment scan, one fma and one divide.
///
/// A compiled curve is two parts: the breakpoint table (xs, ys, slopes),
/// which depends only on the source curve and is immutable and shared,
/// and the curve's own 1/rated.  A fleet fits one PSU model to every
/// node, so the lowered model compiles the table once and `rebound` binds
/// it to each node's rated output — one pointer copy, no allocation, and
/// the same operands as compiling the curve afresh.
///
/// The eager per-device path and the streaming kernels — compiled in
/// different translation units — must produce bit-identical AC samples;
/// both call this same inline evaluation, and the project builds with
/// -ffp-contract=off so its multiply-add rounds identically everywhere.
class CompiledPsuCurve {
 public:
  CompiledPsuCurve() = default;
  CompiledPsuCurve(const PsuEfficiencyCurve& curve, Watts rated_dc_output);

  /// This curve's breakpoint table bound to another rated output.  Shares
  /// the table (one pointer copy) and evaluates bit-identically to
  /// CompiledPsuCurve(source curve, rated_dc_output).
  [[nodiscard]] CompiledPsuCurve rebound(Watts rated_dc_output) const;

  /// Clean (error-free) AC input for a DC load, in watts.  Preserves the
  /// clamp-outside / lerp-between semantics of the source curve.
  [[nodiscard]] double ac_from_dc(double dc_w) const {
    if (dc_w == 0.0) return 0.0;
    const double lf = dc_w * inv_rated_;
    const Table& t = *table_;
    const std::size_t last = t.xs.size() - 1;
    double eff;
    if (lf <= t.xs[0]) {
      eff = t.ys[0];
    } else if (lf >= t.xs[last]) {
      eff = t.ys[last];
    } else {
      std::size_t s = 0;
      while (s + 1 < last && lf > t.xs[s + 1]) ++s;
      eff = t.ys[s] + (lf - t.xs[s]) * t.slopes[s];
    }
    return dc_w / eff;
  }

  [[nodiscard]] bool empty() const { return table_ == nullptr; }

  /// True when both curves evaluate the very same table object (as every
  /// node of a lowered fleet does), not merely equal ones.
  [[nodiscard]] bool shares_table_with(const CompiledPsuCurve& other) const {
    return table_ != nullptr && table_ == other.table_;
  }

 private:
  friend class FleetPsuBank;

  /// The immutable breakpoint table, shared by every rebound copy.
  struct Table {
    std::vector<double> xs;      // load fractions, strictly increasing
    std::vector<double> ys;      // efficiencies at xs
    std::vector<double> slopes;  // (ys[i+1]-ys[i]) / (xs[i+1]-xs[i])
  };

  /// The blend passes FleetPsuBank runs once it has formed the load
  /// fractions lf[k] = dc[k] * 1/rated: ac[k] = dc[k] / eff(lf[k]), with
  /// eff[] as scratch, for k in [0, n).  The segment scan becomes one
  /// blend pass per curve segment (loop inversion), so every inner loop
  /// is elementwise and vectorizes, and each value takes exactly the
  /// scalar ac_from_dc's operations with the same operands.
  static void blend(const Table& t, const double* dc, const double* lf,
                    double* eff, double* ac, std::size_t n);

  std::shared_ptr<const Table> table_;
  double inv_rated_ = 0.0;
};

/// Fleet-wide PSU evaluation: ac[i] = curves[i]->ac_from_dc(dc[i]) for one
/// DC value per node, bit-identical per lane to the scalar call.
///
/// Real clusters provision one PSU SKU across a fleet, so every node's
/// CompiledPsuCurve evaluates the same breakpoint table and differs only
/// in 1/rated — the rated output scales with the node's provisioned mean
/// draw.  A lowered fleet's lanes share one table object, which the bank
/// points at, plus a contiguous inv_rated[] vector, so the blend passes
/// run with the node index as the SIMD lane.
class FleetPsuBank {
 public:
  FleetPsuBank() = default;

  /// Build from one curve pointer per node: all null (a DC tap, whose
  /// lanes the bank passes through unchanged) or all on one shared
  /// breakpoint table (a lowered fleet's AC tap).  Lanes on distinct
  /// tables, even equal ones, or a mix of DC and AC lanes are a
  /// contract_error.
  static FleetPsuBank build(std::span<const CompiledPsuCurve* const> curves);

  /// ac[k] = the lane's curve->ac_from_dc(dc[k]) (dc[k] on a DC tap) for
  /// k in [0, dc.size()): one DC load per lane of the contiguous lane
  /// range starting at `lane_begin`.  `lf_tmp`/`eff_tmp` are caller-owned
  /// scratch reused across calls (resized to dc.size()).
  void ac_from_dc_fleet(std::span<const double> dc, std::span<double> ac,
                        std::size_t lane_begin, std::vector<double>& lf_tmp,
                        std::vector<double>& eff_tmp) const;

 private:
  std::vector<double> inv_rated_;  // per-lane 1/rated (0 on a DC tap)
  /// The lanes' common table; null on a DC tap.
  std::shared_ptr<const CompiledPsuCurve::Table> table_;
};

/// Load-dependent PSU efficiency curve: efficiency as a function of the
/// DC load expressed as a fraction of rated output.  Shaped like the
/// 80 PLUS certification curves: poor at very light load, peaking near
/// 50%, drooping slightly toward full load.
class PsuEfficiencyCurve {
 public:
  /// Control points: (load fraction, efficiency) pairs, strictly increasing
  /// load in [0, 1], efficiencies in (0, 1].  Linear interpolation between
  /// points; clamped outside.
  explicit PsuEfficiencyCurve(
      std::vector<std::pair<double, double>> points);

  /// 80 PLUS-like presets.
  static PsuEfficiencyCurve gold();
  static PsuEfficiencyCurve platinum();
  static PsuEfficiencyCurve titanium();

  [[nodiscard]] double efficiency_at(double load_fraction) const;

  [[nodiscard]] const std::vector<std::pair<double, double>>& points() const {
    return points_;
  }

 private:
  std::vector<std::pair<double, double>> points_;
};

/// A PSU instance with a rated DC output and an efficiency curve.
class PsuModel {
 public:
  PsuModel(Watts rated_dc_output, const PsuEfficiencyCurve& curve);
  /// A PSU of `fleet_curve`'s model rated at `rated_dc_output`: shares the
  /// already compiled table instead of compiling the curve again.
  PsuModel(Watts rated_dc_output, const CompiledPsuCurve& fleet_curve);

  [[nodiscard]] Watts rated_output() const { return rated_; }

  /// AC input power drawn to deliver the given DC load.
  [[nodiscard]] Watts ac_input(Watts dc_load) const;

  /// Inverse: DC output implied by a measured AC input (solved by
  /// bisection on the monotone ac_input mapping).
  [[nodiscard]] Watts dc_output(Watts ac_input_w) const;

  /// Conversion loss at the given DC load.
  [[nodiscard]] Watts loss(Watts dc_load) const;

  /// The flattened curve `ac_input` evaluates; streaming kernels call it
  /// directly on raw doubles to share the exact arithmetic.
  [[nodiscard]] const CompiledPsuCurve& compiled() const { return compiled_; }

 private:
  Watts rated_;
  CompiledPsuCurve compiled_;
};

/// Manufacturer-supplied conversion data as Level 1 allows: a single
/// nominal efficiency number applied regardless of load.  The gap between
/// this and the true curve is one of the Level 1 error sources.
struct NominalConversionModel {
  double nominal_efficiency = 0.94;

  [[nodiscard]] Watts ac_from_dc(Watts dc_load) const {
    return Watts{dc_load.value() / nominal_efficiency};
  }
  [[nodiscard]] Watts dc_from_ac(Watts ac) const {
    return Watts{ac.value() * nominal_efficiency};
  }
};

}  // namespace pv
