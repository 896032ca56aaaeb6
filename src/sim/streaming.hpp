#pragma once
// Shape tables: the workload's shape factor on a metered window's grid.
//
// On a cluster's SystemPowerModel every node draws its mean times one
// common shape factor, and an AC tap converts that draw through the
// node's PSU.  So a node's clean reading depends on the sample only
// through the shape factor at the sample's quadrature points, and the
// factor can be evaluated once per grid point and shared by the whole
// cohort.  build_shape_chunk walks the workload model once per chunk of
// a metered window into a ShapeTable; the lane kernels in
// sim/fleet_state read it for every node.  A steady phase repeats one
// shape for long runs of samples, a ramp or a drifting core changes it
// every sample: the kernels recompute a lane's clean reading only where
// a sample starts a shape run (mark_shape_runs), so both regimes run
// on the one path.
//
// Byte-identity contract: the table's sample times and quadrature
// replicate MeterModel::measure expression for expression (the project
// builds with -ffp-contract=off, so both TUs round identically), and the
// PSU arithmetic is the same compiled code both paths call, so the lane
// kernels' readings are bit-identical to MeterModel::measure over the
// node's AC/DC truth function from the same noise draws.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "meter/meter.hpp"
#include "sim/cluster.hpp"
#include "trace/time_series.hpp"

namespace pv {

/// Shape factors at every quadrature abscissa of every reading in one
/// chunk of a metered window, on the exact time grid MeterModel::measure
/// uses.
struct ShapeTable {
  double t_begin = 0.0;     ///< the window's origin
  double dt = 0.0;          ///< reporting interval
  std::size_t first = 0;    ///< window-global index of the chunk's sample 0
  std::size_t samples = 0;  ///< readings in the chunk
  MeterMode mode = MeterMode::kSampled;
  /// samples entries (kSampled, midpoints) or 4*samples (kIntegrated,
  /// Gauss-Legendre abscissae).  kIntegrated is stored plane-major:
  /// abscissa q of sample k is shape[q*samples + k].
  std::vector<double> shape;
};

/// Marks the shape-run starts of `table` into `out` (resized to
/// table.samples): out[k] is 1 where sample k starts a shape run — k is
/// 0, or its shape bits differ from sample k - 1's in some quadrature
/// plane — else 0.  A lane's clean reading is a function of those bits,
/// so it changes only at run starts.  The lane kernels take these marks,
/// so a caller marks a table once and every lane it meters reads bytes
/// instead of comparing planes.
void mark_shape_runs(const ShapeTable& table, std::vector<std::uint8_t>& out);

/// Readings MeterModel::measure would produce over `w` at `interval` —
/// the same floor arithmetic, so sample accounting (expected vs
/// delivered) agrees with the meter exactly.
[[nodiscard]] std::size_t window_sample_count(const TimeWindow& w,
                                              Seconds interval);

/// Fills `out` with the shape table for samples [first, first + count) of
/// window `w`, so peak memory never depends on the window length.  Sample
/// i of the chunk sits on the *window-global* time grid (index first + i),
/// so chunked streaming reproduces the full-window bits exactly.  `out`'s
/// storage is reused across calls; out.samples is the chunk's count and
/// out.t_begin stays the window's origin.
void build_shape_chunk(const ClusterPowerModel& cluster, const TimeWindow& w,
                       Seconds interval, MeterMode mode, std::size_t first,
                       std::size_t count, ShapeTable& out);

/// `truth` read through a memo keyed on the shape factor's bit pattern.
/// On `cluster`'s SystemPowerModel every node draws its mean times
/// cluster.shape_factor(t) by construction, so every compute-side truth
/// — a node's AC or DC draw, a rack PDU, the compute subsystem — depends
/// on t only through the shape factor, and the wrapper evaluates `truth`
/// once per distinct shape value and returns the doubles the direct call
/// returns.  Auxiliary subsystems are not such functions; read them
/// directly.  A call whose shape bits equal the previous call's returns
/// that call's value without a lookup (an integral's panels repeat one
/// shape for long runs).  The memo lives in the returned function (each
/// copy carries its own), so one thread at a time.
[[nodiscard]] PowerFunction memoize_on_shape(const ClusterPowerModel& cluster,
                                             PowerFunction truth);

}  // namespace pv
