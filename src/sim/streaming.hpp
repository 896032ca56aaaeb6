#pragma once
// Streaming node-metering kernels.
//
// The eager campaign path evaluates, per node and per quadrature point, a
// std::function chain: meter -> node AC lambda -> PSU -> node DC lambda ->
// workload intensity (virtual).  For a balanced workload almost all of
// that work is shared: every node's DC power is its mean times one common
// shape factor, so the shape can be evaluated once per time-grid point and
// reused across the whole cohort.  These kernels do exactly that —
// build_shape_chunk walks the workload model once per chunk of a metered
// window; stream_node_window then reduces a node's readings to one
// multiply, one
// compiled-PSU evaluation and one calibration/noise application per
// quadrature point, writing into a caller-owned scratch buffer so chunked
// sharding allocates nothing per node.
//
// Byte-identity contract: for the cluster's SystemPowerModel,
// stream_node_window produces bit-identical readings (from the same noise
// draws) to MeterModel::measure over the node's AC/DC truth function.
// Sample times and quadrature replicate MeterModel::measure
// expression-for-expression (the project builds with -ffp-contract=off,
// so both TUs round identically), and the shape/PSU arithmetic is the
// same compiled code both paths call.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "meter/meter.hpp"
#include "meter/psu.hpp"
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
  /// abscissa q occupies [q*samples, (q+1)*samples), so the quadrature
  /// reduce is elementwise across samples and vectorizes.
  std::vector<double> shape;
  /// Deduplicated shape values.  Steady workload phases make shape[]
  /// massively repetitive (an L3 window inside the full-load phase is one
  /// value repeated); when the window has at most kMaxLevels distinct
  /// bit patterns the kernel evaluates the PSU once per level per node
  /// and gathers, instead of evaluating per point.  Empty when the window
  /// exceeds the cap; kernels then fall back to the dense batch path.
  std::vector<double> levels;
  /// Per-point index into levels (shape[k] bit-equals levels[level_idx[k]]);
  /// parallel to shape, empty iff levels is.
  std::vector<std::uint32_t> level_idx;

  static constexpr std::size_t kMaxLevels = 32;
};

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

/// Reused per-worker buffers for stream_node_window.  `readings` receives
/// the finished samples; the rest are kernel-internal staging arrays for
/// the batched (vectorized) PSU evaluation.  One instance per shard,
/// reused across every node and window in the chunk, so the hot path
/// allocates nothing after the first node.
struct StreamScratch {
  std::vector<double> readings;
  std::vector<double> dc;     ///< per-point DC loads
  std::vector<double> ac;     ///< per-point AC inputs
  std::vector<double> lf;     ///< CompiledPsuCurve batch staging
  std::vector<double> eff;    ///< CompiledPsuCurve batch staging
  std::vector<double> truth;  ///< per-sample quadrature-reduced truth
};

/// Streams one node's clean readings over one chunk into
/// `scratch.readings` (resized to table.samples).  The node's DC power at
/// table point t is node_mean_w * shape; `ac_curve` non-null converts
/// through the node PSU (AC tap, evaluated in batch), null meters the DC
/// tap.  Reading i draws `noise` at meter-global index k0 + i — the draws
/// MeterModel::measure makes for the same samples.
void stream_node_window(const ShapeTable& table, double node_mean_w,
                        const CompiledPsuCurve* ac_curve,
                        const MeterModel& meter, NoiseStream noise,
                        std::uint64_t k0, StreamScratch& scratch);

/// `truth` read through a memo keyed on the shape factor's bit pattern.
/// On `cluster`'s SystemPowerModel every node draws its mean times
/// cluster.shape_factor(t) by construction, so every compute-side truth
/// — a node's AC or DC draw, a rack PDU, the compute subsystem — depends
/// on t only through the shape factor, and the wrapper evaluates `truth`
/// once per distinct shape value and returns the doubles the direct call
/// returns.  Auxiliary subsystems are not such functions; read them
/// directly.  The memo lives in the returned function (each copy carries
/// its own), so one thread at a time.
[[nodiscard]] PowerFunction memoize_on_shape(const ClusterPowerModel& cluster,
                                             PowerFunction truth);

}  // namespace pv
