#pragma once
// FleetState: per-node campaign state in structure-of-arrays layout.
//
// The historical engine walks one node at a time: a NodeInstance-derived
// mean, a MeterModel, a noise stream and a DeviceMeter per node, each node's
// window streamed start-to-finish before the next node begins.  That
// array-of-structs walk leaves the only loop-carried dependency — the
// window's running sum — serial *within* a node, so the reduction never
// vectorizes.  FleetState transposes the fleet: contiguous per-field
// vectors (node ids, provisioned DC draw, meter gain/offset, PSU curve
// lanes, per-node noise origins) let the fused chunk kernel
// (stream_fleet_chunk) run sample-major with the *node index as the SIMD
// lane*.  Per-node accumulator chains are independent across lanes, so
// the previously serial sum becomes an elementwise vector add.  Faulted
// windows and poll chunks need one lane's readings as a trace; they read
// the same lane through stream_lane_window.  Both kernels recompute a
// lane's clean reading only where a shape run starts (sim/streaming), so
// flat and drifting windows run on the one path.
//
// Byte-identity contract (the repo's signature): every lane performs
// MeterModel::measure's expressions over the node's truth function,
// operand for operand — each node's window sums still chain
// left-to-right, and each reading draws its node's noise stream at the
// same meter-global sample index — so gathered results are bit-identical
// to the eager reference at any thread count and chunk size
// (ctest-enforced by test_meter_engine).  After provisioning the table is
// read-only: the noise streams are random-access origins, not generator
// state.  The project builds with -ffp-contract=off, so the shared
// expressions round identically in every translation unit.
//
// Ownership: build_fleet_state provisions a FleetState from the plan's
// node cohort; core/pipeline's CampaignContext owns the instance for the
// duration of one campaign (see docs/architecture.md).  The sim layer
// owns the layout and the kernels because they are pure functions of sim
// inputs; the pipeline stages only orchestrate.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "meter/meter.hpp"
#include "meter/psu.hpp"
#include "sim/cluster.hpp"
#include "sim/streaming.hpp"
#include "stats/rng.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"

namespace pv {

/// The metered cohort, transposed.  Lane i is the i-th node of the plan's
/// selection (plan order); all vectors are parallel.
struct FleetState {
  // --- identity / provisioned draw --------------------------------------
  std::vector<std::size_t> node;  ///< cluster node ids, plan order
  std::vector<double> mean_w;     ///< per-node mean DC draw (0 w/o cluster)

  // --- meter calibration -------------------------------------------------
  /// Each lane's meter calibration: provision_meter's gain() and
  /// offset_w() for the node, read contiguously by the lane kernels.
  std::vector<double> gain;
  std::vector<double> offset_w;
  double noise_sd = 0.0;  ///< shared accuracy class (fixed per campaign)
  /// Per-node per-sample noise (provision_meter's stream for the node):
  /// 8-byte immutable origins, read at each sample's meter-global index.
  std::vector<NoiseStream> noise;

  // --- PSU lanes ----------------------------------------------------------
  std::vector<const CompiledPsuCurve*> curve;  ///< null lanes = DC tap
  FleetPsuBank bank;  ///< fleet-major ac_from_dc over the curve lanes

  [[nodiscard]] std::size_t size() const { return node.size(); }
};

/// Provisioning inputs shared by every meter of a campaign.
struct FleetProvisionSpec {
  MeterAccuracy accuracy;
  MeterMode mode = MeterMode::kSampled;
  Seconds interval{1.0};
  std::uint64_t seed = 1;
};

/// One device's meter and its per-sample noise.
struct ProvisionedMeter {
  MeterModel meter;
  NoiseStream noise;
};

/// The meter on RNG stream `stream`: calibration drawn from one salted
/// Rng stream, per-sample noise from one salted NoiseStream, both keyed
/// by `stream` and the campaign seed.  Every provisioning site —
/// fleet lanes, rack and facility taps, check meters — builds its meters
/// here, so a device's streams are the same wherever it is metered.
[[nodiscard]] ProvisionedMeter provision_meter(const FleetProvisionSpec& spec,
                                               std::uint64_t stream);

/// Provisions a FleetState for the cohort `nodes`, sharded over `pool`
/// into at most `max_chunks` ranges (0 = one per worker) when given.
/// Every lane is a pure function of its own node id (streams keyed per
/// node, slots disjoint), so the build is bit-identical at any thread
/// count.  `cluster` fills mean_w; `electrical` binds the PSU curve lanes
/// and the bank (null on DC taps, whose lanes meter the DC draw).
[[nodiscard]] FleetState build_fleet_state(
    std::span<const std::size_t> nodes, const FleetProvisionSpec& spec,
    const ClusterPowerModel* cluster, const SystemPowerModel* electrical,
    ThreadPool* pool = nullptr, std::size_t max_chunks = 0);

/// Fleet-major accumulator block: the SoA transpose of DeviceMeter's
/// clean-path state (open window sum, closed-window means, energy,
/// reconcile buckets), one entry per lane.  Workers own disjoint lane
/// ranges, so the block is shared without synchronization.
struct FleetAccumulators {
  std::vector<double> win_sum;   ///< open window, left-to-right chained
  std::vector<double> mean_acc;  ///< sum of closed-window means
  std::vector<double> energy_j;
  /// Reconcile buckets, row-major: analysis window a occupies
  /// [a*nodes, (a+1)*nodes).  Empty when not reconciling.
  std::vector<double> bucket_sum;
  /// Per-analysis-window sample counts.  On the clean path every lane
  /// sees every sample, so the counts are shared across lanes — computed
  /// once from the sample grid (count_analysis_samples), not per lane.
  std::vector<std::size_t> bucket_n;
  std::size_t nodes = 0;

  void init(std::size_t n, std::size_t analysis_windows);
  /// Closes the open window of lanes [begin, end) after `samples` readings
  /// at interval `dt`: the window mean joins mean_acc, the window energy
  /// joins energy_j and the open sum resets.  `means`, when non-null and
  /// indexed by lane, receives each lane's window mean.
  void close_window(std::size_t begin, std::size_t end, std::size_t samples,
                    double dt, double* means = nullptr);
};

/// Reused per-worker staging for the node-tap kernels.
struct FleetScratch {
  /// One byte per chunk sample: 1 where the sample starts a shape run
  /// (mark_shape_runs), marked once per call for every tile or lane.
  std::vector<std::uint8_t> run_starts;
  /// The current tile's clean readings (truth * gain + offset), one per
  /// lane, of the current shape run; refilled where a run starts.
  std::vector<double> clean;
  /// The current tile's standard normal draws of the current block of
  /// samples, sample-major (normal_block): 64 lanes x 32 samples, 16 KB.
  std::vector<double> draws;
  std::vector<double> dc;   ///< one plane's per-lane DC loads
  std::vector<double> ac;   ///< per-plane per-lane AC (or DC) draws
  std::vector<double> lf;   ///< FleetPsuBank blend staging
  std::vector<double> eff;  ///< FleetPsuBank blend staging
  /// One lane's readings of a window (stream_lane_window's output for the
  /// faulted lanes).
  std::vector<double> readings;
};

/// Maps one chunk's samples onto the analysis windows: out[k] is the
/// index of the analysis window containing the bucket time of
/// window-global sample chunk.first + k (the exact DeviceMeter::bucket
/// expression t0 + (first + k + 0.5) * dt, first match wins), or -1 when
/// none contains it.  The grid is shared across the clean cohort, so this
/// runs once per chunk, not per node.
void map_analysis_samples(const ShapeTable& chunk,
                          const std::vector<TimeWindow>& analysis,
                          std::vector<std::int32_t>& out);

/// Adds one chunk's per-analysis-window sample counts into `bucket_n`.
/// An entry naming a row `bucket_n` lacks is a contract_error.
void count_analysis_samples(std::span<const std::int32_t> a_idx,
                            std::span<std::size_t> bucket_n);

/// Lane `lane`'s readings of one chunk into `readings` (resized to
/// table.samples): the node's DC draw mean_w * shape at every quadrature
/// point, through its PSU curve on an AC tap, reduced to the sample's
/// truth (GL4 when integrated), calibrated as truth * gain + offset and,
/// with noise, scaled by 1 + noise_sd * z, z drawn at meter-global index
/// k0 + i — MeterModel::measure's readings from the same draws, bit for
/// bit.  The clean reading is recomputed only where `run_starts` (the
/// table's mark_shape_runs, one byte per sample, marked once by the
/// caller for every lane it meters) marks a shape run; marks of another
/// length are a contract_error.
void stream_lane_window(const ShapeTable& table,
                        std::span<const std::uint8_t> run_starts,
                        const FleetState& fleet, std::size_t lane,
                        std::uint64_t k0, std::vector<double>& readings);

/// Streams one chunk (from build_shape_chunk) for lanes [begin, end) into
/// `acc` — stream_lane_window's readings chained into each lane's open
/// window sum and, when `a_idx` (the chunk's map_analysis_samples) is
/// non-empty, into its reconcile bucket row.  The kernel marks the
/// chunk's shape-run starts once, then walks 64-lane tiles in blocks of
/// 32 samples: each block's noise comes from one normal_block call, each
/// lane's clean reading is recomputed (through the PSU bank) only where a
/// run starts, and every sample only scales and adds.  Chunk sample i
/// draws every lane's noise at meter-global index k0 + i.  Workers must
/// own disjoint lane ranges.  A map entry naming a bucket row `acc` lacks
/// (acc.bucket_n.size() rows) is a contract_error.
void stream_fleet_chunk(const ShapeTable& chunk,
                        std::span<const std::int32_t> a_idx,
                        const FleetState& fleet, std::uint64_t k0,
                        std::size_t begin, std::size_t end,
                        FleetAccumulators& acc, FleetScratch& scratch);

}  // namespace pv
