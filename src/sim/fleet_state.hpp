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
// lanes, per-node noise origins) let the streaming
// window kernels run sample-major with the *node index as the SIMD lane*.
// Per-node accumulator chains are independent across lanes, so the
// previously serial sum becomes an elementwise vector add.
//
// Byte-identity contract (the repo's signature): every lane performs the
// exact scalar expressions of the per-node path, operand for operand, in
// the per-node order — each node's window sums still chain left-to-right,
// and each reading draws its node's noise stream at the same meter-global
// sample index — so gathered results are bit-identical to the per-node
// reference at any thread count and chunk size (ctest-enforced by
// test_meter_engine).  After provisioning the table is read-only: the
// noise streams are random-access origins, not generator state.  The
// project builds with -ffp-contract=off, so the shared expressions round
// identically in every translation unit.
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

/// Stream salts for per-meter calibration and per-sample noise — shared
/// by every provisioning site (node, rack, facility and check meters) so a
/// node's streams are identical wherever it is metered.
inline constexpr std::uint64_t kCalibrationSalt = 0x5CA1AB1EULL;
inline constexpr std::uint64_t kNoiseSalt = 0xBADCAB1EULL;

/// The metered cohort, transposed.  Lane i is the i-th node of the plan's
/// selection (plan order); all vectors are parallel.
struct FleetState {
  // --- identity / provisioned draw --------------------------------------
  std::vector<std::size_t> node;  ///< cluster node ids, plan order
  std::vector<double> mean_w;     ///< per-node mean DC draw (0 w/o cluster)

  // --- meter calibration -------------------------------------------------
  /// SoA mirrors of meters[i].gain()/offset_w() — the fused kernels read
  /// these contiguously; the per-node paths use the models directly.
  std::vector<double> gain;
  std::vector<double> offset_w;
  double noise_sd = 0.0;  ///< shared accuracy class (fixed per campaign)
  /// Per-node meter models for the per-node code paths (faulted windows,
  /// the dense-chunk fallback, the eager reference stage).  Calibration
  /// streams keyed by node id, exactly as the inline construction sites
  /// draw them.
  std::vector<MeterModel> meters;
  /// Per-node per-sample noise (NoiseStream(seed ^ kNoiseSalt, node)):
  /// 8-byte immutable origins, read at each sample's meter-global index.
  std::vector<NoiseStream> noise;

  // --- PSU lanes ----------------------------------------------------------
  std::vector<const CompiledPsuCurve*> curve;  ///< null lanes = DC tap
  FleetPsuBank bank;  ///< fleet-major ac_from_dc over the curve lanes

  std::vector<std::size_t> samples_expected;  ///< per meter, over all windows

  [[nodiscard]] std::size_t size() const { return node.size(); }
};

/// Provisioning inputs shared by every lane.
struct FleetProvisionSpec {
  MeterAccuracy accuracy;
  MeterMode mode = MeterMode::kSampled;
  Seconds interval{1.0};
  std::uint64_t seed = 1;
};

/// Provisions a FleetState for the cohort `nodes`, sharded over `pool`
/// into at most `max_chunks` ranges (0 = one per worker) when given.
/// Every lane is a pure function of its own node id (streams keyed per
/// node, slots disjoint), so the build is bit-identical at any thread
/// count.  `cluster` fills mean_w; `electrical` binds the PSU curve lanes
/// and the bank (null on DC taps, whose lanes meter the DC draw).
/// `windows` sizes samples_expected.
[[nodiscard]] FleetState build_fleet_state(
    std::span<const std::size_t> nodes, const FleetProvisionSpec& spec,
    const std::vector<TimeWindow>& windows, const ClusterPowerModel* cluster,
    const SystemPowerModel* electrical, ThreadPool* pool = nullptr,
    std::size_t max_chunks = 0);

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

/// Reused per-worker staging for the fused kernels.
struct FleetScratch {
  std::vector<double> acl;  ///< levels x lanes AC matrix (row-major by level)
  std::vector<double> dc;   ///< per-lane DC staging for one level
  std::vector<double> lf;   ///< FleetPsuBank blend staging
  std::vector<double> eff;  ///< FleetPsuBank blend staging
  StreamScratch node;       ///< per-node fallback (dense chunks)
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
void count_analysis_samples(std::span<const std::int32_t> a_idx,
                            std::span<std::size_t> bucket_n);

/// Streams one chunk (from build_shape_chunk) for lanes [begin, end) into
/// `acc` — the fused form of stream_node_window plus the per-node window
/// sum, sample-major with the node index as the vector lane.  Each
/// reading chains into its lane's open window sum and, when `a_idx` (the
/// chunk's map_analysis_samples) is non-empty, into its reconcile bucket
/// row.  Chunks with deduplicated shape levels run the fused lane
/// kernels; dense chunks (ramps past the level cap) fall back to the
/// per-node kernel, chained into the same accumulators.  Chunk sample i
/// draws every lane's noise at meter-global index k0 + i.  Workers must
/// own disjoint lane ranges.
void stream_fleet_chunk(const ShapeTable& chunk,
                        std::span<const std::int32_t> a_idx,
                        const FleetState& fleet, std::uint64_t k0,
                        std::size_t begin, std::size_t end,
                        FleetAccumulators& acc, FleetScratch& scratch);

}  // namespace pv
