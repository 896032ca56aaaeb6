#include "sim/fleet_state.hpp"

#include <algorithm>
#include <cmath>

#include "util/expects.hpp"

namespace pv {

// --------------------------------------------------------------------------
// Provisioning

namespace {

// Stream salts for per-meter calibration and per-sample noise.
constexpr std::uint64_t kCalibrationSalt = 0x5CA1AB1EULL;
constexpr std::uint64_t kNoiseSalt = 0xBADCAB1EULL;

}  // namespace

ProvisionedMeter provision_meter(const FleetProvisionSpec& spec,
                                 std::uint64_t stream) {
  Rng calibration(spec.seed ^ kCalibrationSalt, stream);
  return ProvisionedMeter{
      MeterModel(spec.accuracy, spec.mode, spec.interval, calibration),
      NoiseStream(spec.seed ^ kNoiseSalt, stream)};
}

FleetState build_fleet_state(std::span<const std::size_t> nodes,
                             const FleetProvisionSpec& spec,
                             const ClusterPowerModel* cluster,
                             const SystemPowerModel* electrical,
                             ThreadPool* pool, std::size_t max_chunks) {
  const std::size_t n = nodes.size();
  FleetState fs;
  fs.node.assign(nodes.begin(), nodes.end());
  fs.mean_w.assign(n, 0.0);
  fs.gain.assign(n, 1.0);
  fs.offset_w.assign(n, 0.0);
  fs.noise_sd = spec.accuracy.noise_sd;
  fs.noise.assign(n, NoiseStream(0, 0));
  fs.curve.assign(n, nullptr);

  // Every slot is a pure function of its own node id: calibration and
  // noise streams are keyed per node, the mean and curve are lookups, so
  // sharding preserves the per-node streams and is thread-invariant.
  const auto provision = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const std::size_t id = fs.node[i];
      const ProvisionedMeter provisioned = provision_meter(spec, id);
      fs.gain[i] = provisioned.meter.gain();
      fs.offset_w[i] = provisioned.meter.offset_w();
      fs.noise[i] = provisioned.noise;
      if (cluster != nullptr) {
        PV_EXPECTS(id < cluster->node_count(),
                   "plan references missing node");
        fs.mean_w[i] = cluster->node_means()[id];
      }
      if (electrical != nullptr) {
        fs.curve[i] = &electrical->node_psu(id).compiled();
      }
    }
  };
  parallel_chunks(pool, n, provision, max_chunks);
  fs.bank = FleetPsuBank::build(fs.curve);
  return fs;
}

// --------------------------------------------------------------------------
// Analysis-window mapping (reconcile buckets)

namespace {

// True when every entry of `a_idx` is negative (no window) or a row below
// `rows`.
bool map_within(std::span<const std::int32_t> a_idx, std::size_t rows) {
  return std::all_of(a_idx.begin(), a_idx.end(), [rows](std::int32_t a) {
    return a < 0 || static_cast<std::size_t>(a) < rows;
  });
}

}  // namespace

void map_analysis_samples(const ShapeTable& chunk,
                          const std::vector<TimeWindow>& analysis,
                          std::vector<std::int32_t>& out) {
  out.assign(chunk.samples, -1);
  for (std::size_t k = 0; k < chunk.samples; ++k) {
    // The exact DeviceMeter::bucket time expression on the window-global
    // sample index; first match wins, like the per-node linear scan.
    const double t =
        chunk.t_begin + (static_cast<double>(chunk.first + k) + 0.5) * chunk.dt;
    for (std::size_t a = 0; a < analysis.size(); ++a) {
      const TimeWindow& aw = analysis[a];
      if (t >= aw.begin.value() && t < aw.end.value()) {
        out[k] = static_cast<std::int32_t>(a);
        break;
      }
    }
  }
}

void count_analysis_samples(std::span<const std::int32_t> a_idx,
                            std::span<std::size_t> bucket_n) {
  PV_EXPECTS(map_within(a_idx, bucket_n.size()),
             "analysis map names a bucket row the counts lack");
  for (const std::int32_t a : a_idx) {
    if (a >= 0) ++bucket_n[static_cast<std::size_t>(a)];
  }
}

// --------------------------------------------------------------------------
// Fused fleet kernels

void FleetAccumulators::init(std::size_t n, std::size_t analysis_windows) {
  nodes = n;
  win_sum.assign(n, 0.0);
  mean_acc.assign(n, 0.0);
  energy_j.assign(n, 0.0);
  bucket_sum.assign(analysis_windows * n, 0.0);
  bucket_n.assign(analysis_windows, 0);
}

void FleetAccumulators::close_window(std::size_t begin, std::size_t end,
                                     std::size_t samples, double dt,
                                     double* means) {
  const double count = static_cast<double>(samples);
  for (std::size_t i = begin; i < end; ++i) {
    // 0.0 + win_sum: the exact expression the historical per-window
    // accumulator produced (a bulk push into a fresh accumulator added
    // the batch sum onto the zero seed).
    const double total = 0.0 + win_sum[i];
    const double window_mean = total / count;
    mean_acc[i] += window_mean;
    energy_j[i] += total * dt;
    win_sum[i] = 0.0;
    if (means != nullptr) means[i] = window_mean;
  }
}

namespace {

// Lanes per tile and samples per noise block: a tile's block of draws
// (16 KB), its clean row, window sums and bucket rows stay in L1 while the
// block's samples are accumulated.
constexpr std::size_t kTileLanes = 64;
constexpr std::size_t kBlockSamples = 32;

// The GL4 reduce of one sample's four quadrature-point draws, in the
// left-to-right order of MeterModel::measure's `truth += kWs[q] * w`
// loop (whose 0.0 seed is exact for the non-negative powers here).
inline double gl4_truth(double a0, double a1, double a2, double a3) {
  return ((gl4::kWs[0] * a0 + gl4::kWs[1] * a1) + gl4::kWs[2] * a2) +
         gl4::kWs[3] * a3;
}

// Adds one sample's readings of a tile's w lanes into their window sums
// and, with kBucket, into their bucket row: the clean reading, scaled by
// 1 + sd * z[i] when kNoisy.  One loop per instantiation, since GCC at -O2
// does not unswitch an inner `if (bs)` (a merged loop ran perfect-meter
// chunks at half the speed); the operands never alias, and saying so
// spares every call a run-time overlap check.
template <bool kNoisy, bool kBucket>
void accumulate(std::size_t w, const double* __restrict clean,
                const double* __restrict z, double sd,
                double* __restrict win, double* __restrict bs) {
  for (std::size_t i = 0; i < w; ++i) {
    double v = clean[i];
    if constexpr (kNoisy) v *= 1.0 + sd * z[i];
    win[i] += v;
    if constexpr (kBucket) bs[i] += v;
  }
}

// Feeds one chunk's samples into win_sum (and bucket rows, when mapped)
// for lanes [begin, end).  Every lane evaluates stream_lane_window's
// expressions and the left-to-right window sum, operand for operand,
// drawing its own noise stream at the sample's meter-global index k0 + k.
//
// The lanes are walked in tiles of kTileLanes, each tile's samples in
// blocks of kBlockSamples: one normal_block call draws a block's noise
// for the tile, then its samples are accumulated in order.  Every lane
// still sees its samples in order, so tiling moves no bit.  A lane's
// clean reading changes only where a shape run starts, so the kernel
// keeps one clean row per tile and refills it there (through the PSU
// bank, one plane at a time); the run starts are marked once per call,
// not once per tile, so the tiles do not re-read the shape table.  Each
// sample then costs its adds (accumulate).
void fused_chunk(const ShapeTable& table, const FleetState& fleet,
                 std::uint64_t k0, std::size_t begin, std::size_t end,
                 double* win_sum, const std::int32_t* a_idx,
                 double* bucket_sum, std::size_t bucket_stride,
                 FleetScratch& scratch) {
  const std::size_t m = end - begin;
  const std::size_t samples = table.samples;
  const std::size_t planes = table.mode == MeterMode::kIntegrated ? 4 : 1;
  mark_shape_runs(table, scratch.run_starts);
  const std::uint8_t* const starts = scratch.run_starts.data();

  const double sd = fleet.noise_sd;
  scratch.clean.resize(kTileLanes);
  double* const clean = scratch.clean.data();
  scratch.draws.resize(kTileLanes * kBlockSamples);
  double* const draws = scratch.draws.data();
  scratch.dc.resize(kTileLanes);
  double* const dc = scratch.dc.data();
  scratch.ac.resize(kTileLanes * planes);
  double* const ac = scratch.ac.data();

  for (std::size_t t = 0; t < m; t += kTileLanes) {
    const std::size_t w = std::min(kTileLanes, m - t);
    const double* const mean = fleet.mean_w.data() + begin + t;
    const double* const gain = fleet.gain.data() + begin + t;
    const double* const off = fleet.offset_w.data() + begin + t;
    double* const win = win_sum + begin + t;
    const std::span<const NoiseStream> noise(fleet.noise.data() + begin + t,
                                             w);
    // The tile's clean row at sample k: each plane's DC loads through the
    // bank (the lanes' ac_from_dc, or the DC draw on a DC tap), reduced
    // and calibrated.
    const auto fill_clean = [&](std::size_t k) {
      for (std::size_t q = 0; q < planes; ++q) {
        const double shape = table.shape[q * samples + k];
        for (std::size_t i = 0; i < w; ++i) dc[i] = mean[i] * shape;
        fleet.bank.ac_from_dc_fleet(std::span<const double>(dc, w),
                                    std::span<double>(ac + q * kTileLanes, w),
                                    begin + t, scratch.lf, scratch.eff);
      }
      if (planes == 4) {
        const double* const a0 = ac;
        const double* const a1 = ac + kTileLanes;
        const double* const a2 = ac + 2 * kTileLanes;
        const double* const a3 = ac + 3 * kTileLanes;
        for (std::size_t i = 0; i < w; ++i) {
          clean[i] =
              gl4_truth(a0[i], a1[i], a2[i], a3[i]) * gain[i] + off[i];
        }
      } else {
        for (std::size_t i = 0; i < w; ++i) {
          clean[i] = ac[i] * gain[i] + off[i];
        }
      }
    };

    for (std::size_t b = 0; b < samples; b += kBlockSamples) {
      const std::size_t block = std::min(kBlockSamples, samples - b);
      if (sd > 0.0) {
        normal_block(noise, k0 + b, block,
                     std::span<double>(draws, block * w));
      }
      for (std::size_t s = 0; s < block; ++s) {
        const std::size_t k = b + s;
        if (starts[k] != 0) fill_clean(k);
        double* bs = nullptr;
        if (a_idx != nullptr && a_idx[k] >= 0) {
          bs = bucket_sum +
               static_cast<std::size_t>(a_idx[k]) * bucket_stride + begin + t;
        }
        const double* const z = draws + s * w;
        if (sd > 0.0) {
          if (bs != nullptr) {
            accumulate<true, true>(w, clean, z, sd, win, bs);
          } else {
            accumulate<true, false>(w, clean, z, sd, win, bs);
          }
        } else if (bs != nullptr) {
          accumulate<false, true>(w, clean, z, sd, win, bs);
        } else {
          accumulate<false, false>(w, clean, z, sd, win, bs);
        }
      }
    }
  }
}

}  // namespace

void stream_lane_window(const ShapeTable& table,
                        std::span<const std::uint8_t> run_starts,
                        const FleetState& fleet, std::size_t lane,
                        std::uint64_t k0, std::vector<double>& readings) {
  PV_EXPECTS(lane < fleet.size(), "lane out of fleet");
  PV_EXPECTS(run_starts.size() == table.samples,
             "run marks not parallel to the table");
  const std::size_t samples = table.samples;
  const std::size_t planes = table.mode == MeterMode::kIntegrated ? 4 : 1;
  const double mean = fleet.mean_w[lane];
  const CompiledPsuCurve* const curve = fleet.curve[lane];
  const double gain = fleet.gain[lane];
  const double off = fleet.offset_w[lane];
  const double sd = fleet.noise_sd;
  const NoiseStream noise = fleet.noise[lane];
  readings.resize(samples);
  double clean = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    if (run_starts[i] != 0) {
      double a[4] = {};
      for (std::size_t q = 0; q < planes; ++q) {
        const double dc = mean * table.shape[q * samples + i];
        a[q] = curve != nullptr ? curve->ac_from_dc(dc) : dc;
      }
      const double truth =
          planes == 4 ? gl4_truth(a[0], a[1], a[2], a[3]) : a[0];
      clean = truth * gain + off;
    }
    double v = clean;
    if (sd > 0.0) v *= 1.0 + sd * noise.normal(k0 + i);
    readings[i] = v;
  }
}

void stream_fleet_chunk(const ShapeTable& chunk,
                        std::span<const std::int32_t> a_idx,
                        const FleetState& fleet, std::uint64_t k0,
                        std::size_t begin, std::size_t end,
                        FleetAccumulators& acc, FleetScratch& scratch) {
  PV_EXPECTS(end <= fleet.size() && begin <= end, "lane range out of fleet");
  PV_EXPECTS(acc.nodes == fleet.size(), "accumulators not sized to fleet");
  PV_EXPECTS(a_idx.empty() || a_idx.size() == chunk.samples,
             "analysis map not parallel to the chunk");
  PV_EXPECTS(map_within(a_idx, acc.bucket_n.size()),
             "analysis map names a bucket row the accumulators lack");
  fused_chunk(chunk, fleet, k0, begin, end, acc.win_sum.data(),
              a_idx.empty() ? nullptr : a_idx.data(), acc.bucket_sum.data(),
              acc.nodes, scratch);
}

}  // namespace pv
