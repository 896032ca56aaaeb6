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
  fs.meters.resize(n);
  fs.noise.assign(n, NoiseStream(0, 0));
  fs.curve.assign(n, nullptr);

  // Every slot is a pure function of its own node id: calibration and
  // noise streams are keyed per node, the mean and curve are lookups, so
  // sharding preserves the per-node streams and is thread-invariant.
  const auto provision = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const std::size_t id = fs.node[i];
      ProvisionedMeter provisioned = provision_meter(spec, id);
      fs.gain[i] = provisioned.meter.gain();
      fs.offset_w[i] = provisioned.meter.offset_w();
      fs.meters[i] = std::move(provisioned.meter);
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
// for lanes [begin, end).  Level-indexed tables only — the caller routes
// dense tables through the per-node kernel.  Every lane evaluates the
// per-node expressions of stream_node_window + apply_errors + the
// left-to-right window sum, operand for operand, drawing its own noise
// stream at the sample's meter-global index k0 + k.
//
// The lanes are walked in tiles of kTileLanes, each tile's samples in
// blocks of kBlockSamples: one normal_block call draws a block's noise
// for the tile, then its samples are accumulated in order.  Every lane
// still sees its samples in order, so tiling moves no bit.  A sample's
// clean reading (GL4 truth, then truth * gain + off) depends only on its
// level indices, and steady phases repeat them for long runs of samples,
// so the kernel keeps one clean row per tile and refills it only where a
// sample's indices (all four planes when integrated) differ from the
// previous sample's.  Each sample then costs its adds (accumulate).
void fused_level_chunk(const ShapeTable& table, const FleetState& fleet,
                       std::uint64_t k0, std::size_t begin, std::size_t end,
                       double* win_sum,
                       const std::int32_t* a_idx, double* bucket_sum,
                       std::size_t bucket_stride, FleetScratch& scratch) {
  const std::size_t m = end - begin;
  const std::size_t nl = table.levels.size();
  const std::size_t samples = table.samples;
  const std::size_t planes = table.mode == MeterMode::kIntegrated ? 4 : 1;
  // AC-at-level matrix: acl[l*m + i] = lane (begin+i)'s clean AC (or DC
  // pass-through) at shape level l — the per-node `acl[l]` table, built
  // fleet-major through the PSU bank (bit-identical per lane).
  scratch.acl.resize(nl * m);
  scratch.dc.resize(m);
  const double* const mean = fleet.mean_w.data() + begin;
  for (std::size_t l = 0; l < nl; ++l) {
    const double level = table.levels[l];
    double* const dc = scratch.dc.data();
    for (std::size_t i = 0; i < m; ++i) dc[i] = mean[i] * level;
    fleet.bank.ac_from_dc_fleet(
        std::span<const double>(scratch.dc.data(), m),
        std::span<double>(scratch.acl.data() + l * m, m), begin, scratch.lf,
        scratch.eff);
  }

  const double sd = fleet.noise_sd;
  const std::uint32_t* const idx = table.level_idx.data();
  scratch.clean.resize(kTileLanes);
  double* const clean = scratch.clean.data();
  scratch.draws.resize(kTileLanes * kBlockSamples);
  double* const draws = scratch.draws.data();

  const auto same_levels = [&](std::size_t k) {
    for (std::size_t q = 0; q < planes; ++q) {
      if (idx[q * samples + k] != idx[q * samples + k - 1]) return false;
    }
    return true;
  };

  for (std::size_t t = 0; t < m; t += kTileLanes) {
    const std::size_t w = std::min(kTileLanes, m - t);
    const double* const gain = fleet.gain.data() + begin + t;
    const double* const off = fleet.offset_w.data() + begin + t;
    double* const win = win_sum + begin + t;
    const std::span<const NoiseStream> noise(fleet.noise.data() + begin + t,
                                             w);
    // Plane q of sample k reads level row idx[q*samples + k], from this
    // tile's first lane.
    const auto row = [&](std::size_t q, std::size_t k) {
      return scratch.acl.data() +
             static_cast<std::size_t>(idx[q * samples + k]) * m + t;
    };
    const auto fill_clean = [&](std::size_t k) {
      if (planes == 4) {
        const double* const r0 = row(0, k);
        const double* const r1 = row(1, k);
        const double* const r2 = row(2, k);
        const double* const r3 = row(3, k);
        for (std::size_t i = 0; i < w; ++i) {
          const double truth = ((gl4::kWs[0] * r0[i] + gl4::kWs[1] * r1[i]) +
                                gl4::kWs[2] * r2[i]) +
                               gl4::kWs[3] * r3[i];
          clean[i] = truth * gain[i] + off[i];
        }
      } else {
        const double* const r = row(0, k);
        for (std::size_t i = 0; i < w; ++i) clean[i] = r[i] * gain[i] + off[i];
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
        if (k == 0 || !same_levels(k)) fill_clean(k);
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

// Dense-table fallback: one per-node pass through the proven scalar
// kernel, chained into the fleet accumulators in sample order.
void dense_chunk(const ShapeTable& table, const FleetState& fleet,
                 std::uint64_t k0, std::size_t begin, std::size_t end,
                 double* win_sum,
                 const std::int32_t* a_idx, double* bucket_sum,
                 std::size_t bucket_stride, FleetScratch& scratch) {
  for (std::size_t lane = begin; lane < end; ++lane) {
    stream_node_window(table, fleet.mean_w[lane], fleet.curve[lane],
                       fleet.meters[lane], fleet.noise[lane], k0,
                       scratch.node);
    const std::vector<double>& readings = scratch.node.readings;
    double s = win_sum[lane];
    for (const double x : readings) s += x;
    win_sum[lane] = s;
    if (a_idx != nullptr) {
      for (std::size_t j = 0; j < readings.size(); ++j) {
        const std::int32_t a = a_idx[j];
        if (a >= 0) {
          bucket_sum[static_cast<std::size_t>(a) * bucket_stride + lane] +=
              readings[j];
        }
      }
    }
  }
}

}  // namespace

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
  const std::int32_t* const map = a_idx.empty() ? nullptr : a_idx.data();
  if (!chunk.levels.empty()) {
    fused_level_chunk(chunk, fleet, k0, begin, end, acc.win_sum.data(), map,
                      acc.bucket_sum.data(), acc.nodes, scratch);
  } else {
    dense_chunk(chunk, fleet, k0, begin, end, acc.win_sum.data(), map,
                acc.bucket_sum.data(), acc.nodes, scratch);
  }
}

}  // namespace pv
