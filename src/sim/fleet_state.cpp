#include "sim/fleet_state.hpp"

#include <cmath>

#include "util/expects.hpp"

namespace pv {

// --------------------------------------------------------------------------
// Provisioning

FleetState build_fleet_state(std::span<const std::size_t> nodes,
                             const FleetProvisionSpec& spec,
                             const std::vector<TimeWindow>& windows,
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
  fs.samples_expected.assign(n, 0);

  // Every slot is a pure function of its own node id: calibration and
  // noise streams are keyed per node, the mean and curve are lookups, so
  // sharding preserves the per-node streams and is thread-invariant.
  const auto provision = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const std::size_t id = fs.node[i];
      Rng calibration(spec.seed ^ kCalibrationSalt, id);
      MeterModel meter(spec.accuracy, spec.mode, spec.interval, calibration);
      fs.gain[i] = meter.gain();
      fs.offset_w[i] = meter.offset_w();
      std::size_t expected = 0;
      for (const TimeWindow& w : windows) expected += meter.samples_in(w);
      fs.samples_expected[i] = expected;
      fs.meters[i] = std::move(meter);
      fs.noise[i] = NoiseStream(spec.seed ^ kNoiseSalt, id);
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
    // FusedAccumulator produced (bulk push into a fresh accumulator adds
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

// Feeds one chunk's samples into win_sum (and bucket rows, when mapped)
// for lanes [begin, end).  Level-indexed tables only — the caller routes
// dense tables through the per-node kernel.  Every lane evaluates the
// per-node expressions of stream_node_window + apply_errors + the
// left-to-right window sum, operand for operand, drawing its own noise
// stream at the sample's meter-global index k0 + k.
void fused_level_chunk(const ShapeTable& table, const FleetState& fleet,
                       std::uint64_t k0, std::size_t begin, std::size_t end,
                       double* win_sum,
                       const std::int32_t* a_idx, double* bucket_sum,
                       std::size_t bucket_stride, FleetScratch& scratch) {
  const std::size_t m = end - begin;
  const std::size_t nl = table.levels.size();
  const std::size_t samples = table.samples;
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

  const double* const gain = fleet.gain.data() + begin;
  const double* const off = fleet.offset_w.data() + begin;
  double* const win = win_sum + begin;
  const NoiseStream* const noise = fleet.noise.data() + begin;
  const double sd = fleet.noise_sd;
  const std::uint32_t* const idx = table.level_idx.data();
  const double* const acl = scratch.acl.data();

  const auto bucket_row = [&](std::size_t k) -> double* {
    if (a_idx == nullptr) return nullptr;
    const std::int32_t a = a_idx[k];
    if (a < 0) return nullptr;
    return bucket_sum + static_cast<std::size_t>(a) * bucket_stride + begin;
  };

  if (table.mode == MeterMode::kIntegrated) {
    const std::uint32_t* const i0 = idx;
    const std::uint32_t* const i1 = idx + samples;
    const std::uint32_t* const i2 = idx + 2 * samples;
    const std::uint32_t* const i3 = idx + 3 * samples;
    for (std::size_t k = 0; k < samples; ++k) {
      const double* const r0 = acl + static_cast<std::size_t>(i0[k]) * m;
      const double* const r1 = acl + static_cast<std::size_t>(i1[k]) * m;
      const double* const r2 = acl + static_cast<std::size_t>(i2[k]) * m;
      const double* const r3 = acl + static_cast<std::size_t>(i3[k]) * m;
      double* const bs = bucket_row(k);
      if (sd > 0.0) {
        const std::uint64_t draw = k0 + k;
        for (std::size_t i = 0; i < m; ++i) {
          const double truth =
              ((gl4::kWs[0] * r0[i] + gl4::kWs[1] * r1[i]) +
               gl4::kWs[2] * r2[i]) +
              gl4::kWs[3] * r3[i];
          double v = truth * gain[i] + off[i];
          v *= 1.0 + sd * noise[i].normal(draw);
          win[i] += v;
          if (bs != nullptr) bs[i] += v;
        }
      } else if (bs != nullptr) {
        for (std::size_t i = 0; i < m; ++i) {
          const double truth =
              ((gl4::kWs[0] * r0[i] + gl4::kWs[1] * r1[i]) +
               gl4::kWs[2] * r2[i]) +
              gl4::kWs[3] * r3[i];
          const double v = truth * gain[i] + off[i];
          win[i] += v;
          bs[i] += v;
        }
      } else {
        for (std::size_t i = 0; i < m; ++i) {
          const double truth =
              ((gl4::kWs[0] * r0[i] + gl4::kWs[1] * r1[i]) +
               gl4::kWs[2] * r2[i]) +
              gl4::kWs[3] * r3[i];
          const double v = truth * gain[i] + off[i];
          win[i] += v;
        }
      }
    }
  } else {
    for (std::size_t k = 0; k < samples; ++k) {
      const double* const row = acl + static_cast<std::size_t>(idx[k]) * m;
      double* const bs = bucket_row(k);
      if (sd > 0.0) {
        const std::uint64_t draw = k0 + k;
        for (std::size_t i = 0; i < m; ++i) {
          double v = row[i] * gain[i] + off[i];
          v *= 1.0 + sd * noise[i].normal(draw);
          win[i] += v;
          if (bs != nullptr) bs[i] += v;
        }
      } else if (bs != nullptr) {
        for (std::size_t i = 0; i < m; ++i) {
          const double v = row[i] * gain[i] + off[i];
          win[i] += v;
          bs[i] += v;
        }
      } else {
        for (std::size_t i = 0; i < m; ++i) {
          const double v = row[i] * gain[i] + off[i];
          win[i] += v;
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
