// Library micro-benchmarks (google-benchmark): the hot paths behind the
// reproduction — RNG, meter noise (per draw and per block), the fused fleet
// metering kernel, quantiles, trace window statistics, fleet generation,
// sliding-window sweeps and the coverage inner loop.

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/coverage.hpp"
#include "core/sample_size.hpp"
#include "core/scenario.hpp"
#include "sim/catalog.hpp"
#include "sim/fleet.hpp"
#include "sim/fleet_state.hpp"
#include "stats/rng.hpp"
#include "stats/sampling.hpp"
#include "stats/special.hpp"
#include "trace/window_select.hpp"
#include "workload/hpl.hpp"
#include "workload/profiles.hpp"

namespace {

/// Every micro-benchmark reports the process peak-RSS high-watermark as
/// a counter (ru_maxrss is monotone, so the number is the peak up to and
/// including this benchmark's run) — the bench-hygiene counterpart of
/// the per-row peak_rss_mb in bench_perf's BENCH_perf.json.
void report_peak_rss(benchmark::State& state) {
  state.counters["peak_rss_mb"] =
      benchmark::Counter(pv::bench::peak_rss_mb());
}

void BM_RngNext(benchmark::State& state) {
  pv::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
  report_peak_rss(state);
}
BENCHMARK(BM_RngNext);

void BM_RngNormal(benchmark::State& state) {
  pv::Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal());
  report_peak_rss(state);
}
BENCHMARK(BM_RngNormal);

/// Per-sample meter noise in the fused engine's access pattern: one draw
/// from each of 4096 lanes' streams at one shared sample index, the index
/// advancing per iteration.  Items are draws, so ns per draw is
/// 1e9 / items_per_second.
void BM_MeterNoise(benchmark::State& state) {
  constexpr std::size_t kLanes = 4096;
  std::vector<pv::NoiseStream> lanes;
  lanes.reserve(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) lanes.emplace_back(0xBADCAB1E, i);
  std::vector<double> out(kLanes);
  std::uint64_t k = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kLanes; ++i) out[i] = lanes[i].normal(k);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    ++k;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLanes));
  report_peak_rss(state);
}
BENCHMARK(BM_MeterNoise);

/// Meter noise through normal_block, the fused kernel's draw.  Arg 0 is a
/// 20k-lane row of one sample per iteration (a campaign-wide row), arg 1 a
/// 64-lane x 32-sample block (the kernel's tile and block); the first
/// index advances per iteration.  Items are draws, so ns per lane-sample
/// is 1e9 / items_per_second.  The label names the path this CPU takes
/// (normal_block_path).
void BM_NoiseBlock(benchmark::State& state) {
  const std::size_t lanes_n = state.range(0) != 0 ? 64 : 20000;
  const std::size_t samples = state.range(0) != 0 ? 32 : 1;
  std::vector<pv::NoiseStream> lanes;
  lanes.reserve(lanes_n);
  for (std::size_t i = 0; i < lanes_n; ++i) lanes.emplace_back(0xBADCAB1E, i);
  std::vector<double> out(lanes_n * samples);
  std::uint64_t k0 = 0;
  for (auto _ : state) {
    pv::normal_block(lanes, k0, samples, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    k0 += samples;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes_n * samples));
  state.SetLabel(pv::normal_block_path());
  report_peak_rss(state);
}
BENCHMARK(BM_NoiseBlock)->Arg(0)->Arg(1);

/// A block whose words all fail the ziggurat's rectangle test: 2048 lanes
/// whose words at both kIndex and kIndex + 1 fail, drawn two samples per
/// call, so the block's rejection path runs alone on lists that mix the
/// two samples.  Items are rejected words, so ns per rejected word is
/// 1e9 / items_per_second.
void BM_NoiseBlockRejected(benchmark::State& state) {
  constexpr std::size_t kLanes = 2048;
  constexpr std::size_t kSamples = 2;
  constexpr std::uint64_t kIndex = 12345;
  const auto fails = [](std::uint64_t w) {
    return !(std::fabs(pv::zignor::signed_unit(w)) <
             pv::zignor::kTables.r[pv::zignor::block_of(w)]);
  };
  std::vector<pv::NoiseStream> lanes;
  lanes.reserve(kLanes);
  for (std::uint64_t stream = 0; lanes.size() < kLanes; ++stream) {
    const pv::NoiseStream lane(0xBADCAB1E, stream);
    if (fails(lane.word(kIndex)) && fails(lane.word(kIndex + 1))) {
      lanes.push_back(lane);
    }
  }
  std::vector<double> out(kLanes * kSamples);
  for (auto _ : state) {
    pv::normal_block(lanes, kIndex, kSamples, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLanes * kSamples));
  state.SetLabel(pv::normal_block_path());
  report_peak_rss(state);
}
BENCHMARK(BM_NoiseBlockRejected);

/// The fused lane kernel of clean node-tap metering (stream_fleet_chunk)
/// over a 20k-lane PDU-grade node-AC fleet: one 1800-sample chunk, the
/// 30-minute core window at a 1 s interval.  Arg 0 meters sampled (0,
/// L1/L2 midpoints) or integrated (1, L3 Gauss-Legendre); arg 1 runs the
/// scenario's FIRESTARTER cluster (0), whose flat core is one shape run,
/// or the same fleet under MPrime (1), whose drifting core starts a run
/// at every sample.  Items are lane-samples, so ns per lane-sample is
/// 1e9 / items_per_second.
void BM_FusedChunk(benchmark::State& state) {
  constexpr std::size_t kLanes = 20000;
  constexpr std::size_t kSamples = 1800;
  const pv::Seconds interval{1.0};
  const pv::MeterMode mode = state.range(0) != 0 ? pv::MeterMode::kIntegrated
                                                 : pv::MeterMode::kSampled;
  pv::ScenarioSpec spec;
  spec.nodes = kLanes;
  pv::Scenario scenario = pv::build_scenario(spec);
  if (state.range(1) != 0) {
    const std::span<const double> means = scenario.cluster->node_means();
    auto cluster = std::make_unique<pv::ClusterPowerModel>(
        "mprime", std::vector<double>(means.begin(), means.end()),
        std::make_shared<pv::MprimeWorkload>(pv::minutes(30.0)));
    scenario.electrical = std::make_unique<pv::SystemPowerModel>(
        pv::make_system_power_model(*cluster, spec.nodes_per_rack,
                                    pv::PsuEfficiencyCurve::platinum(),
                                    pv::AuxiliaryConfig{}));
    scenario.cluster = std::move(cluster);
  }
  std::vector<std::size_t> nodes(kLanes);
  std::iota(nodes.begin(), nodes.end(), std::size_t{0});
  pv::FleetProvisionSpec provision;
  provision.accuracy = pv::MeterAccuracy::pdu_grade();
  provision.mode = mode;
  provision.interval = interval;
  const pv::FleetState fleet =
      pv::build_fleet_state(nodes, provision, scenario.cluster.get(),
                            scenario.electrical.get());
  pv::ShapeTable chunk;
  pv::build_shape_chunk(*scenario.cluster,
                        scenario.cluster->phases().core_window(), interval,
                        mode, 0, kSamples, chunk);
  pv::FleetAccumulators acc;
  acc.init(kLanes, 0);
  pv::FleetScratch scratch;
  std::uint64_t k0 = 0;
  for (auto _ : state) {
    pv::stream_fleet_chunk(chunk, {}, fleet, k0, 0, kLanes, acc, scratch);
    benchmark::DoNotOptimize(acc.win_sum.data());
    benchmark::ClobberMemory();
    k0 += kSamples;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLanes * kSamples));
  report_peak_rss(state);
}
BENCHMARK(BM_FusedChunk)
    ->ArgNames({"integrated", "drifting"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_NormQuantile(benchmark::State& state) {
  double p = 0.0001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pv::norm_quantile(p));
    p += 1e-6;
    if (p >= 1.0) p = 0.0001;
  }
  report_peak_rss(state);
}
BENCHMARK(BM_NormQuantile);

void BM_TQuantile(benchmark::State& state) {
  const double nu = static_cast<double>(state.range(0));
  double p = 0.7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pv::t_quantile(p, nu));
    p += 1e-5;
    if (p >= 0.999) p = 0.7;
  }
  report_peak_rss(state);
}
BENCHMARK(BM_TQuantile)->Arg(3)->Arg(15)->Arg(291);

void BM_TraceWindowMean(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> w(n, 100.0);
  const pv::PowerTrace trace(pv::Seconds{0.0}, pv::Seconds{1.0}, std::move(w));
  const pv::TimeWindow win{pv::Seconds{static_cast<double>(n) * 0.1},
                           pv::Seconds{static_cast<double>(n) * 0.9}};
  for (auto _ : state) benchmark::DoNotOptimize(trace.mean_power(win));
  state.SetItemsProcessed(state.iterations());
  report_peak_rss(state);
}
BENCHMARK(BM_TraceWindowMean)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_WindowSweep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  pv::Rng rng(3);
  std::vector<double> w(n);
  for (auto& v : w) v = 100.0 + rng.uniform(0.0, 20.0);
  const pv::PowerTrace trace(pv::Seconds{0.0}, pv::Seconds{1.0}, std::move(w));
  const pv::TimeWindow bounds{pv::Seconds{0.0},
                              pv::Seconds{static_cast<double>(n)}};
  const pv::Seconds width{static_cast<double>(n) / 5.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pv::min_average_window(trace, bounds, width));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  report_peak_rss(state);
}
BENCHMARK(BM_WindowSweep)->Arg(1 << 12)->Arg(1 << 15);

void BM_FleetGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto var = pv::FleetVariability::typical_cpu();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pv::generate_node_powers(n, 500.0, var, 1));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  report_peak_rss(state);
}
BENCHMARK(BM_FleetGeneration)->Arg(480)->Arg(9216)->Arg(18688);

void BM_NodeInstanceBuild(benchmark::State& state) {
  const pv::NodeSpec spec = pv::catalog::lcsc_node_spec();
  std::uint64_t stream = 0;
  for (auto _ : state) {
    pv::Rng rng(7, stream++);
    pv::NodeInstance node(spec, rng);
    benchmark::DoNotOptimize(
        node.dc_power(1.0, pv::NodeSettings::defaults()));
  }
  report_peak_rss(state);
}
BENCHMARK(BM_NodeInstanceBuild);

void BM_HplIntensity(benchmark::State& state) {
  const pv::HplWorkload hpl(pv::HplParams::gpu_incore(), pv::hours(1.5));
  double t = 0.0;
  const double T = pv::hours(1.5).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hpl.intensity(t));
    t += 0.37;
    if (t >= T) t = 0.0;
  }
  report_peak_rss(state);
}
BENCHMARK(BM_HplIntensity);

void BM_SampleWithoutReplacement(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  pv::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pv::sample_without_replacement(rng, n, n / 64));
  }
  report_peak_rss(state);
}
BENCHMARK(BM_SampleWithoutReplacement)->Arg(9216)->Arg(18688);

void BM_CoverageStudyInnerLoop(benchmark::State& state) {
  pv::Rng pilot_rng(6);
  std::vector<double> pilot(516);
  for (auto& x : pilot) x = pilot_rng.normal(209.88, 5.31);
  pv::CoverageConfig cfg;
  cfg.full_system_nodes = 9216;
  cfg.sample_sizes = {5};
  cfg.confidence_levels = {0.95};
  cfg.simulations = 200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pv::coverage_study(pilot, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 200);
  report_peak_rss(state);
}
BENCHMARK(BM_CoverageStudyInnerLoop);

void BM_RequiredSampleSize(benchmark::State& state) {
  double cv = 0.015;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pv::required_sample_size(0.05, 0.01, cv, 10000));
    cv += 1e-6;
    if (cv > 0.05) cv = 0.015;
  }
  report_peak_rss(state);
}
BENCHMARK(BM_RequiredSampleSize);

}  // namespace
