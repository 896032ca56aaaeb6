// Library micro-benchmarks (google-benchmark): the hot paths behind the
// reproduction — RNG, meter noise, quantiles, trace window statistics,
// fleet generation, sliding-window sweeps and the coverage inner loop.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.hpp"
#include "core/coverage.hpp"
#include "core/sample_size.hpp"
#include "sim/catalog.hpp"
#include "sim/fleet.hpp"
#include "stats/rng.hpp"
#include "stats/sampling.hpp"
#include "stats/special.hpp"
#include "trace/window_select.hpp"
#include "workload/hpl.hpp"

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
