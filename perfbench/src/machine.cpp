// Shared helpers (quantiles, tally, stage spans, rss) and the
// machine-shape header printed on every run.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "core/spec.hpp"

namespace pvb {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void Tally::record(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what);
}

double span_ms(const Spans& spans, const std::string& name) {
  double ms = 0.0;
  for (const auto& [n, v] : spans) {
    if (n == name) ms += v;
  }
  return ms;
}

double span_sum_ms(const Spans& spans) {
  double ms = 0.0;
  for (const auto& span : spans) ms += span.second;
  return ms;
}

void TimedStage::run(pv::CampaignContext& ctx, pv::StageTrace& trace) {
  const auto t0 = Clock::now();
  inner_->run(ctx, trace);
  spans_.emplace_back(inner_->name(), ms_between(t0, Clock::now()));
}

std::vector<pv::StagePtr> timed(std::vector<pv::StagePtr> stages,
                                Spans& spans) {
  for (pv::StagePtr& stage : stages) {
    stage = std::make_unique<TimedStage>(std::move(stage), spans);
  }
  return stages;
}

const pv::StageTrace* find_stage(const pv::CampaignResult& result,
                                 const std::string& stage) {
  for (const pv::StageTrace& t : result.stage_traces) {
    if (t.stage == stage) return &t;
  }
  return nullptr;
}

double stage_counter(const pv::CampaignResult& result, const std::string& stage,
                     const std::string& key) {
  const pv::StageTrace* t = find_stage(result, stage);
  if (t == nullptr) return 0.0;
  for (const auto& [k, v] : t->counters) {
    if (k == key) return v;
  }
  return 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Cores the machine actually delivers: `threads` threads spin for
/// `seconds` of wall time, and the sum of their CPU times over that wall
/// time is the effective parallelism (nproc overstates it on a shared or
/// throttled host).
double effective_parallelism(unsigned threads, double seconds) {
  std::vector<double> cpu(threads, 0.0);
  std::vector<std::thread> workers;
  std::atomic<double> sink{0.0};
  const auto t0 = Clock::now();
  const auto until = t0 + std::chrono::duration<double>(seconds);
  for (unsigned i = 0; i < threads; ++i) {
    workers.emplace_back([&cpu, &sink, until, i] {
      const double c0 = thread_cpu_s();
      double x = 1.0;
      while (Clock::now() < until) {
        for (int k = 0; k < 1000; ++k) x = x * 1.0000001 + 1e-9;
      }
      cpu[i] = thread_cpu_s() - c0;
      sink.store(x, std::memory_order_relaxed);
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall_s = ms_between(t0, Clock::now()) / 1000.0;
  double total = 0.0;
  for (double c : cpu) total += c;
  return total / wall_s;
}

/// Meter-stage speed-up of a 16k-node Level 3 campaign at 2 threads over
/// 1 thread (median of three campaigns each, 10 s meter interval).
double meter_scaling_2_over_1() {
  pv::ScenarioSpec spec;
  spec.nodes = 16384;
  spec.fleet_seed = 7;
  const pv::Scenario sc = pv::build_scenario(spec);
  const pv::MeasurementPlan plan = sc.plan(
      pv::MethodologySpec::get(pv::Level::kL3, pv::Revision::kV2015), 7);
  double ms[2] = {0.0, 0.0};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    pv::CampaignConfig config;
    config.meter_interval_override = pv::Seconds{10.0};
    config.threads = threads;
    std::vector<double> runs;
    for (int r = 0; r < 3; ++r) {
      const pv::CampaignResult res =
          pv::run_campaign(*sc.cluster, *sc.electrical, plan, config);
      const pv::StageTrace* meter = find_stage(res, "meter");
      runs.push_back(meter != nullptr ? meter->wall_ms : 0.0);
    }
    ms[threads - 1] = median(runs);
  }
  return ms[1] > 0.0 ? ms[0] / ms[1] : 0.0;
}

}  // namespace

double print_machine_header(const std::string& commit,
                            const std::string& source) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
#if defined(__clang__)
  const char* compiler = "clang";
#elif defined(__GNUC__)
  const char* compiler = "gcc";
#else
  const char* compiler = "c++";
#endif
  std::cout << "# machine: compiler=" << compiler << ' ' << __VERSION__
            << " build=" << PVB_BUILD_TYPE << " flags=\"" << PVB_FLAGS
            << "\"\n";
  const double eff = effective_parallelism(nproc, 0.25);
  std::printf("# machine: nproc=%u effective_parallelism=%.2f (%u spinning "
              "threads, 0.25 s)\n",
              nproc, eff, nproc);
  std::cout << "# source: commit=" << commit << " digest=" << source << '\n';
  return eff;
}

void print_thread_scaling(double effective_parallelism) {
  if (effective_parallelism >= 2.0) {
    std::printf("# machine: thread_scaling=%.2fx (meter stage, 2 threads over "
                "1, 16k-node L3 campaign)\n",
                meter_scaling_2_over_1());
  } else {
    std::printf("# machine: thread_scaling=not measurable here (effective "
                "parallelism %.2f < 2)\n",
                effective_parallelism);
  }
}

}  // namespace pvb
