// powervar_bench — runs one benchmark workload and prints its metrics.
//
//   powervar_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--commit ID] [--source DIGEST]
//
// Prints a machine-shape header and one line per metric (name, value,
// unit, sample count or base), then, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}.  --trace 0 reports the end-to-end metrics of an untraced run;
// --trace 1 reports the per-layer metrics of a traced run.  perfbench/run.py
// builds this program and checks its metric set against BENCHMARK.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "core/doc.hpp"

namespace {

struct Args {
  pvb::Options opt;
  std::string commit = "unknown";
  std::string source = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.opt.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.opt.seconds = std::stod(value);
      if (!(a.opt.seconds > 0.0)) {
        throw std::invalid_argument("--seconds must be positive");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      a.opt.trace = value == "1";
    } else if (key == "--commit") {
      a.commit = value;
    } else if (key == "--source") {
      a.source = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

pvb::Report run(const pvb::Options& opt) {
  if (opt.workload == "campaign_clean") return pvb::run_campaign_clean(opt);
  if (opt.workload == "service_mix") return pvb::run_service_mix(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "powervar_bench: " << e.what() << '\n';
    return 2;
  }
  const pvb::Options& opt = args.opt;
  std::cout << "# powervar benchmark: workload=" << opt.workload
            << " seed=" << opt.seed << " seconds=" << opt.seconds
            << " trace=" << (opt.trace ? 1 : 0) << '\n';
  const double parallelism = pvb::print_machine_header(args.commit, args.source);

  pvb::Report report;
  try {
    report = run(opt);
  } catch (const std::exception& e) {
    std::cerr << "powervar_bench: " << e.what() << '\n';
    return 1;
  }

  pvb::print_thread_scaling(parallelism);
  for (const std::string& line : report.notes) std::cout << "# " << line << '\n';
  pv::Json metrics = pv::Json::object();
  for (const pvb::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "powervar_bench: metric " << m.name << " is not finite\n";
      return 1;
    }
    std::printf("%-28s %14s %-6s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str(), m.detail.c_str());
    pv::Json entry = pv::Json::object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[m.name] = std::move(entry);
  }
  const pvb::Tally& tally = report.tally;
  const double failed_ratio =
      static_cast<double>(tally.failed()) /
      static_cast<double>(std::max<std::size_t>(1, tally.attempted()));
  std::printf("%-28s %14s %-6s %zu failed of %zu attempted (%zu operations + "
              "%zu correctness checks)\n",
              "failed_ratio", fmt(failed_ratio).c_str(), "ratio",
              tally.failed(), tally.attempted(), tally.operations(),
              tally.attempted() - tally.operations());
  for (const std::string& f : tally.failures()) {
    std::cout << "# FAILED: " << f << '\n';
  }

  pv::Json out = pv::Json::object();
  out["correct"] = tally.failed() == 0;
  out["attempted"] = static_cast<unsigned long long>(tally.attempted());
  out["failed"] = static_cast<unsigned long long>(tally.failed());
  out["metrics"] = std::move(metrics);
  std::cout << out.dump() << std::endl;
  return 0;
}
