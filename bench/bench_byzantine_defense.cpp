// Byzantine-defense contract: lying meters must not move the submitted
// power once the campaign reconciles them away.
//
// The scenario from the PR contract: a Level 3 campaign (every node
// metered) where 5% of the node meters lie — the forced-byzantine cycle of
// gain drift, W-vs-kW unit mixups, clock skew and recalibration steps.
// Undefended, the unit mixups alone multiply a handful of readings by 1000
// and the extrapolation misses truth by orders of magnitude.  Defended,
// hierarchical cross-validation (core/reconcile) convicts the liars,
// quarantines the drifts/steps, undoes the unit errors exactly, and the
// submission must land back inside the paper's 2% accuracy band.
//
// Contracts enforced (ctest `byzantine_defense_contract`):
//   1. undefended relative error > 10%;
//   2. defended relative error <= 2%;
//   3. the defense restores the clean baseline to within 0.5%;
//   4. verdicts and the submitted number are bit-identical at 1 and 4
//      worker threads (pure function of seed + plan).
//
// Env overrides: PV_BYZ_NODES (default 240).

#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "sim/cluster.hpp"
#include "sim/fleet.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace pv;

struct Rig {
  std::unique_ptr<ClusterPowerModel> cluster;
  std::unique_ptr<SystemPowerModel> electrical;
  MeasurementPlan plan;
};

Rig make_rig(std::size_t n_nodes) {
  ScenarioSpec spec;
  spec.name = "byzantine-rig";
  spec.nodes = n_nodes;
  spec.cv = 0.03;
  spec.fleet_seed = 7;
  Scenario built = build_scenario(spec);
  Rig rig;
  rig.cluster = std::move(built.cluster);
  rig.electrical = std::move(built.electrical);
  rig.plan = built.plan(MethodologySpec::get(Level::kL3, Revision::kV2015), 11);
  return rig;
}

// 5% of the planned meters, spread evenly so every rack sees liars.
std::vector<std::size_t> pick_byzantine(const MeasurementPlan& plan,
                                        double fraction) {
  const std::size_t count = plan.node_indices.size();
  const auto n_byz =
      static_cast<std::size_t>(fraction * static_cast<double>(count) + 0.5);
  const double stride =
      static_cast<double>(count) / static_cast<double>(n_byz);
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < n_byz; ++k) {
    out.push_back(plan.node_indices[static_cast<std::size_t>(
        static_cast<double>(k) * stride)]);
  }
  return out;
}

CampaignConfig base_config() {
  CampaignConfig cfg;
  cfg.seed = 5;
  cfg.meter_interval_override = Seconds{5.0};
  return cfg;
}

}  // namespace

int main() {
  bench::banner("byzantine-defense",
                "lying meters vs hierarchical cross-validation, L3");

  const std::size_t n_nodes = bench::env_size("PV_BYZ_NODES", 240);
  const Rig rig = make_rig(n_nodes);
  const std::vector<std::size_t> liars = pick_byzantine(rig.plan, 0.05);

  // Clean baseline: no faults, no reconciliation.
  const auto clean = run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                                  base_config());

  // Undefended: liars injected, pipeline as before this PR.
  CampaignConfig undefended_cfg = base_config();
  undefended_cfg.faults.byzantine_meters = liars;
  const auto undefended = run_campaign(*rig.cluster, *rig.electrical,
                                       rig.plan, undefended_cfg);

  // Defended: same liars, reconciliation on (serial).
  CampaignConfig defended_cfg = undefended_cfg;
  defended_cfg.reconcile.enabled = true;
  const auto defended = run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                                     defended_cfg);

  // Thread-determinism probe: the same defended campaign fanned out on 4
  // workers must reproduce every bit.
  CampaignConfig threaded_cfg = defended_cfg;
  threaded_cfg.threads = 4;
  const auto threaded = run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                                     threaded_cfg);

  TextTable t({"pipeline", "submitted", "true err", "quarantined",
               "corrected"});
  const auto row = [&](const std::string& name, const CampaignResult& r) {
    const ReconcileReport& ir = r.data_quality.integrity;
    t.add_row({name, to_string(r.submitted_power),
               fmt_percent(r.relative_error, 2),
               std::to_string(ir.meters_quarantined),
               std::to_string(ir.meters_corrected)});
  };
  row("clean (no liars)", clean);
  row("undefended", undefended);
  row("defended", defended);
  row("defended, 4 threads", threaded);
  std::cout << t.render();
  std::cout << "\n" << liars.size() << " of " << rig.plan.node_count()
            << " meters byzantine (drift/unit/clock/step cycle)\n";
  std::cout << integrity_quality_report(defended.data_quality);

  bool ok = true;
  if (undefended.relative_error <= 0.10) {
    std::cout << "CONTRACT VIOLATED: undefended error "
              << fmt_percent(undefended.relative_error, 2)
              << " — the injected faults are not damaging enough (> 10% "
                 "expected)\n";
    ok = false;
  }
  if (defended.relative_error > 0.02) {
    std::cout << "CONTRACT VIOLATED: defended error "
              << fmt_percent(defended.relative_error, 2)
              << " exceeds the paper's 2% accuracy band\n";
    ok = false;
  }
  const double restored = std::fabs(defended.submitted_power.value() -
                                    clean.submitted_power.value()) /
                          clean.submitted_power.value();
  if (restored > 0.005) {
    std::cout << "CONTRACT VIOLATED: defended submission is "
              << fmt_percent(restored, 3)
              << " from the clean baseline (limit 0.5%)\n";
    ok = false;
  }
  if (threaded.submitted_power.value() != defended.submitted_power.value() ||
      threaded.data_quality.integrity.meters_quarantined !=
          defended.data_quality.integrity.meters_quarantined ||
      threaded.data_quality.integrity.meters_corrected !=
          defended.data_quality.integrity.meters_corrected) {
    std::cout << "CONTRACT VIOLATED: verdicts or submission changed with "
                 "the thread count\n";
    ok = false;
  }
  if (defended.data_quality.integrity.meters_quarantined +
          defended.data_quality.integrity.meters_corrected ==
      0) {
    std::cout << "CONTRACT VIOLATED: the defense convicted nothing\n";
    ok = false;
  }

  std::cout << (ok ? "\nall byzantine-defense contracts hold\n"
                   : "\nsome contracts VIOLATED\n");
  return ok ? 0 : 1;
}
