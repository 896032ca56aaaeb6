#pragma once
// Shared scenario builder.  The CLI, the bench harnesses and the campaign
// tests all exercised the same synthetic machine — a Firestarter-driven
// fleet with typical-CPU variability, 16-node racks, platinum PSUs and the
// default auxiliaries (AuxiliaryConfig{}: constant network, storage,
// infrastructure and cooling draws totalling 15% of the compute core-phase
// average) — but each hand-rolled its own copy of the construction.
// ScenarioSpec/build_scenario is the single source of that rig: one place
// to read what the canonical 240-node scenario *is*, and one place to
// change it.
//
// This lives in core (not sim) deliberately: the builder also derives
// PlanInputs and can plan a measurement, and plan_measurement is a core
// symbol — a sim-side builder would invert the util -> ... -> sim -> core
// static-library link order.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "sim/cluster.hpp"
#include "sim/fleet.hpp"

namespace pv {

/// A ScenarioSpec that cannot be built: zero node count, a fleet beyond
/// the supported scale, or sample accounting that would overflow the
/// exact integer range of a double.  Thrown by the builders before any
/// allocation happens; the CLI maps it to the usage exit code (2) — bad
/// input, not a failed campaign.
class ScenarioError : public std::invalid_argument {
 public:
  explicit ScenarioError(const std::string& what)
      : std::invalid_argument(what) {}
};

/// Declarative description of a synthetic measurement scenario.  Defaults
/// match the canonical rig every harness used; callers override the few
/// fields they care about (name, node count, cv, seed).
struct ScenarioSpec {
  std::string name = "synthetic";
  std::size_t nodes = 64;
  /// Fleet node-to-node coefficient of variation; the generated fleet
  /// uses FleetVariability::typical_cpu() rescaled to this, with the
  /// outlier process disabled for reproducible spreads.
  double cv = 0.02;
  double mean_node_w = 400.0;
  /// Seed for the fleet draw (generate_node_powers).  Callers deriving it
  /// from a campaign seed keep their historical mixing (e.g. the CLI's
  /// `seed ^ 0x99`) so existing outputs are unchanged.
  std::uint64_t fleet_seed = 1;
  std::size_t nodes_per_rack = 16;
  /// Firestarter workload phases (minutes): steady core burn, ramp, tail.
  double run_minutes = 30.0;
  double load = 1.0;
  double ramp_minutes = 2.0;
  double tail_minutes = 1.0;
};

/// A built scenario: the cluster, its lowered electrical model, and the
/// PlanInputs every planner call derives from.  The electrical model is
/// lowered through make_system_power_model, so campaigns on every tap
/// pass Provision's lowered-model check.
struct Scenario {
  std::unique_ptr<ClusterPowerModel> cluster;
  std::unique_ptr<SystemPowerModel> electrical;
  PlanInputs inputs;

  /// Plans a measurement under `spec` with a fresh Rng(plan_seed) — the
  /// common single-plan case.  Callers that thread one Rng across several
  /// plans call plan_measurement(spec, inputs, rng) themselves.
  [[nodiscard]] MeasurementPlan plan(const MethodologySpec& spec,
                                     std::uint64_t plan_seed) const;
};

/// Builds the scenario: generates the fleet, constructs the cluster and
/// its electrical model (platinum PSUs, AuxiliaryConfig{} auxiliaries at
/// 15% of compute power), and fills PlanInputs from the cluster's phases.
[[nodiscard]] Scenario build_scenario(const ScenarioSpec& spec);

/// Builds the scenario from an externally supplied fleet draw instead of
/// generating one — `powers.size()` must equal `spec.nodes`.  The fleet
/// means are the only nondeterministic-looking input to a build, so
/// build_scenario(spec) is exactly build_scenario_with_powers(spec,
/// generate_node_powers(...)); the persistent provision cache uses this
/// to reconstruct a scenario bit-identically from spilled node means.
[[nodiscard]] Scenario build_scenario_with_powers(const ScenarioSpec& spec,
                                                  std::vector<double> powers);

}  // namespace pv
