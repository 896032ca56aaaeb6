#pragma once
// ClusterPowerModel: a whole machine running a balanced workload.
//
// Combines (a) per-node time-averaged powers — from either fleet generator
// — with (b) a Workload intensity shape, under the linear decomposition
//
//   p_i(t) = static_i + dynamic_i * intensity(t),
//
// where static_i is a fixed fraction of the node's mean power and
// dynamic_i is chosen so the node's core-phase time average equals its
// assigned mean exactly.  Balanced workloads drive every node with the
// same shape (the paper's extrapolation premise); per-node AR(1) noise can
// be layered by the metering path.
//
// The model exposes ground truth at node and system level and can be
// lowered into a meter/SystemPowerModel (PSUs, racks, auxiliary
// subsystems) for full measurement campaigns.

#include <memory>
#include <string>
#include <vector>

#include "meter/hierarchy.hpp"
#include "trace/time_series.hpp"
#include "workload/workload.hpp"

namespace pv {

class ClusterPowerModel {
 public:
  /// Node `node`'s ground-truth DC draw as a named callable.  The lowered
  /// electrical model registers these (make_system_power_model), so a
  /// campaign can check that a node's truth is this cluster's node by
  /// type and identity, without evaluating it.
  struct NodePower {
    const ClusterPowerModel* cluster;
    std::size_t node;
    double operator()(double t) const { return cluster->node_power_w(node, t); }
  };

  /// `node_mean_powers`: per-node DC time average over the core phase (W).
  /// `static_fraction`: share of node power that does not scale with
  /// workload intensity (idle + leakage + fans).
  ClusterPowerModel(std::string name, std::vector<double> node_mean_powers,
                    std::shared_ptr<const Workload> workload,
                    double static_fraction = 0.35);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t node_count() const { return mean_w_.size(); }
  [[nodiscard]] const Workload& workload() const { return *workload_; }
  [[nodiscard]] RunPhases phases() const { return workload_->phases(); }

  /// Ground-truth DC power of node i at absolute run time t.
  [[nodiscard]] double node_power_w(std::size_t i, double t) const;
  [[nodiscard]] NodePower node_function(std::size_t i) const;

  /// Per-watt-of-mean shape factor at time t — identical for every node
  /// of a balanced run, so node i's power is `node_means()[i] *
  /// shape_factor(t)`.  Streaming kernels evaluate the shape once per
  /// time-grid point and reuse it across the whole cohort instead of
  /// re-walking the workload model per node.
  [[nodiscard]] double shape_factor(double t) const { return shape(t); }

  /// Ground-truth whole-system DC power (sum over nodes) at time t —
  /// O(1) via cached coefficient sums.
  [[nodiscard]] double system_power_w(double t) const;
  [[nodiscard]] PowerFunction system_function() const;

  /// The exact per-node core-phase means this model was built from.
  [[nodiscard]] std::span<const double> node_means() const { return mean_w_; }
  /// Exact system core-phase average power.
  [[nodiscard]] Watts system_core_mean() const;

  /// Samples the system power over the core phase.
  [[nodiscard]] PowerTrace system_core_trace(Seconds dt) const;
  /// Samples the full run (setup + core + teardown).
  [[nodiscard]] PowerTrace system_full_trace(Seconds dt) const;

 private:
  std::string name_;
  std::vector<double> mean_w_;
  std::shared_ptr<const Workload> workload_;
  double static_fraction_;
  double core_mean_intensity_;
  double sum_static_ = 0.0;
  double sum_dynamic_ = 0.0;

  [[nodiscard]] double shape(double t) const;  // (static + dyn*intensity)/mean
};

/// Auxiliary-subsystem sizing for lowering into a SystemPowerModel,
/// expressed as fractions of the compute core-phase average.
struct AuxiliaryConfig {
  double network_frac = 0.06;
  double storage_frac = 0.03;
  double infrastructure_frac = 0.02;
  double cooling_frac = 0.04;
};

/// Lowers the cluster into the electrical model used by measurement
/// campaigns: per-node PSUs on the given efficiency curve (sized with
/// `psu_headroom` over the node's peak draw, all sharing one compiled
/// breakpoint table), racks of `nodes_per_rack`, and constant-power
/// auxiliary subsystems per `aux`.
///
/// Lifetime: the returned model's power functions reference `cluster`;
/// the cluster must outlive the returned SystemPowerModel.
[[nodiscard]] SystemPowerModel make_system_power_model(
    const ClusterPowerModel& cluster, std::size_t nodes_per_rack,
    const PsuEfficiencyCurve& psu_curve, const AuxiliaryConfig& aux,
    double psu_headroom = 1.4);

}  // namespace pv
