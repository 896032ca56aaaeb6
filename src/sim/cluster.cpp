#include "sim/cluster.hpp"

#include <cmath>
#include <numeric>

#include "util/expects.hpp"

namespace pv {

ClusterPowerModel::ClusterPowerModel(std::string name,
                                     std::vector<double> node_mean_powers,
                                     std::shared_ptr<const Workload> workload,
                                     double static_fraction)
    : name_(std::move(name)),
      mean_w_(std::move(node_mean_powers)),
      workload_(std::move(workload)),
      static_fraction_(static_fraction) {
  PV_EXPECTS(!mean_w_.empty(), "cluster needs nodes");
  PV_EXPECTS(workload_ != nullptr, "cluster needs a workload");
  PV_EXPECTS(static_fraction >= 0.0 && static_fraction < 1.0,
             "static fraction in [0,1)");
  for (double p : mean_w_) {
    PV_EXPECTS(p > 0.0, "node mean power must be positive");
  }
  core_mean_intensity_ = workload_->core_mean_intensity();
  PV_EXPECTS(core_mean_intensity_ > 0.0,
             "workload core intensity must be positive");
  const double total = std::accumulate(mean_w_.begin(), mean_w_.end(), 0.0);
  sum_static_ = static_fraction_ * total;
  sum_dynamic_ = (1.0 - static_fraction_) * total / core_mean_intensity_;
}

double ClusterPowerModel::shape(double t) const {
  // Per-watt-of-mean shape factor shared by every node (balanced run):
  // static_fraction + (1 - static_fraction) * intensity(t) / mean intensity.
  return static_fraction_ + (1.0 - static_fraction_) *
                                workload_->intensity(t) / core_mean_intensity_;
}

double ClusterPowerModel::node_power_w(std::size_t i, double t) const {
  PV_EXPECTS(i < mean_w_.size(), "node index out of range");
  return mean_w_[i] * shape(t);
}

ClusterPowerModel::NodePower ClusterPowerModel::node_function(
    std::size_t i) const {
  PV_EXPECTS(i < mean_w_.size(), "node index out of range");
  return NodePower{this, i};
}

double ClusterPowerModel::system_power_w(double t) const {
  return sum_static_ + sum_dynamic_ * workload_->intensity(t);
}

PowerFunction ClusterPowerModel::system_function() const {
  return [this](double t) { return system_power_w(t); };
}

Watts ClusterPowerModel::system_core_mean() const {
  return Watts{std::accumulate(mean_w_.begin(), mean_w_.end(), 0.0)};
}

PowerTrace ClusterPowerModel::system_core_trace(Seconds dt) const {
  const RunPhases p = phases();
  const auto n = static_cast<std::size_t>(
      std::floor(p.core.value() / dt.value() + 1e-9));
  return PowerTrace::from_function(p.core_begin(), dt, n,
                                   system_function());
}

PowerTrace ClusterPowerModel::system_full_trace(Seconds dt) const {
  const RunPhases p = phases();
  const auto n = static_cast<std::size_t>(
      std::floor(p.total().value() / dt.value() + 1e-9));
  return PowerTrace::from_function(Seconds{0.0}, dt, n, system_function());
}

SystemPowerModel make_system_power_model(const ClusterPowerModel& cluster,
                                         std::size_t nodes_per_rack,
                                         const PsuEfficiencyCurve& psu_curve,
                                         const AuxiliaryConfig& aux,
                                         double psu_headroom) {
  PV_EXPECTS(psu_headroom >= 1.0, "PSU headroom must be >= 1");
  SystemPowerModel model(cluster.name(), nodes_per_rack);

  // Peak node shape factor over the run, for PSU sizing.
  const RunPhases phases = cluster.phases();
  double peak_shape = 0.0;
  constexpr std::size_t kScan = 512;
  for (std::size_t i = 0; i <= kScan; ++i) {
    const double t = phases.total().value() * static_cast<double>(i) /
                     static_cast<double>(kScan);
    // shape is identical across nodes; probe through node 0.
    peak_shape = std::max(peak_shape,
                          cluster.node_power_w(0, t) / cluster.node_means()[0]);
  }

  // One PSU model serves the whole fleet: compile its breakpoint table
  // once (the table does not depend on the rating) and rebind it to each
  // node's rated output, which shares the table instead of copying it.
  const CompiledPsuCurve fleet_curve(psu_curve, Watts{1.0});
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    const double rated =
        cluster.node_means()[i] * peak_shape * psu_headroom;
    model.add_node(cluster.node_function(i),
                   PsuModel(Watts{rated}, fleet_curve));
  }

  const double compute_mean = cluster.system_core_mean().value();
  const auto constant = [](double w) {
    return [w](double) { return w; };
  };
  if (aux.network_frac > 0.0) {
    model.add_subsystem(Subsystem::kNetwork, "interconnect",
                        constant(compute_mean * aux.network_frac));
  }
  if (aux.storage_frac > 0.0) {
    model.add_subsystem(Subsystem::kStorage, "parallel filesystem",
                        constant(compute_mean * aux.storage_frac));
  }
  if (aux.infrastructure_frac > 0.0) {
    model.add_subsystem(Subsystem::kInfrastructure, "service nodes",
                        constant(compute_mean * aux.infrastructure_frac));
  }
  if (aux.cooling_frac > 0.0) {
    model.add_subsystem(Subsystem::kCooling, "in-machine cooling",
                        constant(compute_mean * aux.cooling_frac));
  }
  return model;
}

}  // namespace pv
