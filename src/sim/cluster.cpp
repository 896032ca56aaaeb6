#include "sim/cluster.hpp"

#include <algorithm>
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

Watts ClusterPowerModel::system_core_mean() const {
  return Watts{std::accumulate(mean_w_.begin(), mean_w_.end(), 0.0)};
}

// --------------------------------------------------------------------------
// The electrical model

SystemPowerModel::SystemPowerModel(const ClusterPowerModel& cluster,
                                   std::size_t nodes_per_rack)
    : cluster_(&cluster), nodes_per_rack_(nodes_per_rack) {
  PV_EXPECTS(nodes_per_rack_ > 0, "racks must hold at least one node");
}

std::size_t SystemPowerModel::rack_count() const {
  return (psus_.size() + nodes_per_rack_ - 1) / nodes_per_rack_;
}

double SystemPowerModel::node_dc_w(std::size_t node, double t) const {
  PV_EXPECTS(node < psus_.size(), "node index out of range");
  return cluster_->node_power_w(node, t);
}

double SystemPowerModel::node_ac_w(std::size_t node, double t) const {
  PV_EXPECTS(node < psus_.size(), "node index out of range");
  return psus_[node].ac_input(Watts{cluster_->node_power_w(node, t)}).value();
}

double SystemPowerModel::rack_pdu_w(std::size_t rack, double t) const {
  PV_EXPECTS(rack < rack_count(), "rack index out of range");
  const std::size_t begin = rack * nodes_per_rack_;
  const std::size_t end = std::min(begin + nodes_per_rack_, psus_.size());
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += node_ac_w(i, t);
  return sum / (1.0 - kPduLossFraction);
}

double SystemPowerModel::compute_ac_w(double t) const {
  double sum = 0.0;
  for (std::size_t r = 0; r < rack_count(); ++r) sum += rack_pdu_w(r, t);
  return sum;
}

double SystemPowerModel::auxiliary_ac_w(double t) const {
  double sum = 0.0;
  for (const PowerFunction& a : auxiliaries_) sum += a(t);
  return sum;
}

double SystemPowerModel::facility_w(double t) const {
  return compute_ac_w(t) + auxiliary_ac_w(t);
}

PowerFunction SystemPowerModel::node_ac_function(std::size_t node) const {
  PV_EXPECTS(node < psus_.size(), "node index out of range");
  return [this, node](double t) { return node_ac_w(node, t); };
}

const PsuModel& SystemPowerModel::node_psu(std::size_t node) const {
  PV_EXPECTS(node < psus_.size(), "node index out of range");
  return psus_[node];
}

SystemPowerModel make_system_power_model(const ClusterPowerModel& cluster,
                                         std::size_t nodes_per_rack,
                                         const PsuEfficiencyCurve& psu_curve,
                                         const AuxiliaryConfig& aux,
                                         double psu_headroom) {
  PV_EXPECTS(psu_headroom >= 1.0, "PSU headroom must be >= 1");
  SystemPowerModel model(cluster, nodes_per_rack);

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
  model.psus_.reserve(cluster.node_count());
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    const double rated =
        cluster.node_means()[i] * peak_shape * psu_headroom;
    model.psus_.emplace_back(Watts{rated}, fleet_curve);
  }

  // Constant-power auxiliaries (network, storage, service nodes,
  // in-machine cooling), in that order.
  const double compute_mean = cluster.system_core_mean().value();
  for (const double frac : {aux.network_frac, aux.storage_frac,
                            aux.infrastructure_frac, aux.cooling_frac}) {
    if (frac > 0.0) {
      model.auxiliaries_.emplace_back(
          [w = compute_mean * frac](double) { return w; });
    }
  }
  return model;
}

}  // namespace pv
