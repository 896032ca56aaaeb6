#include "meter/hierarchy.hpp"

#include "util/expects.hpp"

namespace pv {

const char* to_string(Subsystem s) {
  switch (s) {
    case Subsystem::kComputeNode: return "compute-node";
    case Subsystem::kNetwork: return "network";
    case Subsystem::kStorage: return "storage";
    case Subsystem::kInfrastructure: return "infrastructure";
    case Subsystem::kCooling: return "cooling";
  }
  return "unknown";
}

const char* to_string(MeasurementPoint p) {
  switch (p) {
    case MeasurementPoint::kNodeDc: return "node-DC";
    case MeasurementPoint::kNodeAc: return "node-AC";
    case MeasurementPoint::kRackPdu: return "rack-PDU";
    case MeasurementPoint::kFacilityFeed: return "facility-feed";
  }
  return "unknown";
}

SystemPowerModel::SystemPowerModel(std::string name, std::size_t nodes_per_rack)
    : name_(std::move(name)), nodes_per_rack_(nodes_per_rack) {
  PV_EXPECTS(nodes_per_rack_ > 0, "racks must hold at least one node");
}

void SystemPowerModel::add_node(PowerFunction dc_power_w, PsuModel psu) {
  PV_EXPECTS(dc_power_w != nullptr, "null node power function");
  nodes_.push_back(Node{std::move(dc_power_w), std::move(psu)});
}

void SystemPowerModel::add_subsystem(Subsystem kind, std::string label,
                                     PowerFunction ac_power_w) {
  PV_EXPECTS(ac_power_w != nullptr, "null subsystem power function");
  PV_EXPECTS(kind != Subsystem::kComputeNode,
             "compute nodes are registered via add_node");
  auxiliaries_.push_back(Auxiliary{kind, std::move(label), std::move(ac_power_w)});
}

void SystemPowerModel::set_pdu_loss_fraction(double f) {
  PV_EXPECTS(f >= 0.0 && f < 0.5, "PDU loss fraction must be in [0, 0.5)");
  pdu_loss_fraction_ = f;
}

std::size_t SystemPowerModel::rack_count() const {
  return (nodes_.size() + nodes_per_rack_ - 1) / nodes_per_rack_;
}

double SystemPowerModel::node_dc_w(std::size_t node, double t) const {
  PV_EXPECTS(node < nodes_.size(), "node index out of range");
  return nodes_[node].dc_power(t);
}

const PowerFunction& SystemPowerModel::node_dc_function(
    std::size_t node) const {
  PV_EXPECTS(node < nodes_.size(), "node index out of range");
  return nodes_[node].dc_power;
}

double SystemPowerModel::node_ac_w(std::size_t node, double t) const {
  PV_EXPECTS(node < nodes_.size(), "node index out of range");
  const auto& n = nodes_[node];
  return n.psu.ac_input(Watts{n.dc_power(t)}).value();
}

double SystemPowerModel::rack_pdu_w(std::size_t rack, double t) const {
  PV_EXPECTS(rack < rack_count(), "rack index out of range");
  const std::size_t begin = rack * nodes_per_rack_;
  const std::size_t end = std::min(begin + nodes_per_rack_, nodes_.size());
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += node_ac_w(i, t);
  return sum / (1.0 - pdu_loss_fraction_);
}

double SystemPowerModel::compute_ac_w(double t) const {
  double sum = 0.0;
  for (std::size_t r = 0; r < rack_count(); ++r) sum += rack_pdu_w(r, t);
  return sum;
}

double SystemPowerModel::auxiliary_ac_w(double t) const {
  double sum = 0.0;
  for (const auto& a : auxiliaries_) sum += a.ac_power(t);
  return sum;
}

double SystemPowerModel::auxiliary_ac_w(Subsystem kind, double t) const {
  double sum = 0.0;
  for (const auto& a : auxiliaries_) {
    if (a.kind == kind) sum += a.ac_power(t);
  }
  return sum;
}

double SystemPowerModel::facility_w(double t) const {
  return compute_ac_w(t) + auxiliary_ac_w(t);
}

PowerFunction SystemPowerModel::node_ac_function(std::size_t node) const {
  PV_EXPECTS(node < nodes_.size(), "node index out of range");
  return [this, node](double t) { return node_ac_w(node, t); };
}

PowerFunction SystemPowerModel::facility_function() const {
  return [this](double t) { return facility_w(t); };
}

const PsuModel& SystemPowerModel::node_psu(std::size_t node) const {
  PV_EXPECTS(node < nodes_.size(), "node index out of range");
  return nodes_[node].psu;
}

}  // namespace pv
