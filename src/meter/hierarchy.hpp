#pragma once
// The measured-system model: which subsystems exist, where power can be
// tapped, and what a measurement at each tap sees.
//
// Methodology aspects 2-4 are about structure, not statistics:
//   * aspect 2 (machine fraction): measure >= 1/64 (L1) or 1/8 (L2) of the
//     compute-node subsystem, or all of it (L3);
//   * aspect 3 (subsystems): L1 may ignore network/storage/infrastructure,
//     L2 may estimate them, L3 must measure them;
//   * aspect 4 (point of measurement): upstream of power conversion, or
//     corrected for conversion losses.
// SystemPowerModel is the ground truth those rules are evaluated against:
// per-node DC power functions behind per-node PSUs, grouped into racks with
// PDU distribution losses, plus AC-side auxiliary subsystems.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "meter/meter.hpp"
#include "meter/psu.hpp"
#include "util/units.hpp"

namespace pv {

/// Subsystem classes the methodology distinguishes.
enum class Subsystem {
  kComputeNode,
  kNetwork,
  kStorage,
  kInfrastructure,  ///< login/management nodes and similar
  kCooling,         ///< in-machine cooling (fans external to nodes, pumps)
};

[[nodiscard]] const char* to_string(Subsystem s);

/// Where a measurement is taken.
enum class MeasurementPoint {
  kNodeDc,      ///< downstream of the node PSU (DC rail instrumentation)
  kNodeAc,      ///< upstream of the node PSU (per-node AC metering)
  kRackPdu,     ///< rack PDU output (sum of the rack's node AC + PDU loss)
  kFacilityFeed,  ///< whole-system feed incl. auxiliary subsystems
};

[[nodiscard]] const char* to_string(MeasurementPoint p);

/// Ground-truth electrical model of one system under benchmark.
class SystemPowerModel {
 public:
  SystemPowerModel(std::string name, std::size_t nodes_per_rack);

  /// Registers one compute node (in rack order: node i lives in rack
  /// i / nodes_per_rack).  `dc_power_w(t)` is the node's DC draw.
  void add_node(PowerFunction dc_power_w, PsuModel psu);

  /// Registers an AC-side auxiliary subsystem (switches, storage, ...).
  void add_subsystem(Subsystem kind, std::string label,
                     PowerFunction ac_power_w);

  /// Fractional PDU distribution loss applied to each rack's AC total
  /// (default 2%).
  void set_pdu_loss_fraction(double f);
  /// The loss fraction in effect — the factor hierarchical cross-validation
  /// needs to compare a rack reading against the sum of its node taps.
  [[nodiscard]] double pdu_loss_fraction() const { return pdu_loss_fraction_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t rack_count() const;
  [[nodiscard]] std::size_t nodes_per_rack() const { return nodes_per_rack_; }

  // --- Ground-truth power at each tap point -------------------------------

  [[nodiscard]] double node_dc_w(std::size_t node, double t) const;
  [[nodiscard]] double node_ac_w(std::size_t node, double t) const;
  [[nodiscard]] double rack_pdu_w(std::size_t rack, double t) const;
  /// All compute racks (including PDU losses), excluding auxiliaries.
  [[nodiscard]] double compute_ac_w(double t) const;
  /// Sum of all registered auxiliary subsystems.
  [[nodiscard]] double auxiliary_ac_w(double t) const;
  [[nodiscard]] double auxiliary_ac_w(Subsystem kind, double t) const;
  /// Facility feed: compute + auxiliaries.
  [[nodiscard]] double facility_w(double t) const;

  /// The DC power function registered for `node` (add_node).
  [[nodiscard]] const PowerFunction& node_dc_function(std::size_t node) const;

  /// Convenience PowerFunction views for metering.
  [[nodiscard]] PowerFunction node_ac_function(std::size_t node) const;
  [[nodiscard]] PowerFunction facility_function() const;

  /// Per-node PSU access (e.g. for conversion-loss correction).
  [[nodiscard]] const PsuModel& node_psu(std::size_t node) const;

 private:
  struct Node {
    PowerFunction dc_power;
    PsuModel psu;
  };
  struct Auxiliary {
    Subsystem kind;
    std::string label;
    PowerFunction ac_power;
  };

  std::string name_;
  std::size_t nodes_per_rack_;
  double pdu_loss_fraction_ = 0.02;
  std::vector<Node> nodes_;
  std::vector<Auxiliary> auxiliaries_;
};

}  // namespace pv
