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
// SystemPowerModel is the cluster's electrical model for measurement
// campaigns: its nodes behind per-node PSUs, grouped into racks with PDU
// distribution losses, plus AC-side auxiliary subsystems.  It is built
// only by lowering a cluster (make_system_power_model), so every node's
// DC truth is its cluster's node_power_w by construction.

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "meter/meter.hpp"
#include "meter/psu.hpp"
#include "workload/workload.hpp"

namespace pv {

class ClusterPowerModel {
 public:
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

  /// Per-watt-of-mean shape factor at time t — identical for every node
  /// of a balanced run, so node i's power is `node_means()[i] *
  /// shape_factor(t)`.  Streaming kernels evaluate the shape once per
  /// time-grid point and reuse it across the whole cohort instead of
  /// re-walking the workload model per node.
  [[nodiscard]] double shape_factor(double t) const { return shape(t); }

  /// The exact per-node core-phase means this model was built from.
  [[nodiscard]] std::span<const double> node_means() const { return mean_w_; }
  /// Exact system core-phase average power.
  [[nodiscard]] Watts system_core_mean() const;

 private:
  std::string name_;
  std::vector<double> mean_w_;
  std::shared_ptr<const Workload> workload_;
  double static_fraction_;
  double core_mean_intensity_;

  [[nodiscard]] double shape(double t) const;  // (static + dyn*intensity)/mean
};

/// `f` averaged over the cluster's core phase with 2048 midpoint panels:
/// the ground-truth integral of every scope truth.
[[nodiscard]] double core_phase_mean(const ClusterPowerModel& cluster,
                                     const PowerFunction& f);

/// Auxiliary-subsystem sizing for lowering into a SystemPowerModel,
/// expressed as fractions of the compute core-phase average.
struct AuxiliaryConfig {
  double network_frac = 0.06;
  double storage_frac = 0.03;
  double infrastructure_frac = 0.02;
  double cooling_frac = 0.04;
};

/// Fractional PDU distribution loss on each rack's AC total: a rack PDU
/// reads its nodes' AC over (1 - kPduLossFraction).
inline constexpr double kPduLossFraction = 0.02;

class SystemPowerModel;

/// Lowers the cluster into the electrical model used by measurement
/// campaigns: per-node PSUs on the given efficiency curve (sized with
/// `psu_headroom` over the node's peak draw, all sharing one compiled
/// breakpoint table), racks of `nodes_per_rack`, and constant-power
/// auxiliary subsystems per `aux`.
///
/// Lifetime: the returned model reads its truth from `cluster`; the
/// cluster must outlive the returned SystemPowerModel.
[[nodiscard]] SystemPowerModel make_system_power_model(
    const ClusterPowerModel& cluster, std::size_t nodes_per_rack,
    const PsuEfficiencyCurve& psu_curve, const AuxiliaryConfig& aux,
    double psu_headroom = 1.4);

/// Ground-truth electrical model of one system under benchmark: a
/// cluster's lowering (make_system_power_model, its only builder).  Node
/// i lives in rack i / nodes_per_rack; its DC draw is
/// cluster().node_power_w(i, t), so every node draws its mean times the
/// cluster's shared shape factor, which the node-tap engine streams and
/// every eager truth memoizes on.
class SystemPowerModel {
 public:
  /// The cluster this model lowers; a campaign's electrical model must be
  /// its own cluster's.
  [[nodiscard]] const ClusterPowerModel& cluster() const { return *cluster_; }

  /// The loss fraction in effect — the factor hierarchical cross-validation
  /// needs to compare a rack reading against the sum of its node taps.
  [[nodiscard]] double pdu_loss_fraction() const { return kPduLossFraction; }

  [[nodiscard]] std::size_t node_count() const { return psus_.size(); }
  [[nodiscard]] std::size_t rack_count() const;
  [[nodiscard]] std::size_t nodes_per_rack() const { return nodes_per_rack_; }

  // --- Ground-truth power at each tap point -------------------------------

  [[nodiscard]] double node_dc_w(std::size_t node, double t) const;
  [[nodiscard]] double node_ac_w(std::size_t node, double t) const;
  [[nodiscard]] double rack_pdu_w(std::size_t rack, double t) const;
  /// All compute racks (including PDU losses), excluding auxiliaries.
  [[nodiscard]] double compute_ac_w(double t) const;
  /// Sum of the auxiliary subsystems, in AuxiliaryConfig order.
  [[nodiscard]] double auxiliary_ac_w(double t) const;
  /// Facility feed: compute + auxiliaries.
  [[nodiscard]] double facility_w(double t) const;

  /// PowerFunction view of node_ac_w for metering.
  [[nodiscard]] PowerFunction node_ac_function(std::size_t node) const;

  /// Per-node PSU access (e.g. for conversion-loss correction).
  [[nodiscard]] const PsuModel& node_psu(std::size_t node) const;

  // --- Core-phase means, the parts of every scope truth -------------------

  /// core_phase_mean of compute_ac_w, read through memoize_on_shape.
  /// Integrated on the first call and kept: the model is immutable, so
  /// every later call, from any thread, returns the same double without
  /// integrating, and threads that call first together integrate once.
  [[nodiscard]] double core_compute_mean_w() const;
  /// core_phase_mean of auxiliary_ac_w, read directly; kept the same way.
  [[nodiscard]] double core_auxiliary_mean_w() const;

 private:
  friend SystemPowerModel make_system_power_model(
      const ClusterPowerModel& cluster, std::size_t nodes_per_rack,
      const PsuEfficiencyCurve& psu_curve, const AuxiliaryConfig& aux,
      double psu_headroom);

  SystemPowerModel(const ClusterPowerModel& cluster,
                   std::size_t nodes_per_rack);

  // The kept core-phase means.  A once_flag cannot move, so they live on
  // the heap and the model stays movable.
  struct CoreMeans {
    std::once_flag compute_once;
    std::once_flag auxiliary_once;
    double compute_w = 0.0;
    double auxiliary_w = 0.0;
  };

  const ClusterPowerModel* cluster_;
  std::size_t nodes_per_rack_;
  std::vector<PsuModel> psus_;
  std::vector<PowerFunction> auxiliaries_;
  std::unique_ptr<CoreMeans> core_means_ = std::make_unique<CoreMeans>();
};

}  // namespace pv
