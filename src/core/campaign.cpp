#include "core/campaign.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "util/expects.hpp"

namespace pv {

// run_campaign is now a thin conductor over the staged pipeline
// (core/pipeline): make_campaign_stages picks the Meter stage for the
// plan's tap point and run_campaign_stages drives Provision -> Meter ->
// Repair -> [Reconcile] -> Aggregate -> Assess.  The stages carry the
// exact historical arithmetic and RNG consumption order, so results
// stay bit-identical.
CampaignResult run_campaign(const ClusterPowerModel& cluster,
                            const SystemPowerModel& electrical,
                            const MeasurementPlan& plan,
                            const CampaignConfig& config,
                            const CancelToken* cancel) {
  return run_campaign_stages(cluster, electrical, plan, config,
                             make_campaign_stages(plan, config), cancel);
}

void force_byzantine_meters(CampaignConfig& config,
                            const MeasurementPlan& plan, double fraction) {
  if (fraction <= 0.0) return;
  const std::size_t count = plan.node_indices.size();
  const auto n_byz = static_cast<std::size_t>(
      fraction * static_cast<double>(count) + 0.5);
  const double stride = static_cast<double>(count) /
                        static_cast<double>(std::max<std::size_t>(n_byz, 1));
  for (std::size_t k = 0; k < n_byz; ++k) {
    const auto idx = static_cast<std::size_t>(static_cast<double>(k) * stride);
    config.faults.byzantine_meters.push_back(plan.node_indices[idx]);
  }
}

void apply_dc_conversion(const MeasurementPlan& plan,
                         const SystemPowerModel& electrical, std::size_t node,
                         double& mean_w, double& energy_j) {
  if (plan.point != MeasurementPoint::kNodeDc) return;
  switch (plan.conversion) {
    case ConversionCorrection::kNone:
      break;  // uncorrected — the validator flags this
    case ConversionCorrection::kVendorNominal: {
      const NominalConversionModel vendor{plan.vendor_nominal_efficiency};
      energy_j *= vendor.ac_from_dc(Watts{mean_w}).value() / mean_w;
      mean_w = vendor.ac_from_dc(Watts{mean_w}).value();
      break;
    }
    case ConversionCorrection::kMeasuredCurve: {
      const Watts ac = electrical.node_psu(node).ac_input(Watts{mean_w});
      energy_j *= ac.value() / mean_w;
      mean_w = ac.value();
      break;
    }
  }
}

}  // namespace pv
