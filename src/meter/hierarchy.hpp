#pragma once
// Where power can be tapped in the measured system.
//
// Methodology aspects 2-4 are about structure, not statistics:
//   * aspect 2 (machine fraction): measure >= 1/64 (L1) or 1/8 (L2) of the
//     compute-node subsystem, or all of it (L3);
//   * aspect 3 (subsystems): L1 may ignore network/storage/infrastructure,
//     L2 may estimate them, L3 must measure them;
//   * aspect 4 (point of measurement): upstream of power conversion, or
//     corrected for conversion losses.
// The ground truth those rules are evaluated against, the node -> rack
// PDU -> facility hierarchy, is sim/cluster's SystemPowerModel.

namespace pv {

/// Where a measurement is taken.
enum class MeasurementPoint {
  kNodeDc,      ///< downstream of the node PSU (DC rail instrumentation)
  kNodeAc,      ///< upstream of the node PSU (per-node AC metering)
  kRackPdu,     ///< rack PDU output (sum of the rack's node AC + PDU loss)
  kFacilityFeed,  ///< whole-system feed incl. auxiliary subsystems
};

[[nodiscard]] const char* to_string(MeasurementPoint p);

}  // namespace pv
