#include "meter/hierarchy.hpp"

namespace pv {

const char* to_string(MeasurementPoint p) {
  switch (p) {
    case MeasurementPoint::kNodeDc: return "node-DC";
    case MeasurementPoint::kNodeAc: return "node-AC";
    case MeasurementPoint::kRackPdu: return "rack-PDU";
    case MeasurementPoint::kFacilityFeed: return "facility-feed";
  }
  return "unknown";
}

}  // namespace pv
