#include "prefetch/hybrid.hpp"

#include "util/check.hpp"

namespace drhw {

HybridDecision hybrid_decide(const HybridSchedule& design,
                             const std::vector<bool>& resident) {
  auto is_resident = [&](SubtaskId s) {
    const auto idx = static_cast<std::size_t>(s);
    DRHW_CHECK_MSG(idx < resident.size(),
                   "resident flags do not cover the design's graph");
    return resident[idx];
  };
  HybridDecision decision;
  // Initialization phase: CS members not resident, in the design-time
  // (descending weight) order. These loads occupy the port back to back
  // before the stored schedule begins.
  for (SubtaskId s : design.critical)
    if (!is_resident(s)) decision.init_loads.push_back(s);
  // Stored schedule with cancellations: drop loads whose configuration is
  // resident; the relative order of the remaining loads is untouched.
  decision.load_order.reserve(design.stored_order.size());
  for (SubtaskId s : design.stored_order) {
    if (is_resident(s))
      ++decision.cancelled_loads;
    else
      decision.load_order.push_back(s);
  }
  return decision;
}

}  // namespace drhw
