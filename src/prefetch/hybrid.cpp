#include "prefetch/hybrid.hpp"

#include "util/check.hpp"

namespace drhw {

void hybrid_decide(const HybridSchedule& design,
                   const std::vector<bool>& resident, LoadPlan& plan) {
  auto is_resident = [&](SubtaskId s) {
    const auto idx = static_cast<std::size_t>(s);
    DRHW_CHECK_MSG(idx < resident.size(),
                   "resident flags do not cover the design's graph");
    return resident[idx];
  };
  plan.reset(LoadPolicy::explicit_order);
  // Initialization phase: CS members not resident, in the design-time
  // (descending weight) order. These loads occupy the port back to back
  // before the stored schedule begins.
  for (SubtaskId s : design.critical)
    if (!is_resident(s)) plan.loads.push_back(s);
  plan.init_count = plan.loads.size();
  // Stored schedule with cancellations: drop loads whose configuration is
  // resident; the relative order of the remaining loads is untouched.
  for (SubtaskId s : design.stored_order) {
    if (is_resident(s))
      ++plan.cancelled_loads;
    else
      plan.loads.push_back(s);
  }
}

}  // namespace drhw
