#include "policy/prefetch_policy.hpp"

#include "policy/registry.hpp"
#include "sim/system_sim.hpp"

namespace drhw {

std::vector<SubtaskId> PrefetchPolicy::intertask_candidates(
    const PreparedScenario&) const {
  return {};
}

const std::vector<time_us>& PrefetchPolicy::replacement_values(
    const PreparedScenario& prep, ReplacementPolicy replacement) const {
  return replacement == ReplacementPolicy::critical_first
             ? prep.replacement_values
             : prep.weights;
}

time_us paper_scheduler_cost(const PolicySpec& spec) {
  return PolicyRegistry::instance().create(spec)->scheduler_cost();
}

}  // namespace drhw
