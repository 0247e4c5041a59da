#include "sim/prep_table.hpp"

#include <algorithm>
#include <limits>

namespace drhw {

NextUseRank NextUseIndex::rank_from(long position) const {
  return [this, position](ConfigId c) -> long {
    const auto idx = static_cast<std::size_t>(c);
    if (c < 0 || idx >= positions_.size() || positions_[idx].empty())
      return std::numeric_limits<long>::max();
    const std::vector<long>& uses = positions_[idx];
    const auto pos = std::lower_bound(uses.begin(), uses.end(), position);
    return pos == uses.end() ? std::numeric_limits<long>::max() : *pos;
  };
}

PrepTable::PrepTable(const PrefetchPolicy& policy,
                     ReplacementPolicy replacement)
    : policy_(policy), replacement_(replacement) {}

std::int32_t PrepTable::append(const PreparedScenario* prep) {
  DRHW_CHECK(prep != nullptr);
  const SubtaskGraph& graph = *prep->graph;
  const long position = appended_++;
  if (replacement_ == ReplacementPolicy::oracle)
    for (std::size_t s = 0; s < graph.size(); ++s) {
      // ISP subtasks carry no configuration: nothing to rank.
      const ConfigId config = graph.subtask(static_cast<SubtaskId>(s)).config;
      if (config != k_no_config) next_uses_.add(config, position);
    }

  const auto found = std::find(preps_.begin(), preps_.end(), prep);
  if (found != preps_.end())
    return static_cast<std::int32_t>(found - preps_.begin());
  preps_.push_back(prep);
  values_.push_back(&policy_.replacement_values(*prep, replacement_));
  candidates_.push_back(policy_.uses_intertask()
                            ? policy_.intertask_candidates(*prep)
                            : std::vector<SubtaskId>{});
  TracePrep& row = retire_.emplace_back();
  row.name = graph.name();
  row.ideal = prep->ideal;
  row.subtasks = graph.size();
  for (std::size_t s = 0; s < graph.size(); ++s) {
    const auto id = static_cast<SubtaskId>(s);
    if (prep->placement.on_drhw(id)) ++row.drhw_subtasks;
    row.exec_energy += graph.subtask(id).exec_energy;
  }
  return static_cast<std::int32_t>(preps_.size() - 1);
}

}  // namespace drhw
