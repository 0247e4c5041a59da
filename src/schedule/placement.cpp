#include "schedule/placement.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace drhw {

SubtaskId Placement::prev_on_unit(SubtaskId s) const {
  const auto idx = static_cast<std::size_t>(s);
  const int pos = position_of[idx];
  if (pos == 0) return k_no_subtask;
  const TileId tile = tile_of[idx];
  if (tile != k_no_tile)
    return tile_sequence[static_cast<std::size_t>(tile)]
                        [static_cast<std::size_t>(pos - 1)];
  const TileId isp = isp_of[idx];
  DRHW_CHECK(isp != k_no_tile);
  return isp_sequence[static_cast<std::size_t>(isp)]
                     [static_cast<std::size_t>(pos - 1)];
}

void Placement::validate(const SubtaskGraph& graph) const {
  const std::size_t n = graph.size();
  if (tile_of.size() != n || isp_of.size() != n || position_of.size() != n)
    throw std::invalid_argument("placement arrays do not match graph size");
  if (tile_sequence.size() != static_cast<std::size_t>(tiles_used) ||
      isp_sequence.size() != static_cast<std::size_t>(isps_used))
    throw std::invalid_argument("placement sequence count mismatch");
  for (const auto& seq : tile_sequence)
    if (seq.empty())
      throw std::invalid_argument("placement has an empty virtual tile");

  std::vector<int> seen(n, 0);
  auto check_sequences = [&](const std::vector<std::vector<SubtaskId>>& seqs,
                             bool drhw_unit) {
    for (std::size_t u = 0; u < seqs.size(); ++u) {
      for (std::size_t pos = 0; pos < seqs[u].size(); ++pos) {
        const SubtaskId s = seqs[u][pos];
        if (s < 0 || static_cast<std::size_t>(s) >= n)
          throw std::invalid_argument("placement references unknown subtask");
        const auto idx = static_cast<std::size_t>(s);
        ++seen[idx];
        if (position_of[idx] != static_cast<int>(pos))
          throw std::invalid_argument("placement position mismatch");
        const bool is_drhw = graph.subtask(s).resource == Resource::drhw;
        if (is_drhw != drhw_unit)
          throw std::invalid_argument("subtask placed on wrong resource kind");
        const TileId recorded =
            drhw_unit ? tile_of[idx] : isp_of[idx];
        if (recorded != static_cast<TileId>(u))
          throw std::invalid_argument("placement unit mismatch");
      }
    }
  };
  check_sequences(tile_sequence, /*drhw_unit=*/true);
  check_sequences(isp_sequence, /*drhw_unit=*/false);
  for (std::size_t s = 0; s < n; ++s)
    if (seen[s] != 1)
      throw std::invalid_argument("subtask not placed exactly once");

  // Combined precedence (graph edges + unit-order chains) must be acyclic;
  // otherwise the schedule can never execute.
  std::vector<std::vector<SubtaskId>> succ(n);
  std::vector<int> indeg(n, 0);
  for (std::size_t v = 0; v < n; ++v)
    for (SubtaskId w : graph.successors(static_cast<SubtaskId>(v))) {
      succ[v].push_back(w);
      ++indeg[static_cast<std::size_t>(w)];
    }
  auto add_chain = [&](const std::vector<std::vector<SubtaskId>>& seqs) {
    for (const auto& seq : seqs)
      for (std::size_t i = 1; i < seq.size(); ++i) {
        succ[static_cast<std::size_t>(seq[i - 1])].push_back(seq[i]);
        ++indeg[static_cast<std::size_t>(seq[i])];
      }
  };
  add_chain(tile_sequence);
  add_chain(isp_sequence);

  std::vector<SubtaskId> stack;
  for (std::size_t v = 0; v < n; ++v)
    if (indeg[v] == 0) stack.push_back(static_cast<SubtaskId>(v));
  std::size_t visited = 0;
  while (!stack.empty()) {
    const SubtaskId v = stack.back();
    stack.pop_back();
    ++visited;
    for (SubtaskId w : succ[static_cast<std::size_t>(v)])
      if (--indeg[static_cast<std::size_t>(w)] == 0) stack.push_back(w);
  }
  if (visited != n)
    throw std::invalid_argument(
        "placement unit orders conflict with graph precedence (cycle)");
}

}  // namespace drhw
