#include "schedule/list_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/algorithms.hpp"
#include "platform/platform.hpp"
#include "util/check.hpp"

namespace drhw {

namespace {

/// Chooses the unit giving the earliest start for a subtask ready at
/// `ready`; ties broken toward the unit with the smallest availability time
/// (longest idle), then lowest index.
int pick_unit(const std::vector<time_us>& avail, time_us ready) {
  int best = 0;
  time_us best_start = std::max(ready, avail[0]);
  for (int u = 1; u < static_cast<int>(avail.size()); ++u) {
    const time_us start = std::max(ready, avail[static_cast<std::size_t>(u)]);
    const time_us best_avail = avail[static_cast<std::size_t>(best)];
    const time_us this_avail = avail[static_cast<std::size_t>(u)];
    if (start < best_start ||
        (start == best_start && this_avail < best_avail)) {
      best = u;
      best_start = start;
    }
  }
  return best;
}

}  // namespace

Placement list_schedule(const SubtaskGraph& graph, int tiles, int isps) {
  const std::size_t n = graph.size();
  bool has_drhw = false;
  bool has_isp = false;
  for (std::size_t s = 0; s < n; ++s) {
    if (graph.subtask(static_cast<SubtaskId>(s)).resource == Resource::drhw)
      has_drhw = true;
    else
      has_isp = true;
  }
  if (has_drhw && tiles < 1)
    throw std::invalid_argument("graph has DRHW subtasks but no tiles");
  if (has_isp && isps < 1)
    throw std::invalid_argument("graph has ISP subtasks but no ISPs");
  tiles = has_drhw ? tiles : 0;
  isps = has_isp ? isps : 0;

  const auto weights = subtask_weights(graph);

  Placement placement;
  placement.tile_of.assign(n, k_no_tile);
  placement.isp_of.assign(n, k_no_tile);
  placement.position_of.assign(n, 0);
  placement.ideal_start.assign(n, 0);
  placement.ideal_end.assign(n, 0);
  placement.tile_sequence.assign(static_cast<std::size_t>(tiles), {});
  placement.isp_sequence.assign(static_cast<std::size_t>(isps), {});

  std::vector<time_us> tile_avail(static_cast<std::size_t>(tiles), 0);
  std::vector<time_us> isp_avail(static_cast<std::size_t>(isps), 0);
  std::vector<int> preds_left(n, 0);
  std::vector<char> scheduled(n, 0);
  for (std::size_t s = 0; s < n; ++s)
    preds_left[s] =
        static_cast<int>(graph.predecessors(static_cast<SubtaskId>(s)).size());

  // Ready once the latest predecessor completes.
  const auto ready_time = [&](SubtaskId s) {
    time_us ready = 0;
    for (SubtaskId p : graph.predecessors(s))
      ready = std::max(ready, placement.ideal_end[static_cast<std::size_t>(p)]);
    return ready;
  };

  std::size_t done = 0;
  while (done < n) {
    // Highest-weight ready subtask (ties toward the lower id for
    // determinism). Linear scan keeps the code simple; the scheduler runs at
    // design time on graphs of at most a few hundred nodes.
    SubtaskId pick = k_no_subtask;
    for (std::size_t s = 0; s < n; ++s) {
      if (scheduled[s] || preds_left[s] != 0) continue;
      if (pick == k_no_subtask ||
          weights[s] > weights[static_cast<std::size_t>(pick)])
        pick = static_cast<SubtaskId>(s);
    }
    DRHW_CHECK_MSG(pick != k_no_subtask, "list scheduler stalled");

    const auto idx = static_cast<std::size_t>(pick);
    const bool drhw = graph.subtask(pick).resource == Resource::drhw;
    auto& avail = drhw ? tile_avail : isp_avail;
    auto& sequences = drhw ? placement.tile_sequence : placement.isp_sequence;
    const time_us ready = ready_time(pick);
    const int unit = pick_unit(avail, ready);
    const auto uidx = static_cast<std::size_t>(unit);

    const time_us start = std::max(ready, avail[uidx]);
    const time_us end = start + graph.subtask(pick).exec_time;
    avail[uidx] = end;
    placement.ideal_start[idx] = start;
    placement.ideal_end[idx] = end;
    placement.position_of[idx] = static_cast<int>(sequences[uidx].size());
    sequences[uidx].push_back(pick);
    if (drhw)
      placement.tile_of[idx] = unit;
    else
      placement.isp_of[idx] = unit;

    scheduled[idx] = 1;
    ++done;
    placement.ideal_makespan = std::max(placement.ideal_makespan, end);
    for (SubtaskId succ : graph.successors(pick))
      --preds_left[static_cast<std::size_t>(succ)];
  }

  // Drop unused trailing units so tiles_used reflects reality.
  while (!placement.tile_sequence.empty() &&
         placement.tile_sequence.back().empty())
    placement.tile_sequence.pop_back();
  while (!placement.isp_sequence.empty() &&
         placement.isp_sequence.back().empty())
    placement.isp_sequence.pop_back();
  placement.tiles_used = static_cast<int>(placement.tile_sequence.size());
  placement.isps_used = static_cast<int>(placement.isp_sequence.size());

  placement.validate(graph);
  return placement;
}

Placement list_schedule_icn(const SubtaskGraph& graph,
                            const PlatformConfig& platform) {
  return list_schedule(graph, platform.tiles, platform.isps);
}

}  // namespace drhw
