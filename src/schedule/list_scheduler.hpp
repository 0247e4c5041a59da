#pragma once

/// \file list_scheduler.hpp
/// The design-time scheduler that produces the initial subtask schedule the
/// prefetch modules start from. It is a classic priority list scheduler:
/// ready subtasks are dispatched in descending ALAP-weight order onto the
/// unit (tile/ISP) that allows the earliest start, **ignoring
/// reconfiguration latency** — exactly the input contract of Section 3.

#include "graph/subtask_graph.hpp"
#include "platform/platform.hpp"
#include "schedule/placement.hpp"

namespace drhw {

/// Schedules `graph` onto at most `tiles` virtual DRHW tiles and `isps` ISP
/// units. Ties between equally early units are broken toward the unit that
/// has been idle longest (and then the lowest unit index), which spreads
/// subtasks over tiles — this maximises the prefetcher's room to overlap
/// loads with computation and matches the placements in the paper's figures.
/// Every idle unit ties with every other, so the units used are always
/// 0..used-1 and no virtual tile of the result is empty.
///
/// Throws std::invalid_argument if `tiles` < 1 while DRHW subtasks exist, or
/// `isps` < 1 while ISP subtasks exist.
Placement list_schedule(const SubtaskGraph& graph, int tiles, int isps = 1);

/// Same as list_schedule(graph, platform.tiles, platform.isps). Kept only
/// because the benchmark harness (perfbench/perfbench.cpp) still names it;
/// it goes once that harness stops reading it (ROADMAP item 1).
Placement list_schedule_icn(const SubtaskGraph& graph,
                            const PlatformConfig& platform);

}  // namespace drhw
