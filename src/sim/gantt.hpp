#pragma once

/// \file gantt.hpp
/// ASCII Gantt rendering of evaluated schedules — the library's equivalent
/// of the paper's Figures 3 and 5, used by the quickstart example and for
/// debugging schedules.

#include <string>

#include "prefetch/evaluator.hpp"
#include "schedule/placement.hpp"

namespace drhw {

struct GanttOptions {
  int width = 72;  ///< characters used for the time axis
  /// The plan's initialization loads (its LoadPlan::init_count prefix),
  /// drawn on the port row as `I<id>` instead of `L<id>`. May be empty.
  std::vector<SubtaskId> init_loads;
};

/// Renders one row per unit plus a reconfiguration-port row.
/// Executions appear as `=`-filled boxes labelled with the subtask name,
/// loads as `L<id>` segments, idle time as spaces.
std::string render_gantt(const SubtaskGraph& graph, const Placement& placement,
                         const EvalResult& eval, const GanttOptions& options = {});

/// Writes `label` into row[a..b) as a `fill`-filled box with the label
/// overlaid centred, truncating what does not fit. Shared by this renderer
/// and the trace timeline renderer (trace/render.cpp).
void gantt_draw_box(std::string& row, int a, int b, const std::string& label,
                    char fill);

}  // namespace drhw
