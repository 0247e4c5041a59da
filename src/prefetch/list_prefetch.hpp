#pragma once

/// \file list_prefetch.hpp
/// The fully run-time prefetch scheduling heuristic of the paper's ref. [7]:
/// list scheduling of the reconfigurations by descending ALAP weight, with
/// O(N log N) cost in the number of loads. The paper uses it both as the
/// run-time baseline ("run-time" curve of Figs. 6/7) and as the design-time
/// scheduler inside the critical-subtask loop for large graphs.

#include "platform/platform.hpp"
#include "prefetch/evaluator.hpp"

namespace drhw {

/// Runs the weight-priority prefetch heuristic over `needs_load`.
/// Returns the evaluation; EvalResult::load_order is the realized order,
/// reusable later as an explicit plan.
EvalResult list_prefetch(const SubtaskGraph& graph, const Placement& placement,
                         const PlatformConfig& platform,
                         const std::vector<bool>& needs_load);

/// Same, but with a caller-supplied priority vector (ablation hook; the
/// paper's choice is the ALAP weights from subtask_weights()).
EvalResult list_prefetch_with_priority(const SubtaskGraph& graph,
                                       const Placement& placement,
                                       const PlatformConfig& platform,
                                       const std::vector<bool>& needs_load,
                                       const std::vector<time_us>& priority);

}  // namespace drhw
