#pragma once

/// \file algorithms.hpp
/// Graph-analysis primitives used by the schedulers: ASAP start times,
/// critical-path length, and the ALAP weights of the paper's Section 5.

#include <vector>

#include "graph/subtask_graph.hpp"

namespace drhw {

/// Earliest start time of every subtask assuming unlimited resources and no
/// reconfiguration (classic ASAP pass).
std::vector<time_us> asap_start_times(const SubtaskGraph& graph);

/// Critical-path length: makespan with unlimited resources and no loads.
time_us critical_path_length(const SubtaskGraph& graph);

/// The paper's subtask weights (Section 5): "the longest path (in terms of
/// execution time) from the beginning of the execution of the subtask to the
/// end of the execution of the whole graph with an ALAP schedule". This is
/// the bottom level b(v) = exec(v) + max over successors of b(succ); critical
/// path nodes carry the largest weights.
std::vector<time_us> subtask_weights(const SubtaskGraph& graph);

}  // namespace drhw
