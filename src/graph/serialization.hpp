#pragma once

/// \file serialization.hpp
/// JSON import/export of subtask graphs, so task sets can be authored and
/// exchanged without recompiling (used by the drhw_sched command-line
/// tool). The format is deliberately small:
///
/// {
///   "name": "my_task",
///   "subtasks": [
///     {"name": "a", "exec_us": 10000, "resource": "drhw",
///      "config": 0, "energy": 1.5, "load_us": -1},
///     ...
///   ],
///   "edges": [[0, 1], [0, 2]]
/// }
///
/// "config" and "load_us" may be -1 for defaults; "resource" is "drhw" or
/// "isp"; "energy" is optional (default 0).

#include <string>

#include "graph/subtask_graph.hpp"

namespace drhw {

/// Serialises a (finalized or unfinalized) graph to JSON text.
std::string graph_to_json(const SubtaskGraph& graph);

/// Parses JSON text into a finalized graph of at least one subtask.
/// Throws std::invalid_argument with a location hint on malformed input.
SubtaskGraph graph_from_json(const std::string& json);

}  // namespace drhw
