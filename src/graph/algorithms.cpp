#include "graph/algorithms.hpp"

#include <algorithm>

namespace drhw {

std::vector<time_us> asap_start_times(const SubtaskGraph& graph) {
  std::vector<time_us> start(graph.size(), 0);
  for (SubtaskId v : graph.topological_order()) {
    time_us ready = 0;
    for (SubtaskId p : graph.predecessors(v))
      ready = std::max(ready, start[static_cast<std::size_t>(p)] +
                                  graph.subtask(p).exec_time);
    start[static_cast<std::size_t>(v)] = ready;
  }
  return start;
}

time_us critical_path_length(const SubtaskGraph& graph) {
  const auto start = asap_start_times(graph);
  time_us end = 0;
  for (std::size_t v = 0; v < graph.size(); ++v)
    end = std::max(end, start[v] +
                            graph.subtask(static_cast<SubtaskId>(v)).exec_time);
  return end;
}

std::vector<time_us> subtask_weights(const SubtaskGraph& graph) {
  std::vector<time_us> weight(graph.size(), 0);
  const auto& topo = graph.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const SubtaskId v = *it;
    time_us tail = 0;
    for (SubtaskId s : graph.successors(v))
      tail = std::max(tail, weight[static_cast<std::size_t>(s)]);
    weight[static_cast<std::size_t>(v)] = graph.subtask(v).exec_time + tail;
  }
  return weight;
}

}  // namespace drhw
