#include "graph/generators.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace drhw {

namespace {

time_us random_exec(Rng& rng, time_us lo, time_us hi) {
  return rng.next_int(lo, hi);
}

Subtask make_node(const std::string& name, time_us exec, Resource res) {
  Subtask s;
  s.name = name;
  s.exec_time = exec;
  s.resource = res;
  s.exec_energy = static_cast<double>(exec) / 1000.0;  // 1 unit per ms
  return s;
}

}  // namespace

SubtaskGraph make_layered_graph(const LayeredGraphParams& params, Rng& rng) {
  DRHW_CHECK(params.subtasks > 0);
  DRHW_CHECK(params.min_layer_width >= 1);
  DRHW_CHECK(params.max_layer_width >= params.min_layer_width);

  SubtaskGraph graph("layered");
  std::vector<std::vector<SubtaskId>> layers;
  int remaining = params.subtasks;
  while (remaining > 0) {
    const int width = static_cast<int>(std::min<std::int64_t>(
        remaining,
        rng.next_int(params.min_layer_width, params.max_layer_width)));
    std::vector<SubtaskId> layer;
    for (int i = 0; i < width; ++i) {
      const Resource res = rng.next_bool(params.isp_fraction)
                               ? Resource::isp
                               : Resource::drhw;
      const auto id = graph.add_subtask(make_node(
          "n" + std::to_string(graph.size()),
          random_exec(rng, params.min_exec, params.max_exec), res));
      layer.push_back(id);
    }
    layers.push_back(std::move(layer));
    remaining -= width;
  }

  for (std::size_t l = 1; l < layers.size(); ++l) {
    for (SubtaskId v : layers[l]) {
      // Mandatory edge keeps the graph connected layer to layer.
      const auto& prev = layers[l - 1];
      graph.add_edge(prev[rng.pick_index(prev)], v);
      for (SubtaskId u : prev) {
        if (!graph.has_edge(u, v) && rng.next_bool(params.edge_density))
          graph.add_edge(u, v);
      }
    }
  }
  graph.finalize();
  return graph;
}

}  // namespace drhw
