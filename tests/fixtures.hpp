#pragma once

// Small hand-shaped graphs and platforms that only the tests build: a fork-
// join and a chain with random execution times, and a coarse-grain platform
// with a short reconfiguration latency.

#include <string>
#include <vector>

#include "graph/subtask_graph.hpp"
#include "platform/platform.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace drhw::testing {

/// One DRHW node with 1 energy unit per ms of execution.
inline Subtask fixture_node(const std::string& name, time_us exec) {
  Subtask s;
  s.name = name;
  s.exec_time = exec;
  s.resource = Resource::drhw;
  s.exec_energy = static_cast<double>(exec) / 1000.0;
  return s;
}

/// Fork-join graph: source -> `width` parallel chains of `chain_length`
/// nodes -> sink. Models data-parallel decoders such as the parallel JPEG.
inline SubtaskGraph make_fork_join_graph(int width, int chain_length,
                                         time_us min_exec, time_us max_exec,
                                         Rng& rng) {
  DRHW_CHECK(width >= 1 && chain_length >= 1);
  SubtaskGraph graph("fork_join");
  const auto src =
      graph.add_subtask(fixture_node("fork", rng.next_int(min_exec, max_exec)));
  std::vector<SubtaskId> tails;
  for (int w = 0; w < width; ++w) {
    SubtaskId prev = src;
    for (int c = 0; c < chain_length; ++c) {
      const auto id = graph.add_subtask(
          fixture_node("b" + std::to_string(w) + "_" + std::to_string(c),
                       rng.next_int(min_exec, max_exec)));
      graph.add_edge(prev, id);
      prev = id;
    }
    tails.push_back(prev);
  }
  const auto sink =
      graph.add_subtask(fixture_node("join", rng.next_int(min_exec, max_exec)));
  for (SubtaskId t : tails) graph.add_edge(t, sink);
  graph.finalize();
  return graph;
}

/// Pure chain of `length` nodes. Models sequential pipelines.
inline SubtaskGraph make_chain_graph(int length, time_us min_exec,
                                     time_us max_exec, Rng& rng) {
  DRHW_CHECK(length >= 1);
  SubtaskGraph graph("chain");
  SubtaskId prev = k_no_subtask;
  for (int i = 0; i < length; ++i) {
    const auto id = graph.add_subtask(fixture_node(
        "c" + std::to_string(i), rng.next_int(min_exec, max_exec)));
    if (prev != k_no_subtask) graph.add_edge(prev, id);
    prev = id;
  }
  graph.finalize();
  return graph;
}

/// A three-subtask chain whose middle subtask runs on an ISP: DRHW `a`
/// (configuration `first_config`) -> ISP `b` -> DRHW `c` (`first_config`
/// + 1). `b` has no configuration (k_no_config), as every ISP subtask.
inline SubtaskGraph make_isp_sandwich_graph(const std::string& name,
                                            ConfigId first_config) {
  SubtaskGraph graph(name);
  graph.add_subtask({"a", 10'000, Resource::drhw, first_config});
  graph.add_subtask({"b", 8'000, Resource::isp});
  graph.add_subtask({"c", 12'000, Resource::drhw, first_config + 1});
  graph.add_edge(0, 1);
  graph.add_edge(1, 2);
  graph.finalize();
  return graph;
}

/// A coarse-grain array: the topology of virtex2_platform(), but with the
/// much smaller reconfiguration latency that Section 4 argues motivates the
/// hybrid approach (default 0.5 ms).
inline PlatformConfig coarse_grain_platform(int tiles,
                                            time_us latency = us(500)) {
  PlatformConfig cfg;
  cfg.tiles = tiles;
  cfg.reconfig_latency = latency;
  cfg.isps = 1;
  cfg.validate();
  return cfg;
}

}  // namespace drhw::testing
