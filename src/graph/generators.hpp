#pragma once

/// \file generators.hpp
/// Random task-graph generators for property tests and the scalability
/// benchmarks (the paper's Section 4 scaling experiment sweeps graphs from
/// 14 to ~450 subtasks).

#include "graph/subtask_graph.hpp"
#include "util/rng.hpp"

namespace drhw {

/// Parameters for the layered (a.k.a. "Tomasulo-style" pipeline) generator.
struct LayeredGraphParams {
  int subtasks = 14;            ///< total node count
  int min_layer_width = 1;      ///< nodes per layer lower bound
  int max_layer_width = 4;      ///< nodes per layer upper bound
  time_us min_exec = ms(1);     ///< per-node execution time lower bound
  time_us max_exec = ms(30);    ///< per-node execution time upper bound
  double edge_density = 0.5;    ///< probability of extra cross-layer edges
  double isp_fraction = 0.0;    ///< fraction of nodes mapped to the ISP
};

/// Random DAG organised in layers; every node has at least one predecessor
/// in the previous layer (except layer 0), guaranteeing a connected pipeline.
SubtaskGraph make_layered_graph(const LayeredGraphParams& params, Rng& rng);

}  // namespace drhw
