#pragma once

/// \file subtask_graph.hpp
/// The task model of the paper: a task is a DAG of subtasks, each mapped to
/// DRHW (needs a configuration load before executing on a tile) or to an ISP
/// (no load needed).

#include <stdexcept>
#include <string>
#include <vector>

#include "util/ids.hpp"
#include "util/time.hpp"

namespace drhw {

/// Kind of processing element a subtask targets.
enum class Resource {
  drhw,  ///< runs on a reconfigurable tile; requires its configuration
  isp,   ///< runs on an instruction-set processor; never reconfigured
};

/// One node of a subtask graph.
struct Subtask {
  std::string name;            ///< human-readable label (for traces/Gantt)
  time_us exec_time = 0;       ///< execution latency once ready and configured
  Resource resource = Resource::drhw;
  /// Identity of the configuration bitstream. Defaults to "unique per node";
  /// builders may share ConfigIds across tasks to model reusable configs.
  ConfigId config = k_no_config;
  /// Energy consumed by one execution (arbitrary units; read by the energy
  /// accounting of both simulators, not by timing).
  double exec_energy = 0.0;
  /// Reconfiguration latency of this subtask's bitstream; k_no_time selects
  /// the platform default. Heterogeneous values model differing bitstream
  /// sizes (e.g. coarse-grain accelerators reconfiguring faster).
  time_us load_time = k_no_time;
};

/// Immutable-after-build DAG of subtasks.
///
/// Construction happens through the mutating API (add_subtask / add_edge)
/// followed by finalize(), which validates acyclicity and freezes the
/// topological order. All algorithms require a finalized graph.
class SubtaskGraph {
 public:
  SubtaskGraph() = default;
  /// \param name label for reports and traces.
  explicit SubtaskGraph(std::string name) : name_(std::move(name)) {}

  /// Adds a node; returns its id. Throws std::invalid_argument on
  /// non-positive exec_time.
  SubtaskId add_subtask(Subtask subtask);

  /// Adds a precedence edge from -> to. Throws std::invalid_argument on
  /// out-of-range ids, self-loops or duplicate edges.
  void add_edge(SubtaskId from, SubtaskId to);

  /// Validates the DAG (acyclic, ids consistent), computes and caches the
  /// topological order. Throws std::invalid_argument if a cycle exists.
  /// Assigns fresh unique ConfigIds to subtasks left at k_no_config.
  void finalize();

  bool finalized() const { return finalized_; }
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  std::size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  const Subtask& subtask(SubtaskId id) const { return nodes_[checked(id)]; }
  Subtask& subtask_mutable(SubtaskId id) { return nodes_[checked(id)]; }

  const std::vector<SubtaskId>& predecessors(SubtaskId id) const {
    return preds_[checked(id)];
  }
  const std::vector<SubtaskId>& successors(SubtaskId id) const {
    return succs_[checked(id)];
  }

  /// Topological order (finalized graphs only).
  const std::vector<SubtaskId>& topological_order() const;

  /// Number of subtasks mapped to DRHW.
  std::size_t drhw_count() const;

  /// Sum of all execution times (DRHW + ISP).
  time_us total_exec_time() const;

  /// ids of nodes with no predecessors / no successors.
  std::vector<SubtaskId> sources() const;
  std::vector<SubtaskId> sinks() const;

  /// True if an edge from->to exists.
  bool has_edge(SubtaskId from, SubtaskId to) const;

 private:
  // Inline: this guard sits on every node access of the online kernel's
  // event loop (the `--perf` profile showed the out-of-line version as the
  // single hottest symbol).
  std::size_t checked(SubtaskId id) const {
    if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size())
      throw std::invalid_argument("subtask id out of range");
    return static_cast<std::size_t>(id);
  }

  std::string name_;
  std::vector<Subtask> nodes_;
  std::vector<std::vector<SubtaskId>> preds_;
  std::vector<std::vector<SubtaskId>> succs_;
  std::vector<SubtaskId> topo_;
  bool finalized_ = false;
};

}  // namespace drhw
