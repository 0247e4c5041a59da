#include "prefetch/prefix_timing.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace drhw {

namespace {

/// Topological order of the combined precedence relation: graph edges plus
/// the per-unit execution chains (acyclic per Placement::validate()).
std::vector<SubtaskId> combined_topological_order(const SubtaskGraph& graph,
                                                  const Placement& placement) {
  const std::size_t n = graph.size();
  std::vector<std::vector<SubtaskId>> succ(n);
  for (std::size_t v = 0; v < n; ++v)
    for (SubtaskId w : graph.successors(static_cast<SubtaskId>(v)))
      succ[v].push_back(w);
  auto add_chain = [&](const std::vector<std::vector<SubtaskId>>& seqs) {
    for (const auto& seq : seqs)
      for (std::size_t i = 1; i < seq.size(); ++i)
        succ[static_cast<std::size_t>(seq[i - 1])].push_back(seq[i]);
  };
  add_chain(placement.tile_sequence);
  add_chain(placement.isp_sequence);

  std::vector<int> indeg(n, 0);
  for (std::size_t v = 0; v < n; ++v)
    for (SubtaskId w : succ[v]) ++indeg[static_cast<std::size_t>(w)];
  std::vector<SubtaskId> topo;
  std::vector<SubtaskId> stack;
  for (std::size_t v = 0; v < n; ++v)
    if (indeg[v] == 0) stack.push_back(static_cast<SubtaskId>(v));
  while (!stack.empty()) {
    const SubtaskId v = stack.back();
    stack.pop_back();
    topo.push_back(v);
    for (SubtaskId w : succ[static_cast<std::size_t>(v)])
      if (--indeg[static_cast<std::size_t>(w)] == 0) stack.push_back(w);
  }
  DRHW_CHECK_MSG(topo.size() == n, "combined precedence has a cycle");
  return topo;
}

}  // namespace

PrefixTiming::PrefixTiming(const SubtaskGraph& graph,
                           const Placement& placement,
                           const PlatformConfig& platform)
    : topo_(combined_topological_order(graph, placement)) {
  platform.validate();
  const std::size_t n = graph.size();
  topo_pos_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    topo_pos_[static_cast<std::size_t>(topo_[i])] = i;
  prev_.resize(n);
  on_drhw_.resize(n);
  exec_time_.resize(n);
  load_time_.resize(n);
  pred_begin_.reserve(n + 1);
  for (std::size_t s = 0; s < n; ++s) {
    const auto id = static_cast<SubtaskId>(s);
    prev_[s] = placement.prev_on_unit(id);
    on_drhw_[s] = placement.on_drhw(id);
    exec_time_[s] = graph.subtask(id).exec_time;
    const time_us own = graph.subtask(id).load_time;
    load_time_[s] = own != k_no_time ? own : platform.reconfig_latency;
    pred_begin_.push_back(pred_.size());
    // The evaluator's edge_comm(): data travels over the ICN between the
    // two subtasks' units.
    const bool to_isp = !on_drhw_[s];
    const TileId to_unit = to_isp ? placement.isp_of[s] : placement.tile_of[s];
    for (SubtaskId p : graph.predecessors(id)) {
      const auto pi = static_cast<std::size_t>(p);
      const bool from_isp = !placement.on_drhw(p);
      const TileId from_unit =
          from_isp ? placement.isp_of[pi] : placement.tile_of[pi];
      pred_.push_back(p);
      pred_comm_.push_back(
          icn_comm_latency(platform, from_unit, from_isp, to_unit, to_isp));
    }
  }
  pred_begin_.push_back(pred_.size());

  // Reverse topological order: every successor's tail is final before the
  // subtask's own is read.
  std::vector<time_us> after(n, 0);  // longest chain after the subtask ends
  tail_.resize(n);
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const auto v = static_cast<std::size_t>(*it);
    tail_[v] = exec_time_[v] + after[v];
    for (std::size_t e = pred_begin_[v]; e < pred_begin_[v + 1]; ++e) {
      time_us& a = after[static_cast<std::size_t>(pred_[e])];
      a = std::max(a, pred_comm_[e] + tail_[v]);
    }
    if (prev_[v] != k_no_subtask) {
      time_us& a = after[static_cast<std::size_t>(prev_[v])];
      a = std::max(a, tail_[v]);
    }
  }

  load_end_.assign(n, k_no_time);
  levels_.push_back(
      Level{std::vector<time_us>(n, 0),
            PortSet(platform.reconfig_ports), 0, 0});
  recompute(levels_.front(), 0);
}

void PrefixTiming::recompute(Level& level, std::size_t from) const {
  std::vector<time_us>& end = level.exec_end;
  time_us makespan = 0;
  for (std::size_t i = 0; i < from; ++i)
    makespan = std::max(makespan, end[static_cast<std::size_t>(topo_[i])]);
  for (std::size_t i = from; i < topo_.size(); ++i) {
    const auto v = static_cast<std::size_t>(topo_[i]);
    // Start = max(own load end, previous execution on the unit, every
    // predecessor's data arrival) — the evaluator's try_exec condition.
    time_us start = load_end_[v] != k_no_time ? load_end_[v] : 0;
    if (prev_[v] != k_no_subtask)
      start = std::max(start, end[static_cast<std::size_t>(prev_[v])]);
    for (std::size_t e = pred_begin_[v]; e < pred_begin_[v + 1]; ++e)
      start = std::max(start,
                       end[static_cast<std::size_t>(pred_[e])] + pred_comm_[e]);
    end[v] = start + exec_time_[v];
    makespan = std::max(makespan, end[v]);
  }
  level.makespan = makespan;
}

time_us PrefixTiming::dispatch_start(const Level& level, std::size_t idx,
                                     std::size_t port) const {
  // Explicit-order head-of-line dispatch: after the previous load, once the
  // tile's previous execution ended, on the earliest-free port.
  time_us t = std::max(level.last_dispatch, level.ports.free_at(port));
  if (prev_[idx] != k_no_subtask)
    t = std::max(t, level.exec_end[static_cast<std::size_t>(prev_[idx])]);
  return t;
}

time_us PrefixTiming::makespan_after(SubtaskId load) const {
  const auto idx = static_cast<std::size_t>(load);
  const Level& level = levels_[prefix_.size()];
  const time_us t = dispatch_start(level, idx, level.ports.earliest());
  return std::max(level.makespan, t + load_time_[idx] + tail_[idx]);
}

void PrefixTiming::extend(SubtaskId load) {
  const auto idx = static_cast<std::size_t>(load);
  DRHW_CHECK_MSG(on_drhw_[idx], "only DRHW subtasks are loaded");
  DRHW_CHECK_MSG(load_end_[idx] == k_no_time, "load already in the prefix");
  const std::size_t depth = prefix_.size();
  if (depth + 1 == levels_.size())
    levels_.push_back(levels_[depth]);
  else
    levels_[depth + 1] = levels_[depth];
  Level& level = levels_[depth + 1];

  const std::size_t port = level.ports.earliest();
  const time_us t = dispatch_start(level, idx, port);
  load_end_[idx] = level.ports.dispatch(port, t, load_time_[idx]);
  level.last_dispatch = t;

  recompute(level, topo_pos_[idx]);
  prefix_.push_back(load);
}

void PrefixTiming::undo() {
  DRHW_CHECK_MSG(!prefix_.empty(), "undo on an empty prefix");
  load_end_[static_cast<std::size_t>(prefix_.back())] = k_no_time;
  prefix_.pop_back();
}

}  // namespace drhw
