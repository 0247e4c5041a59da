#include "prefetch/prefix_timing.hpp"

#include <algorithm>

#include "sim/port_set.hpp"
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

/// A path length to a subtask that no path reaches (lengths are >= 0).
constexpr time_us k_unreached = -1;

}  // namespace

PrefixTiming::PrefixTiming(const SubtaskGraph& graph,
                           const Placement& placement,
                           const PlatformConfig& platform) {
  platform.validate();
  const std::size_t n = graph.size();
  const std::vector<SubtaskId> topo =
      combined_topological_order(graph, placement);
  std::vector<std::size_t> topo_pos(n);
  for (std::size_t i = 0; i < n; ++i)
    topo_pos[static_cast<std::size_t>(topo[i])] = i;

  std::vector<SubtaskId> prev(n);
  std::vector<time_us> exec_time(n);
  on_drhw_.resize(n);
  load_time_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    const auto id = static_cast<SubtaskId>(s);
    prev[s] = placement.prev_on_unit(id);
    on_drhw_[s] = placement.on_drhw(id);
    exec_time[s] = graph.subtask(id).exec_time;
    const time_us own = graph.subtask(id).load_time;
    load_time_[s] = own != k_no_time ? own : platform.reconfig_latency;
  }

  // The latest input of v's execution under the execution ends `end`: the
  // previous execution on its unit and every predecessor's end, the
  // evaluator's try_exec condition. Ends and the result are k_unreached
  // where no path arrives; it is below every end, so max() skips it.
  auto latest_input = [&](std::size_t v, const std::vector<time_us>& end) {
    time_us latest = k_unreached;
    if (prev[v] != k_no_subtask)
      latest = end[static_cast<std::size_t>(prev[v])];
    for (SubtaskId p : graph.predecessors(static_cast<SubtaskId>(v)))
      latest = std::max(latest, end[static_cast<std::size_t>(p)]);
    return latest;
  };

  // Level 0, the no-load schedule: every configuration resident.
  std::vector<time_us> no_load_end(n, 0);
  time_us no_load_makespan = 0;
  for (SubtaskId id : topo) {
    const auto v = static_cast<std::size_t>(id);
    no_load_end[v] =
        std::max<time_us>(0, latest_input(v, no_load_end)) + exec_time[v];
    no_load_makespan = std::max(no_load_makespan, no_load_end[v]);
  }

  // Reverse topological order: every successor's tail is final before the
  // subtask's own is read.
  std::vector<time_us> after(n, 0);  // longest chain after the subtask ends
  tail_.resize(n);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const auto v = static_cast<std::size_t>(*it);
    tail_[v] = exec_time[v] + after[v];
    for (SubtaskId p : graph.predecessors(static_cast<SubtaskId>(v))) {
      time_us& a = after[static_cast<std::size_t>(p)];
      a = std::max(a, tail_[v]);
    }
    if (prev[v] != k_no_subtask) {
      time_us& a = after[static_cast<std::size_t>(prev[v])];
      a = std::max(a, tail_[v]);
    }
  }

  // The gates: one per DRHW subtask with an execution before it on its tile
  // (each execution precedes at most one other on its unit, so no gate is
  // shared).
  std::vector<SubtaskId> gate_subtask;
  gate_of_.assign(n, k_no_gate);
  for (std::size_t s = 0; s < n; ++s)
    if (on_drhw_[s] && prev[s] != k_no_subtask) {
      gate_of_[s] = gate_subtask.size();
      gate_subtask.push_back(prev[s]);
    }
  gates_ = gate_subtask.size();

  // The gate table: per DRHW subtask L, the longest path from L's load end
  // to every execution end, forward along the topological order from L.
  std::vector<time_us> path(n);
  reach_begin_.reserve(n + 1);
  for (std::size_t s = 0; s < n; ++s) {
    reach_begin_.push_back(reach_.size());
    if (!on_drhw_[s] || gates_ == 0) continue;
    std::fill(path.begin(), path.end(), k_unreached);
    path[s] = exec_time[s];
    for (std::size_t i = topo_pos[s] + 1; i < n; ++i) {
      const auto v = static_cast<std::size_t>(topo[i]);
      const time_us in = latest_input(v, path);
      if (in != k_unreached) path[v] = in + exec_time[v];
    }
    for (std::size_t g = 0; g < gates_; ++g) {
      const time_us length =
          path[static_cast<std::size_t>(gate_subtask[g])];
      if (length != k_unreached) reach_.push_back(GatePath{g, length});
    }
  }
  reach_begin_.push_back(reach_.size());

  ports_ = static_cast<std::size_t>(platform.reconfig_ports);
  stride_ = gates_ + ports_ + 2;
  levels_.assign(stride_, 0);  // ports free at 0, no dispatch yet
  for (std::size_t g = 0; g < gates_; ++g)
    levels_[g] = no_load_end[static_cast<std::size_t>(gate_subtask[g])];
  levels_[makespan_slot()] = no_load_makespan;
  loaded_.assign(n, 0);
}

time_us PrefixTiming::dispatch_start(const time_us* level, std::size_t idx,
                                     std::size_t port) const {
  // Explicit-order head-of-line dispatch: after the previous load, once the
  // tile's previous execution ended, on the earliest-free port.
  time_us t =
      std::max(level[last_dispatch_slot()], level[ports_slot() + port]);
  if (gate_of_[idx] != k_no_gate) t = std::max(t, level[gate_of_[idx]]);
  return t;
}

time_us PrefixTiming::makespan_after(SubtaskId load) const {
  const auto idx = static_cast<std::size_t>(load);
  const time_us* here = level(depth());
  const time_us t =
      dispatch_start(here, idx, earliest_free(here + ports_slot(), ports_));
  return std::max(here[makespan_slot()], t + load_time_[idx] + tail_[idx]);
}

void PrefixTiming::extend(SubtaskId load) {
  const auto idx = static_cast<std::size_t>(load);
  DRHW_CHECK_MSG(on_drhw_[idx], "only DRHW subtasks are loaded");
  DRHW_CHECK_MSG(!loaded_[idx], "load already in the prefix");
  const std::size_t depth = prefix_.size();
  if (levels_.size() < (depth + 2) * stride_)
    levels_.resize((depth + 2) * stride_);
  time_us* next = levels_.data() + (depth + 1) * stride_;
  std::copy(next - stride_, next, next);

  time_us* free = next + ports_slot();
  const std::size_t port = earliest_free(free, ports_);
  const time_us t = dispatch_start(next, idx, port);
  const time_us end = t + load_time_[idx];
  free[port] = end;
  next[last_dispatch_slot()] = t;
  for (std::size_t k = reach_begin_[idx]; k < reach_begin_[idx + 1]; ++k) {
    time_us& gate_end = next[reach_[k].gate];
    gate_end = std::max(gate_end, end + reach_[k].length);
  }
  time_us& makespan = next[makespan_slot()];
  makespan = std::max(makespan, end + tail_[idx]);

  loaded_[idx] = 1;
  prefix_.push_back(load);
}

void PrefixTiming::undo() {
  DRHW_CHECK_MSG(!prefix_.empty(), "undo on an empty prefix");
  loaded_[static_cast<std::size_t>(prefix_.back())] = 0;
  prefix_.pop_back();
}

}  // namespace drhw
