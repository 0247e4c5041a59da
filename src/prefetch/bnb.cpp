#include "prefetch/bnb.hpp"

#include <limits>

#include "graph/algorithms.hpp"
#include "prefetch/prefix_timing.hpp"
#include "util/check.hpp"

namespace drhw {

namespace {

/// Ancestor sets over the combined precedence relation: graph edges plus the
/// per-unit execution chains, accumulated along the topological order
/// `topo`. Entry [v][u] true iff u must finish before v can start.
std::vector<std::vector<bool>> combined_ancestors(
    const SubtaskGraph& graph, const Placement& placement,
    const std::vector<SubtaskId>& topo) {
  const std::size_t n = graph.size();
  std::vector<std::vector<bool>> anc(n, std::vector<bool>(n, false));
  for (SubtaskId v : topo) {
    std::vector<bool>& av = anc[static_cast<std::size_t>(v)];
    auto inherit = [&](SubtaskId p) {
      const std::vector<bool>& ap = anc[static_cast<std::size_t>(p)];
      av[static_cast<std::size_t>(p)] = true;
      for (std::size_t w = 0; w < n; ++w)
        if (ap[w]) av[w] = true;
    };
    for (SubtaskId p : graph.predecessors(v)) inherit(p);
    const SubtaskId prev = placement.prev_on_unit(v);
    if (prev != k_no_subtask) inherit(prev);
  }
  return anc;
}

struct SearchContext {
  SearchContext(const SubtaskGraph& graph, const Placement& placement,
                const PlatformConfig& platform)
      : timing(graph, placement, platform) {}

  PrefixTiming timing;
  std::uint64_t node_limit = 0;

  /// Every load, by descending weight (ties toward the lower id): heavier
  /// (more critical) loads are tried first so that the first solution found
  /// is already strong, improving pruning.
  std::vector<SubtaskId> loads;
  /// Per load index: how many of its must-precede loads are still unchosen,
  /// and which loads it must precede.
  std::vector<int> waiting;
  std::vector<std::vector<int>> unlocks;
  std::vector<char> chosen;
  /// Per search depth: the candidate load indices of the node there.
  std::vector<std::vector<int>> candidates;

  time_us best_makespan = std::numeric_limits<time_us>::max();
  std::vector<SubtaskId> best_order;
  std::uint64_t nodes = 0;
  bool budget_exhausted = false;

  void mark(int i) {
    chosen[static_cast<std::size_t>(i)] = 1;
    for (int k : unlocks[static_cast<std::size_t>(i)])
      --waiting[static_cast<std::size_t>(k)];
  }

  void unmark(int i) {
    for (int k : unlocks[static_cast<std::size_t>(i)])
      ++waiting[static_cast<std::size_t>(k)];
    chosen[static_cast<std::size_t>(i)] = 0;
  }

  bool available(std::size_t i) const { return !chosen[i] && waiting[i] == 0; }

  /// Counts a node against the budget; false once the budget is spent.
  bool enter() {
    ++nodes;
    if (node_limit != 0 && nodes > node_limit) {
      budget_exhausted = true;
      return false;
    }
    return true;
  }

  /// Enters a node whose makespan is below the incumbent's (the root, or a
  /// child that passed the check in the loop below).
  void dfs() {
    if (!enter()) return;
    const std::size_t depth = timing.depth();
    if (depth == loads.size()) {
      best_makespan = timing.makespan();
      best_order = timing.prefix();
      return;
    }

    // Candidates: unchosen loads whose required predecessors are all chosen,
    // in `loads` order.
    std::vector<int>& here = candidates[depth];
    here.clear();
    for (std::size_t i = 0; i < loads.size(); ++i)
      if (available(i)) here.push_back(static_cast<int>(i));
    for (int i : here) {
      const SubtaskId load = loads[static_cast<std::size_t>(i)];
      // Adding loads never shortens a schedule, so a child's makespan bounds
      // every completion of it. One no better than the incumbent is counted
      // as a node but never timed or expanded (see bnb.hpp).
      if (timing.makespan_after(load) >= best_makespan) {
        if (!enter()) return;
        continue;
      }
      mark(i);
      timing.extend(load);
      dfs();
      timing.undo();
      unmark(i);
      if (budget_exhausted) return;
    }
  }
};

}  // namespace

BnbResult optimal_prefetch(const SubtaskGraph& graph,
                           const Placement& placement,
                           const PlatformConfig& platform,
                           const std::vector<bool>& needs_load,
                           const BnbOptions& options) {
  SearchContext ctx(graph, placement, platform);
  ctx.node_limit = options.node_limit;
  for (std::size_t s = 0; s < graph.size(); ++s)
    if (needs_load[s]) ctx.loads.push_back(static_cast<SubtaskId>(s));
  order_by_weight(ctx.loads, subtask_weights(graph));

  // Load i must come after load j when j's subtask must have *executed*
  // before load i's tile becomes reconfigurable (i.e. j precedes, in the
  // combined relation, the subtask scheduled immediately before i's).
  const std::size_t count = ctx.loads.size();
  const auto anc =
      combined_ancestors(graph, placement, ctx.timing.topo_order());
  ctx.waiting.assign(count, 0);
  ctx.unlocks.assign(count, {});
  for (std::size_t i = 0; i < count; ++i) {
    const SubtaskId prev = placement.prev_on_unit(ctx.loads[i]);
    if (prev == k_no_subtask) continue;
    const std::vector<bool>& before = anc[static_cast<std::size_t>(prev)];
    for (std::size_t j = 0; j < count; ++j) {
      const SubtaskId a = ctx.loads[j];
      if (i != j && (a == prev || before[static_cast<std::size_t>(a)])) {
        ++ctx.waiting[i];
        ctx.unlocks[j].push_back(static_cast<int>(i));
      }
    }
  }
  ctx.chosen.assign(count, 0);
  ctx.candidates.assign(count, {});
  for (auto& c : ctx.candidates) c.reserve(count);
  ctx.dfs();

  if (ctx.best_order.size() != count) {
    // Node budget ran out before reaching any leaf: fall back to the greedy
    // linear extension (take the heaviest available load each step), which
    // is always feasible.
    ctx.best_order.clear();
    while (ctx.best_order.size() < count) {
      std::size_t pick = 0;
      while (pick < count && !ctx.available(pick)) ++pick;
      DRHW_CHECK_MSG(pick < count, "load precedence is cyclic");
      ctx.mark(static_cast<int>(pick));
      ctx.best_order.push_back(ctx.loads[pick]);
    }
  }
  BnbResult result;
  result.order = ctx.best_order;
  result.proven_optimal = !ctx.budget_exhausted;
  result.nodes_explored = ctx.nodes;
  result.eval = evaluate(graph, placement, platform,
                         LoadPlan{LoadPolicy::explicit_order, result.order});
  return result;
}

}  // namespace drhw
