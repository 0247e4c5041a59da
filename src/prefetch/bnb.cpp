#include "prefetch/bnb.hpp"

#include <limits>

#include "graph/algorithms.hpp"
#include "prefetch/prefix_timing.hpp"
#include "util/check.hpp"

namespace drhw {

namespace {

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
  /// The available loads: unchosen, with every must-precede load chosen.
  /// One bit per load index, 64 to a word, as many words as the loads need.
  std::vector<std::uint64_t> ready;

  time_us best_makespan = std::numeric_limits<time_us>::max();
  std::vector<SubtaskId> best_order;
  std::uint64_t nodes = 0;
  bool budget_exhausted = false;

  static std::uint64_t bit(std::size_t i) {
    return std::uint64_t{1} << (i % 64);
  }
  void set_ready(std::size_t i) { ready[i / 64] |= bit(i); }
  void clear_ready(std::size_t i) { ready[i / 64] &= ~bit(i); }

  /// Chooses load i: it leaves the ready set, and every load whose last
  /// unchosen must-precede load it was joins it.
  void mark(std::size_t i) {
    clear_ready(i);
    for (int k : unlocks[i])
      if (--waiting[static_cast<std::size_t>(k)] == 0)
        set_ready(static_cast<std::size_t>(k));
  }

  /// Undoes mark(i), which must be the latest mark still in effect.
  void unmark(std::size_t i) {
    for (int k : unlocks[i])
      if (waiting[static_cast<std::size_t>(k)]++ == 0)
        clear_ready(static_cast<std::size_t>(k));
    set_ready(i);
  }

  /// The first available load index >= `from`, or loads.size() if none.
  std::size_t next_ready(std::size_t from) const {
    std::size_t w = from / 64;
    if (w >= ready.size()) return loads.size();
    std::uint64_t bits = ready[w] & (~std::uint64_t{0} << (from % 64));
    while (bits == 0) {
      if (++w == ready.size()) return loads.size();
      bits = ready[w];
    }
    return w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
  }

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
  /// child that passed the check in the loop below), and expands it unless
  /// its completion bound is no better than the incumbent.
  void dfs() {
    if (!enter()) return;
    const std::size_t depth = timing.depth();
    if (depth == loads.size()) {
      best_makespan = timing.makespan();
      best_order = timing.prefix();
      return;
    }
    // The port-capacity bound over the loads left (see bnb.hpp).
    if (timing.completion_bound() >= best_makespan) return;

    // Candidates: the available loads, in `loads` order. Each child's
    // mark/unmark pair restores the ready set, so walking the live set
    // visits exactly the loads available on entry.
    for (std::size_t i = next_ready(0); i < loads.size();
         i = next_ready(i + 1)) {
      const SubtaskId load = loads[i];
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
  ctx.timing.set_loads(ctx.loads);

  // Load i must come after load j when j's subtask reaches i's gate, the
  // execution before i on its tile: its dispatch waits for that execution,
  // which waits for j's load.
  const std::size_t count = ctx.loads.size();
  std::vector<int> waiter(ctx.timing.gate_count(), -1);  // load index
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t gate = ctx.timing.gate_of(ctx.loads[i]);
    if (gate != PrefixTiming::k_no_gate) waiter[gate] = static_cast<int>(i);
  }
  ctx.waiting.assign(count, 0);
  ctx.unlocks.assign(count, {});
  for (std::size_t j = 0; j < count; ++j)
    ctx.timing.for_each_gate_reached(ctx.loads[j], [&](std::size_t gate) {
      const int i = waiter[gate];
      if (i < 0) return;
      ++ctx.waiting[static_cast<std::size_t>(i)];
      ctx.unlocks[j].push_back(i);
    });
  ctx.ready.assign((count + 63) / 64, 0);
  for (std::size_t i = 0; i < count; ++i)
    if (ctx.waiting[i] == 0) ctx.set_ready(i);
  ctx.dfs();

  if (ctx.best_order.size() != count) {
    // Node budget ran out before reaching any leaf: fall back to the greedy
    // linear extension (take the heaviest available load each step), which
    // is always feasible.
    ctx.best_order.clear();
    while (ctx.best_order.size() < count) {
      const std::size_t pick = ctx.next_ready(0);
      DRHW_CHECK_MSG(pick < count, "load precedence is cyclic");
      ctx.mark(pick);
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
