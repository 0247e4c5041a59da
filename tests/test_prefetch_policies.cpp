// Tests for the prefetch schedulers: branch & bound optimality (against a
// brute-force oracle over every load permutation), the incremental prefix
// bound the B&B searches with (against the event-driven evaluator), the
// list heuristic of ref. [7], and the ordering relations between policies.
//
// drhw-lint: allow-file(wall-clock: Section 4 cost bound times the host)

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "fixtures.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "platform/platform.hpp"
#include "prefetch/bnb.hpp"
#include "prefetch/list_prefetch.hpp"
#include "prefetch/prefix_timing.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule_checks.hpp"

namespace drhw {
namespace {

using testing::expect_valid_schedule;
using testing::make_chain_graph;
using testing::make_fork_join_graph;

std::vector<bool> all_drhw(const SubtaskGraph& g, const Placement& p) {
  std::vector<bool> needs(g.size(), false);
  for (std::size_t s = 0; s < g.size(); ++s)
    needs[s] = p.on_drhw(static_cast<SubtaskId>(s));
  return needs;
}

/// The optimum by brute force, sharing no code with the branch & bound:
/// every permutation of the loads scored by the event-driven evaluator.
/// Orders the evaluator rejects as head-of-line deadlocks are skipped.
time_us brute_force_optimum(const SubtaskGraph& g, const Placement& p,
                            const PlatformConfig& platform,
                            const std::vector<bool>& needs) {
  std::vector<SubtaskId> order;
  for (std::size_t s = 0; s < g.size(); ++s)
    if (needs[s]) order.push_back(static_cast<SubtaskId>(s));
  time_us best = std::numeric_limits<time_us>::max();
  do {
    try {
      best = std::min(
          best,
          evaluate(g, p, platform, LoadPlan{LoadPolicy::explicit_order, order})
              .makespan);
    } catch (const std::invalid_argument&) {
      // Infeasible order: a load waits on a tile whose previous execution
      // needs a load queued behind it.
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

class RandomGraphPrefetch : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    LayeredGraphParams params;
    params.subtasks = 7;  // small enough for the exhaustive oracle
    params.min_exec = ms(1);
    params.max_exec = ms(12);
    graph_ = make_layered_graph(params, rng);
    tiles_ = 3 + static_cast<int>(GetParam() % 3);
    placement_ = list_schedule(graph_, tiles_);
    platform_ = virtex2_platform(tiles_);
  }
  SubtaskGraph graph_;
  Placement placement_;
  PlatformConfig platform_ = virtex2_platform(4);
  int tiles_ = 4;
};

TEST_P(RandomGraphPrefetch, BnbMatchesExhaustiveOptimum) {
  const auto needs = all_drhw(graph_, placement_);
  const auto bnb = optimal_prefetch(graph_, placement_, platform_, needs);
  EXPECT_TRUE(bnb.proven_optimal);
  EXPECT_EQ(bnb.eval.makespan,
            brute_force_optimum(graph_, placement_, platform_, needs));
}

TEST_P(RandomGraphPrefetch, PolicyOrdering) {
  const auto needs = all_drhw(graph_, placement_);
  const auto bnb = optimal_prefetch(graph_, placement_, platform_, needs);
  const auto list = list_prefetch(graph_, placement_, platform_, needs);
  const auto ondemand = evaluate(graph_, placement_, platform_,
                                 on_demand_all(graph_, placement_));
  const time_us ideal = placement_.ideal_makespan;

  EXPECT_GE(bnb.eval.makespan, ideal);
  EXPECT_LE(bnb.eval.makespan, list.makespan);      // optimal <= heuristic
  EXPECT_LE(bnb.eval.makespan, ondemand.makespan);  // optimal <= no prefetch
}

TEST_P(RandomGraphPrefetch, AllPoliciesProduceValidSchedules) {
  const auto needs = all_drhw(graph_, placement_);
  {
    const LoadPlan plan = on_demand_all(graph_, placement_);
    const auto r = evaluate(graph_, placement_, platform_, plan);
    expect_valid_schedule(graph_, placement_, platform_, plan, r);
  }
  {
    const LoadPlan plan = testing::weight_priority_plan(graph_, placement_);
    const auto r = evaluate(graph_, placement_, platform_, plan);
    expect_valid_schedule(graph_, placement_, platform_, plan, r);
  }
  {
    const auto bnb = optimal_prefetch(graph_, placement_, platform_, needs);
    const LoadPlan plan{LoadPolicy::explicit_order, bnb.order};
    expect_valid_schedule(graph_, placement_, platform_, plan, bnb.eval);
  }
}

TEST_P(RandomGraphPrefetch, LoadRemovalIsMonotone) {
  // Removing loads (more reuse) never increases the makespan — the property
  // the hybrid's run-time cancellations rely on.
  Rng rng(GetParam() ^ 0xabcdef);
  auto needs = all_drhw(graph_, placement_);
  const auto full = list_prefetch(graph_, placement_, platform_, needs);
  auto reduced = needs;
  for (std::size_t s = 0; s < reduced.size(); ++s)
    if (reduced[s] && rng.next_bool(0.4)) reduced[s] = false;
  const auto fewer = list_prefetch(graph_, placement_, platform_, reduced);
  EXPECT_LE(fewer.makespan, full.makespan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphPrefetch,
                         ::testing::Range<std::uint64_t>(1, 21));

/// Per subtask: the subtasks that must finish before it can start, under
/// graph edges plus the per-unit execution orders (a plain backward search).
std::vector<std::vector<bool>> must_finish_before(const SubtaskGraph& g,
                                                  const Placement& p) {
  std::vector<std::vector<bool>> before(g.size(),
                                        std::vector<bool>(g.size(), false));
  for (std::size_t v = 0; v < g.size(); ++v) {
    std::vector<SubtaskId> stack{static_cast<SubtaskId>(v)};
    while (!stack.empty()) {
      const SubtaskId u = stack.back();
      stack.pop_back();
      std::vector<SubtaskId> up = g.predecessors(u);
      if (p.prev_on_unit(u) != k_no_subtask) up.push_back(p.prev_on_unit(u));
      for (SubtaskId w : up) {
        if (before[v][static_cast<std::size_t>(w)]) continue;
        before[v][static_cast<std::size_t>(w)] = true;
        stack.push_back(w);
      }
    }
  }
  return before;
}

/// Loads that may be appended to the prefix `in_prefix` under the B&B's
/// must_precede rule: every load that must execute before the subtask ahead
/// of it on its tile is already in the prefix.
std::vector<SubtaskId> appendable_loads(
    const Placement& p, const std::vector<bool>& needs,
    const std::vector<char>& in_prefix,
    const std::vector<std::vector<bool>>& before) {
  std::vector<SubtaskId> out;
  for (std::size_t s = 0; s < needs.size(); ++s) {
    if (!needs[s] || in_prefix[s]) continue;
    const SubtaskId prev = p.prev_on_unit(static_cast<SubtaskId>(s));
    bool ready = true;
    if (prev != k_no_subtask)
      for (std::size_t a = 0; a < needs.size() && ready; ++a)
        ready = !(needs[a] && !in_prefix[a] &&
                  (static_cast<SubtaskId>(a) == prev ||
                   before[static_cast<std::size_t>(prev)][a]));
    if (ready) out.push_back(static_cast<SubtaskId>(s));
  }
  return out;
}

/// A random walk of extend/undo steps over feasible prefixes, checking the
/// incremental makespan against a from-scratch evaluation at every step, and
/// makespan_after() against extend() for every load appendable there.
void walk_against_evaluator(const SubtaskGraph& g, const Placement& p,
                            const PlatformConfig& platform, Rng& rng) {
  const auto needs = all_drhw(g, p);
  const auto before = must_finish_before(g, p);
  PrefixTiming timing(g, p, platform);
  std::vector<char> in_prefix(g.size(), 0);
  std::size_t deepest = 0;
  for (int step = 0; step <= 150; ++step) {
    const LoadPlan plan{LoadPolicy::explicit_order, timing.prefix()};
    ASSERT_EQ(timing.makespan(),
              evaluate(g, p, platform, plan).makespan)
        << "step " << step << ", prefix of " << timing.depth();
    const auto appendable = appendable_loads(p, needs, in_prefix, before);
    // The O(ports) price of every child is its makespan once entered.
    for (SubtaskId load : appendable) {
      const time_us priced = timing.makespan_after(load);
      timing.extend(load);
      ASSERT_EQ(priced, timing.makespan())
          << "step " << step << ", appending " << load;
      timing.undo();
    }
    if (appendable.empty() && timing.depth() == 0) break;  // nothing to load
    if (!appendable.empty() && (timing.depth() == 0 || rng.next_bool(0.65))) {
      const SubtaskId load = appendable[rng.pick_index(appendable)];
      timing.extend(load);
      in_prefix[static_cast<std::size_t>(load)] = 1;
      deepest = std::max(deepest, timing.depth());
    } else {
      const SubtaskId last = timing.prefix().back();
      timing.undo();
      in_prefix[static_cast<std::size_t>(last)] = 0;
    }
  }
  // The walk reached complete orders, not just short prefixes.
  EXPECT_EQ(deepest, static_cast<std::size_t>(
                         std::count(needs.begin(), needs.end(), true)));
}

/// Runs `body(graph, placement, platform, rng)` over every platform feature
/// the prefix timing depends on: 1-3 ports, with or without ISP subtasks,
/// with or without per-subtask load times. Each of the 12 cases seeds its
/// own Rng; seeds run from `seed_base` + 1 in one block of four per port
/// count, 16 apart.
template <class Body>
void for_each_platform_case(std::uint64_t seed_base, std::size_t subtasks,
                            Body body) {
  for (int ports = 1; ports <= 3; ++ports) {
    std::uint64_t seed = seed_base + 16 * static_cast<std::uint64_t>(ports - 1);
    for (double isp_fraction : {0.0, 0.3})
      for (bool overrides : {false, true}) {
        SCOPED_TRACE("ports=" + std::to_string(ports) +
                     " isp_fraction=" + std::to_string(isp_fraction) +
                     " overrides=" + std::to_string(overrides));
        Rng rng(++seed);
        LayeredGraphParams params;
        params.subtasks = subtasks;
        params.max_exec = ms(10);
        params.isp_fraction = isp_fraction;
        SubtaskGraph g = make_layered_graph(params, rng);
        PlatformConfig platform = virtex2_platform(5);
        platform.reconfig_ports = ports;
        platform.isps = 2;
        const Placement p = list_schedule(g, platform.tiles, platform.isps);
        if (overrides)
          for (std::size_t s = 0; s < g.size(); ++s)
            if (rng.next_bool(0.5))
              g.subtask_mutable(static_cast<SubtaskId>(s)).load_time =
                  ms(rng.next_int(1, 7));
        body(g, p, platform, rng);
      }
  }
}

TEST(PrefixTiming, MatchesEvaluatorOnRandomExtendUndoWalks) {
  // Differential test of the B&B's incremental bound and its O(ports) child
  // price. The 30-subtask graphs have many gates and long unit chains.
  for (std::size_t subtasks : {12, 30}) {
    SCOPED_TRACE("subtasks=" + std::to_string(subtasks));
    for_each_platform_case(0, subtasks, walk_against_evaluator);
  }
}

/// The branch & bound as it was before children were priced, sharing only
/// PrefixTiming and order_by_weight() with optimal_prefetch(): extend every
/// candidate, count it on entry, prune it there when it is no better than
/// the incumbent, and fall back to the greedy order when the budget ends
/// the search before any leaf.
BnbResult reference_search(const SubtaskGraph& g, const Placement& p,
                           const PlatformConfig& platform,
                           const std::vector<bool>& needs,
                           std::uint64_t node_limit) {
  const auto before = must_finish_before(g, p);
  const auto weights = subtask_weights(g);
  const auto count =
      static_cast<std::size_t>(std::count(needs.begin(), needs.end(), true));
  PrefixTiming timing(g, p, platform);
  std::vector<char> in_prefix(g.size(), 0);
  auto candidates = [&] {
    auto c = appendable_loads(p, needs, in_prefix, before);
    order_by_weight(c, weights);
    return c;
  };
  BnbResult r;
  time_us best = std::numeric_limits<time_us>::max();
  std::function<void()> dfs = [&] {
    if (++r.nodes_explored > node_limit && node_limit != 0) {
      r.proven_optimal = false;
      return;
    }
    if (timing.depth() == count) {
      if (timing.makespan() < best) {
        best = timing.makespan();
        r.order = timing.prefix();
      }
      return;
    }
    if (timing.depth() != 0 && timing.makespan() >= best) return;
    for (SubtaskId load : candidates()) {
      timing.extend(load);
      in_prefix[static_cast<std::size_t>(load)] = 1;
      dfs();
      timing.undo();
      in_prefix[static_cast<std::size_t>(load)] = 0;
      if (!r.proven_optimal) return;
    }
  };
  dfs();
  if (r.order.size() != count) {
    r.order.clear();
    while (r.order.size() < count) {
      r.order.push_back(candidates().front());
      in_prefix[static_cast<std::size_t>(r.order.back())] = 1;
    }
  }
  return r;
}

/// optimal_prefetch() against reference_search() on random need sets of
/// every platform case over `subtasks`-subtask graphs, with the node budget
/// `node_limit`. Trial 0 of each case loads every DRHW subtask. Returns the
/// most loads any search ordered.
std::size_t expect_search_matches_reference(std::uint64_t node_limit,
                                            std::size_t subtasks = 11) {
  std::size_t most_loads = 0;
  for_each_platform_case(
      100, subtasks,
      [&](const SubtaskGraph& g, const Placement& p,
          const PlatformConfig& platform, Rng& rng) {
        for (int trial = 0; trial < 3; ++trial) {
          std::vector<bool> needs = all_drhw(g, p);
          if (trial != 0)
            for (std::size_t s = 0; s < needs.size(); ++s)
              needs[s] = needs[s] && rng.next_bool(0.7);
          most_loads = std::max(
              most_loads, static_cast<std::size_t>(
                              std::count(needs.begin(), needs.end(), true)));
          BnbOptions options;
          options.node_limit = node_limit;
          const BnbResult got =
              optimal_prefetch(g, p, platform, needs, options);
          const BnbResult want =
              reference_search(g, p, platform, needs, node_limit);
          SCOPED_TRACE("trial " + std::to_string(trial));
          EXPECT_EQ(got.order, want.order);
          EXPECT_EQ(got.nodes_explored, want.nodes_explored);
          EXPECT_EQ(got.proven_optimal, want.proven_optimal);
        }
      });
  return most_loads;
}

TEST(Bnb, MatchesTheSearchThatTimesEveryChild) {
  expect_search_matches_reference(0);
}

TEST(Bnb, BudgetExhaustionMatchesTheSearchThatTimesEveryChild) {
  for (std::uint64_t limit : {1, 5, 50}) {
    SCOPED_TRACE("node_limit=" + std::to_string(limit));
    expect_search_matches_reference(limit);
  }
  // Over 64 loads the ready set spans more than one machine word. 50 nodes
  // end the widest searches before any leaf (the greedy fallback); 500
  // reach leaves and prune.
  for (std::uint64_t limit : {50, 500}) {
    SCOPED_TRACE("72 subtasks, node_limit=" + std::to_string(limit));
    EXPECT_GE(expect_search_matches_reference(limit, 72), 70u);
  }
}

TEST(Bnb, EmptyLoadSetIsIdeal) {
  Rng rng(5);
  const auto g = make_chain_graph(4, ms(5), ms(9), rng);
  const auto p = list_schedule(g, 4);
  std::vector<bool> none(g.size(), false);
  const auto r = optimal_prefetch(g, p, virtex2_platform(4), none);
  EXPECT_EQ(r.eval.makespan, p.ideal_makespan);
  EXPECT_TRUE(r.order.empty());
}

TEST(Bnb, ChainOrderIsForced) {
  // On a chain the combined precedence forces the natural load order.
  Rng rng(6);
  const auto g = make_chain_graph(5, ms(6), ms(6), rng);
  const auto p = list_schedule(g, 5);
  std::vector<bool> needs(g.size(), true);
  const auto r = optimal_prefetch(g, p, virtex2_platform(5), needs);
  EXPECT_EQ(r.order, (std::vector<SubtaskId>{0, 1, 2, 3, 4}));
  // Only the first load can be exposed: makespan = ideal + latency.
  EXPECT_EQ(r.eval.makespan, p.ideal_makespan + ms(4));
}

TEST(Bnb, NodeBudgetFallsBackGracefully) {
  Rng rng(7);
  LayeredGraphParams params;
  params.subtasks = 9;
  const auto g = make_layered_graph(params, rng);
  const auto p = list_schedule(g, 4);
  std::vector<bool> needs(g.size(), true);
  BnbOptions opts;
  opts.node_limit = 3;  // absurdly small: forces the greedy fallback
  const auto r = optimal_prefetch(g, p, virtex2_platform(4), needs, opts);
  EXPECT_FALSE(r.proven_optimal);
  EXPECT_EQ(r.order.size(), g.size());
  // The fallback must still be feasible (evaluation succeeded).
  EXPECT_GE(r.eval.makespan, p.ideal_makespan);
}

TEST(ListPrefetch, PlanOrderNotWeightsDecidesThePortOrder) {
  Rng rng(8);
  const auto g = make_fork_join_graph(3, 1, ms(10), ms(10), rng);
  const auto p = list_schedule(g, static_cast<int>(g.size()));
  // Source 0, branches 1..3 of equal weight, sink 4. The paper's order is
  // heaviest first with ties toward the lower id.
  const auto weights = subtask_weights(g);
  ASSERT_EQ(weights[1], weights[2]);
  ASSERT_EQ(weights[2], weights[3]);
  std::vector<SubtaskId> by_weight{4, 3, 2, 1, 0};
  order_by_weight(by_weight, weights);
  EXPECT_EQ(by_weight, (std::vector<SubtaskId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(list_prefetch(g, p, virtex2_platform(8),
                          std::vector<bool>(g.size(), true))
                .load_order,
            by_weight);

  // A priority plan in the reversed order. Every subtask heads its own
  // tile, so all arrive at t = 0, in id order: the idle port takes 0, the
  // first to arrive. By the time it frees, 1..4 have arrived, and the port
  // follows the plan, not the weights: the light sink first, then the
  // tied branches with the higher id first.
  const LoadPlan reversed{LoadPolicy::priority, {4, 3, 2, 1, 0}};
  const auto r = evaluate(g, p, virtex2_platform(8), reversed);
  EXPECT_EQ(r.load_order, (std::vector<SubtaskId>{0, 4, 3, 2, 1}));
  expect_valid_schedule(g, p, virtex2_platform(8), reversed, r);

  // Ties by hand: equal weights keep the lower id first.
  const std::vector<time_us> hand{5, 9, 5, 9, 1, 5};
  std::vector<SubtaskId> ids{5, 4, 3, 2, 1, 0};
  order_by_weight(ids, hand);
  EXPECT_EQ(ids, (std::vector<SubtaskId>{1, 3, 0, 2, 5, 4}));
  std::vector<SubtaskId> tied{2, 0, 5};
  order_by_weight(tied, hand);
  EXPECT_EQ(tied, (std::vector<SubtaskId>{0, 2, 5}));
}

TEST(ListPrefetch, ComplexityScalesNearLinear) {
  // Sanity guard on the N log N claim: 16x nodes must not cost 100x time.
  Rng rng(9);
  LayeredGraphParams small;
  small.subtasks = 50;
  LayeredGraphParams big;
  big.subtasks = 800;
  const auto gs = make_layered_graph(small, rng);
  const auto gb = make_layered_graph(big, rng);
  const auto ps = list_schedule(gs, 8);
  const auto pb = list_schedule(gb, 8);
  std::vector<bool> ns(gs.size(), true), nb(gb.size(), true);
  for (std::size_t s = 0; s < gs.size(); ++s)
    ns[s] = ps.on_drhw(static_cast<SubtaskId>(s));
  for (std::size_t s = 0; s < gb.size(); ++s)
    nb[s] = pb.on_drhw(static_cast<SubtaskId>(s));

  // Wall-clock ratio under parallel ctest load is noisy: keep the best of
  // several rounds per size so one preempted round cannot fail the test.
  auto best_of = [](auto&& fn) {
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (int round = 0; round < 3; ++round) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min<std::int64_t>(best, (t1 - t0).count());
    }
    return best;
  };
  const auto small_time = best_of([&] {
    for (int i = 0; i < 20; ++i) list_prefetch(gs, ps, virtex2_platform(8), ns);
  });
  const auto big_time = best_of([&] {
    for (int i = 0; i < 20; ++i) list_prefetch(gb, pb, virtex2_platform(8), nb);
  });
  EXPECT_LT(big_time, small_time * 400) << "list prefetch is not ~N log N";
}

}  // namespace
}  // namespace drhw
