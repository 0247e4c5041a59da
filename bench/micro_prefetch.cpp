// google-benchmark microbenchmarks of the scheduling kernels: the
// evaluator, the run-time list-prefetch heuristic [7] (N log N), the
// branch & bound search, the critical-subtask loop, the hybrid run-time
// phase (which the paper argues is effectively free), and the replacement
// module's tile binding.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "graph/generators.hpp"
#include "policy/names.hpp"
#include "policy/registry.hpp"
#include "prefetch/bnb.hpp"
#include "prefetch/critical_subtasks.hpp"
#include "prefetch/list_prefetch.hpp"
#include "reuse/reuse_module.hpp"
#include "schedule/list_scheduler.hpp"
#include "sim/prep_table.hpp"
#include "sim/system_sim.hpp"

namespace {

using namespace drhw;

struct Fixture {
  SubtaskGraph graph;
  Placement placement;
  PlatformConfig platform = virtex2_platform(8);
  std::vector<bool> needs;

  explicit Fixture(int subtasks, time_us max_exec = ms(30)) {
    Rng rng(static_cast<std::uint64_t>(subtasks) * 31 + 7);
    LayeredGraphParams params;
    params.subtasks = subtasks;
    params.min_layer_width = 2;
    params.max_layer_width = 6;
    params.max_exec = max_exec;
    graph = make_layered_graph(params, rng);
    placement = list_schedule(graph, platform.tiles);
    needs.assign(graph.size(), false);
    for (std::size_t s = 0; s < graph.size(); ++s)
      needs[s] = placement.on_drhw(static_cast<SubtaskId>(s));
  }
};

void BM_EvaluatorNoLoads(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  const LoadPlan none{LoadPolicy::explicit_order, {}};
  for (auto _ : state)
    benchmark::DoNotOptimize(
        evaluate(f.graph, f.placement, f.platform, none).makespan);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EvaluatorNoLoads)->RangeMultiplier(2)->Range(14, 448)->Complexity();

void BM_ListPrefetch(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        list_prefetch(f.graph, f.placement, f.platform, f.needs).makespan);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ListPrefetch)->RangeMultiplier(2)->Range(14, 448)->Complexity();

void BM_OnDemand(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  const LoadPlan plan = on_demand_all(f.graph, f.placement);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        evaluate(f.graph, f.placement, f.platform, plan).makespan);
}
BENCHMARK(BM_OnDemand)->Arg(14)->Arg(112)->Arg(448);

/// Search-node counters: nodes per iteration, and host time per node
/// (an inverted rate, printed in seconds with an SI prefix, e.g. 150n).
void count_nodes(benchmark::State& state, std::uint64_t nodes) {
  const auto total = static_cast<double>(nodes);
  state.counters["nodes"] =
      benchmark::Counter(total, benchmark::Counter::kAvgIterations);
  state.counters["time_per_node"] = benchmark::Counter(
      total, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/// The search over the fixture's loads with `ports` reconfiguration ports.
void BM_BranchAndBound(benchmark::State& state, int ports) {
  Fixture f(static_cast<int>(state.range(0)));
  f.platform.reconfig_ports = ports;
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    const BnbResult r =
        optimal_prefetch(f.graph, f.placement, f.platform, f.needs);
    nodes += r.nodes_explored;
    benchmark::DoNotOptimize(r.eval.makespan);
  }
  count_nodes(state, nodes);
}
void BM_BranchAndBound(benchmark::State& state) {
  BM_BranchAndBound(state, 1);
}
BENCHMARK(BM_BranchAndBound)->DenseRange(4, 9, 1);
// More ports time the multi-port term of the completion bound.
BENCHMARK_CAPTURE(BM_BranchAndBound, ports2, 2)->DenseRange(4, 9, 1);
BENCHMARK_CAPTURE(BM_BranchAndBound, ports3, 3)->DenseRange(4, 9, 1);

/// A B&B load threshold below any load count: every CS-loop pass runs the
/// list heuristic.
constexpr int k_list_heuristic_only = -1;

void run_critical_subtask_loop(benchmark::State& state, const Fixture& f,
                               int bnb_load_threshold) {
  HybridDesignOptions options;
  options.bnb_load_threshold = bnb_load_threshold;
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    const HybridSchedule h =
        compute_hybrid_schedule(f.graph, f.placement, f.platform, options);
    nodes += h.bnb_nodes;
    benchmark::DoNotOptimize(h.critical.size());
  }
  if (nodes != 0) count_nodes(state, nodes);
}

void BM_CriticalSubtaskLoop(benchmark::State& state) {
  run_critical_subtask_loop(state, Fixture(static_cast<int>(state.range(0))),
                            k_list_heuristic_only);
}
BENCHMARK(BM_CriticalSubtaskLoop)->Arg(14)->Arg(56)->Arg(224);

/// The production configuration (prepare_scenario's default): the list
/// heuristic while more than nine loads are pending, the B&B below. Short
/// executions (1-6 ms, as in the catalogue's synthetic multiport graphs)
/// leave the 4 ms loads exposed, so the loop takes several passes and the
/// later ones run the B&B.
void BM_CriticalSubtaskLoopAutoSelect(benchmark::State& state) {
  run_critical_subtask_loop(
      state, Fixture(static_cast<int>(state.range(0)), ms(6)),
      HybridDesignOptions().bnb_load_threshold);
}
BENCHMARK(BM_CriticalSubtaskLoopAutoSelect)->Arg(14);

/// The run-time phase as both simulators run it: the hybrid policy's plan()
/// and its sequential timing by evaluate(), the initialization phase
/// included.
void BM_HybridRuntimePhase(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  HybridDesignOptions options;
  options.bnb_load_threshold = k_list_heuristic_only;
  PreparedScenario prep;
  prep.graph = &f.graph;
  prep.placement = f.placement;
  prep.hybrid =
      compute_hybrid_schedule(f.graph, f.placement, f.platform, options);
  const auto hybrid =
      PolicyRegistry::instance().create(PolicySpec(policy_names::hybrid));
  std::vector<bool> resident(f.graph.size(), false);
  Rng rng(3);
  for (std::size_t s = 0; s < resident.size(); ++s)
    if (f.needs[s]) resident[s] = rng.next_bool(0.3);
  LoadPlan plan;
  for (auto _ : state) {
    hybrid->plan(prep, resident, PolicyContext{}, plan);
    benchmark::DoNotOptimize(
        evaluate(f.graph, f.placement, f.platform, plan).makespan);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HybridRuntimePhase)
    ->RangeMultiplier(2)
    ->Range(14, 448)
    ->Complexity();

/// One bind of a placement spanning the pool onto a full store whose
/// residents none of its subtasks use, so every virtual tile evicts: the
/// replacement module's worst case, once per admitted instance in both
/// simulators. Recency and value repeat across tiles, so ties are ranked.
void BM_BindTiles(benchmark::State& state, ReplacementPolicy policy) {
  const int tiles = static_cast<int>(state.range(0));
  Rng rng(static_cast<std::uint64_t>(tiles) * 17 + 5);
  LayeredGraphParams params;
  params.subtasks = 2 * tiles;
  params.min_layer_width = tiles / 2;
  params.max_layer_width = tiles;
  const SubtaskGraph graph = make_layered_graph(params, rng);
  const Placement placement = list_schedule(graph, tiles);
  ConfigStore store(tiles);
  NextUseIndex index;
  std::vector<PhysTileId> candidates;
  for (PhysTileId t = 0; t < tiles; ++t) {
    const auto config = static_cast<ConfigId>(1000 + t);
    store.record_load(t, config, ms(t % 5), static_cast<double>(t % 3));
    index.add(config, (t * 7) % tiles);
    candidates.push_back(t);
  }
  const NextUseRank next_use = index.rank_from(0);
  Rng bind_rng(1);
  Binding binding;
  for (auto _ : state) {
    bind_tiles(graph, placement, store, candidates, policy, bind_rng,
               next_use, binding);
    benchmark::DoNotOptimize(binding.phys_of_tile.data());
  }
  state.counters["victims"] = placement.tiles_used;
}
BENCHMARK_CAPTURE(BM_BindTiles, lru, ReplacementPolicy::lru)->Arg(8)->Arg(16);
BENCHMARK_CAPTURE(BM_BindTiles, weight, ReplacementPolicy::weight_aware)
    ->Arg(8)
    ->Arg(16);
BENCHMARK_CAPTURE(BM_BindTiles, oracle, ReplacementPolicy::oracle)
    ->Arg(8)
    ->Arg(16);

}  // namespace
