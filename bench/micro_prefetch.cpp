// google-benchmark microbenchmarks of the scheduling kernels: the
// evaluator, the run-time list-prefetch heuristic [7] (N log N), the
// branch & bound search, the critical-subtask loop, and the hybrid
// run-time phase (which the paper argues is effectively free).

#include <benchmark/benchmark.h>

#include <cstdint>

#include "graph/generators.hpp"
#include "policy/names.hpp"
#include "policy/registry.hpp"
#include "prefetch/bnb.hpp"
#include "prefetch/critical_subtasks.hpp"
#include "prefetch/list_prefetch.hpp"
#include "schedule/list_scheduler.hpp"
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
  LoadPlan none;
  none.policy = LoadPolicy::explicit_order;
  none.needs_load.assign(f.graph.size(), false);
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
  LoadPlan plan;
  plan.policy = LoadPolicy::on_demand;
  plan.needs_load = f.needs;
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

void BM_BranchAndBound(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    const BnbResult r =
        optimal_prefetch(f.graph, f.placement, f.platform, f.needs);
    nodes += r.nodes_explored;
    benchmark::DoNotOptimize(r.eval.makespan);
  }
  count_nodes(state, nodes);
}
BENCHMARK(BM_BranchAndBound)->DenseRange(4, 9, 1);

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
/// and its sequential timing by evaluate_instance_plan().
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
  for (auto _ : state)
    benchmark::DoNotOptimize(
        evaluate_instance_plan(prep, f.platform,
                               hybrid->plan(prep, resident, PolicyContext{}))
            .span);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HybridRuntimePhase)
    ->RangeMultiplier(2)
    ->Range(14, 448)
    ->Complexity();

}  // namespace
