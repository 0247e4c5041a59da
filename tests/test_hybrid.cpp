// Tests for the hybrid run-time phase: initialization phase, load
// cancellation, and its end-to-end guarantees.

#include <gtest/gtest.h>

#include <memory>

#include "apps/multimedia.hpp"
#include "fixtures.hpp"
#include "graph/generators.hpp"
#include "hybrid_run.hpp"
#include "prefetch/hybrid.hpp"
#include "schedule/list_scheduler.hpp"
#include "sim/port_set.hpp"
#include "sim/workloads.hpp"
#include "util/check.hpp"

namespace drhw {
namespace {

using testing::make_chain_graph;
using testing::run_hybrid;

struct Prepared {
  SubtaskGraph graph;
  Placement placement;
  HybridSchedule design;
  PlatformConfig platform = virtex2_platform(8);
};

Prepared prepare_jpeg() {
  ConfigSpace cs;
  auto task = make_jpeg_decoder(cs);
  Prepared p{std::move(task.scenarios[0]), {}, {}, virtex2_platform(8)};
  p.placement = list_schedule(p.graph, 8);
  p.design = compute_hybrid_schedule(p.graph, p.placement, p.platform);
  return p;
}

TEST(HybridRuntime, AllCriticalResidentMeansZeroOverhead) {
  const auto p = prepare_jpeg();
  std::vector<bool> resident(p.graph.size(), false);
  for (SubtaskId s : p.design.critical)
    resident[static_cast<std::size_t>(s)] = true;
  const auto out =
      run_hybrid(p.graph, p.placement, p.platform, p.design, resident);
  EXPECT_TRUE(out.init_loads().empty());
  EXPECT_EQ(out.init_phase_end(), 0);
  EXPECT_EQ(out.eval.makespan, p.design.ideal_makespan);
  EXPECT_EQ(out.plan.cancelled_loads, 0);
}

TEST(HybridRuntime, NothingResidentPaysExactlyInitPhase) {
  const auto p = prepare_jpeg();
  const std::vector<bool> resident(p.graph.size(), false);
  const auto out =
      run_hybrid(p.graph, p.placement, p.platform, p.design, resident);
  EXPECT_EQ(out.init_loads().size(), p.design.critical.size());
  EXPECT_EQ(out.init_phase_end(),
            static_cast<time_us>(p.design.critical.size()) * ms(4));
  // The stored schedule itself hides everything, so the only overhead is
  // the initialization phase.
  EXPECT_EQ(out.eval.makespan,
            p.design.ideal_makespan + out.init_phase_end());
}

TEST(HybridRuntime, InitPhaseOverlapsLoadsAcrossReconfigurationPorts) {
  // The initialization loads dispatch onto the earliest-free port in the
  // pre-decided order: with one port the phase is the serial sum, with P
  // ports it is ceil(n / P) * latency (uniform bitstreams), and the
  // per-load completion times interleave accordingly. A chain whose
  // executions are much shorter than the 4 ms load makes every subtask
  // critical, so the init phase has several loads to overlap.
  Rng rng(3);
  const SubtaskGraph graph = make_chain_graph(4, ms(1), ms(2), rng);
  Prepared p{graph, {}, {}, virtex2_platform(8)};
  p.placement = list_schedule(p.graph, 8);
  p.design = compute_hybrid_schedule(p.graph, p.placement, p.platform);
  const std::vector<bool> resident(p.graph.size(), false);
  const auto serial =
      run_hybrid(p.graph, p.placement, p.platform, p.design, resident);
  const auto n = static_cast<time_us>(serial.init_loads().size());
  ASSERT_GE(n, 2);
  EXPECT_EQ(serial.init_phase_end(), n * ms(4));
  ASSERT_EQ(serial.init_load_ends().size(), static_cast<std::size_t>(n));
  EXPECT_EQ(serial.init_load_ends().front(), ms(4));
  EXPECT_EQ(serial.init_load_ends().back(), n * ms(4));

  PlatformConfig two_ports = p.platform;
  two_ports.reconfig_ports = 2;
  const auto parallel =
      run_hybrid(p.graph, p.placement, two_ports, p.design, resident);
  EXPECT_EQ(parallel.init_loads(), serial.init_loads());
  EXPECT_EQ(parallel.init_phase_end(), (n + 1) / 2 * ms(4));
  // First two loads start together on the two ports.
  ASSERT_GE(parallel.init_load_ends().size(), 2u);
  EXPECT_EQ(parallel.init_load_ends()[0], ms(4));
  EXPECT_EQ(parallel.init_load_ends()[1], ms(4));
  EXPECT_LT(parallel.eval.makespan, serial.eval.makespan);
}

TEST(HybridRuntime, ResidentNonCriticalLoadIsCancelled) {
  const auto p = prepare_jpeg();
  std::vector<bool> resident(p.graph.size(), false);
  ASSERT_FALSE(p.design.stored_order.empty());
  const SubtaskId cancelled = p.design.stored_order[1];
  resident[static_cast<std::size_t>(cancelled)] = true;
  const auto out =
      run_hybrid(p.graph, p.placement, p.platform, p.design, resident);
  EXPECT_EQ(out.plan.cancelled_loads, 1);
  EXPECT_EQ(out.eval.load_start[static_cast<std::size_t>(cancelled)],
            k_no_time);
  // Cancelling never hurts: still ideal + init.
  EXPECT_EQ(out.eval.makespan,
            p.design.ideal_makespan + out.init_phase_end());
}

TEST(HybridRuntime, CancellationPreservesRelativeOrder) {
  const auto p = prepare_jpeg();
  std::vector<bool> resident(p.graph.size(), false);
  resident[static_cast<std::size_t>(p.design.stored_order[0])] = true;
  const auto out =
      run_hybrid(p.graph, p.placement, p.platform, p.design, resident);
  // Remaining loads appear in the stored order, after the initialization
  // loads.
  std::vector<SubtaskId> expected = out.init_loads();
  for (SubtaskId s : p.design.stored_order)
    if (!resident[static_cast<std::size_t>(s)]) expected.push_back(s);
  EXPECT_EQ(out.eval.load_order, expected);
}

TEST(HybridRuntime, InitOrderFollowsDesignOrder) {
  ConfigSpace cs;
  auto task = make_mpeg_encoder(cs);
  const auto& g = task.scenarios[0];
  const auto placement = list_schedule(g, 8);
  const auto platform = virtex2_platform(8);
  const auto design = compute_hybrid_schedule(g, placement, platform);
  ASSERT_EQ(design.critical.size(), 2u);
  const std::vector<bool> resident(g.size(), false);
  const auto out = run_hybrid(g, placement, platform, design, resident);
  EXPECT_EQ(out.init_loads(), design.critical);
}

class HybridMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HybridMonotonicity, MoreResidencyNeverHurts) {
  Rng rng(GetParam());
  LayeredGraphParams params;
  params.subtasks = 10;
  const auto g = make_layered_graph(params, rng);
  const auto placement = list_schedule(g, 4);
  const auto platform = virtex2_platform(4);
  const auto design = compute_hybrid_schedule(g, placement, platform);

  std::vector<bool> some(g.size(), false);
  for (std::size_t s = 0; s < g.size(); ++s)
    if (placement.on_drhw(static_cast<SubtaskId>(s)) && rng.next_bool(0.4))
      some[s] = true;
  std::vector<bool> more = some;
  for (std::size_t s = 0; s < g.size(); ++s)
    if (placement.on_drhw(static_cast<SubtaskId>(s)) && rng.next_bool(0.5))
      more[s] = true;

  const auto base = run_hybrid(g, placement, platform, design, some);
  const auto better = run_hybrid(g, placement, platform, design, more);
  EXPECT_LE(better.eval.makespan, base.eval.makespan);
}

TEST_P(HybridMonotonicity, TotalNeverWorseThanInitPlusIdeal) {
  Rng rng(GetParam() * 13 + 5);
  LayeredGraphParams params;
  params.subtasks = 12;
  const auto g = make_layered_graph(params, rng);
  const auto placement = list_schedule(g, 5);
  const auto platform = virtex2_platform(5);
  const auto design = compute_hybrid_schedule(g, placement, platform);
  const std::vector<bool> resident(g.size(), false);
  const auto out = run_hybrid(g, placement, platform, design, resident);
  // Stored schedule has zero penalty by construction, so the whole
  // instance costs exactly the initialization phase.
  EXPECT_EQ(out.eval.makespan, design.ideal_makespan + out.init_phase_end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridMonotonicity,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(HybridRuntime, RejectsWrongResidentSize) {
  const auto p = prepare_jpeg();
  const std::vector<bool> tiny(1, false);
  LoadPlan plan;
  EXPECT_THROW(hybrid_decide(p.design, tiny, plan), InternalError);
}

// -- the initialization phase against a two-step reference ---------------

/// The two-step timing of a plan with an initialization prefix, kept here
/// as an independent reference for evaluate(): the prefix's loads dispatch
/// back to back on the earliest-free port from t = 0, then the loads after
/// the prefix are evaluated as a plan of their own from t = 0, and that
/// timing is shifted by the end of the initialization phase. The result is
/// assembled into one absolute-time EvalResult, the prefix's loads first.
EvalResult two_step_reference(const SubtaskGraph& graph,
                              const Placement& placement,
                              const PlatformConfig& platform,
                              const LoadPlan& plan) {
  const auto body_begin =
      plan.loads.begin() + static_cast<std::ptrdiff_t>(plan.init_count);
  PortSet ports(platform.reconfig_ports);
  std::vector<SubtaskId> init_loads;
  std::vector<time_us> init_starts, init_ends;
  time_us phase_end = 0;
  for (auto it = plan.loads.begin(); it != body_begin; ++it) {
    const time_us own = graph.subtask(*it).load_time;
    const std::size_t port = ports.earliest();
    const time_us start = ports.free_at(port);
    init_loads.push_back(*it);
    init_starts.push_back(start);
    init_ends.push_back(ports.dispatch(
        port, start, own != k_no_time ? own : platform.reconfig_latency));
    phase_end = std::max(phase_end, init_ends.back());
  }
  LoadPlan body;
  body.policy = plan.policy;
  body.loads.assign(body_begin, plan.loads.end());
  EvalResult out = evaluate(graph, placement, platform, body);

  const auto shift = [&](std::vector<time_us>& times) {
    for (time_us& t : times)
      if (t != k_no_time) t += phase_end;
  };
  out.makespan += phase_end;
  shift(out.exec_start);
  shift(out.exec_end);
  shift(out.load_start);
  shift(out.load_end);
  shift(out.tile_last_exec_end);
  if (out.last_load_end != k_no_time)
    out.last_load_end += phase_end;
  else if (!init_loads.empty())
    out.last_load_end = phase_end;
  for (std::size_t i = 0; i < init_loads.size(); ++i) {
    const auto idx = static_cast<std::size_t>(init_loads[i]);
    out.load_start[idx] = init_starts[i];
    out.load_end[idx] = init_ends[i];
  }
  out.load_order.insert(out.load_order.begin(), init_loads.begin(),
                        init_loads.end());
  out.loads += static_cast<int>(init_loads.size());
  return out;
}

void expect_same_timing(const EvalResult& got, const EvalResult& want) {
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.exec_start, want.exec_start);
  EXPECT_EQ(got.exec_end, want.exec_end);
  EXPECT_EQ(got.load_start, want.load_start);
  EXPECT_EQ(got.load_end, want.load_end);
  EXPECT_EQ(got.delayed_by_load, want.delayed_by_load);
  EXPECT_EQ(got.load_order, want.load_order);
  EXPECT_EQ(got.last_load_end, want.last_load_end);
  EXPECT_EQ(got.tile_last_exec_end, want.tile_last_exec_end);
  EXPECT_EQ(got.loads, want.loads);
}

/// Layered graphs with some ISP subtasks; with `own_load_times` every DRHW
/// subtask gets its own bitstream latency, most of them unlike the
/// platform's.
std::vector<SubtaskGraph> synthetic_graphs(bool own_load_times) {
  std::vector<SubtaskGraph> graphs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 31 + (own_load_times ? 7 : 0));
    LayeredGraphParams params;
    params.subtasks = 8 + static_cast<int>(seed) * 2;
    params.min_exec = ms(1);
    params.max_exec = ms(12);
    params.isp_fraction = 0.2;
    SubtaskGraph g = make_layered_graph(params, rng);
    if (own_load_times)
      for (std::size_t s = 0; s < g.size(); ++s)
        g.subtask_mutable(static_cast<SubtaskId>(s)).load_time =
            rng.next_int(ms(1), ms(7));
    graphs.push_back(std::move(g));
  }
  return graphs;
}

TEST(InitPhase, OnePassEvaluationMatchesTheTwoStepReference) {
  const std::vector<SubtaskGraph> plain = synthetic_graphs(false);
  const std::vector<SubtaskGraph> own = synthetic_graphs(true);
  const std::vector<std::string> names = PolicyRegistry::instance().names();
  int compared = 0;
  int overlapped_init_phases = 0;  // >= 2 init loads on >= 2 ports
  for (int ports : {1, 2, 4}) {
    SCOPED_TRACE("ports " + std::to_string(ports));
    PlatformConfig platform = virtex2_platform(8);
    platform.reconfig_ports = ports;
    const auto multimedia = make_multimedia_workload(platform);
    const auto pocket_gl = make_pocket_gl_workload(platform);
    std::vector<PreparedScenario> synthetic;
    for (const auto* graphs : {&plain, &own})
      for (const SubtaskGraph& g : *graphs)
        synthetic.push_back(prepare_scenario(g, platform.tiles, platform));

    std::vector<const PreparedScenario*> preps;
    for (const auto& task : multimedia->prepared)
      for (const PreparedScenario& p : task) preps.push_back(&p);
    for (const auto& task : pocket_gl->prepared)
      for (const PreparedScenario& p : task) preps.push_back(&p);
    for (const PreparedScenario& p : pocket_gl->prepared_frames)
      preps.push_back(&p);
    for (const PreparedScenario& p : synthetic) preps.push_back(&p);

    Rng rng(static_cast<std::uint64_t>(ports) * 101);
    for (const std::string& name : names) {
      SCOPED_TRACE(name);
      const std::unique_ptr<PrefetchPolicy> policy =
          PolicyRegistry::instance().create(PolicySpec(name));
      for (std::size_t i = 0; i < preps.size(); ++i) {
        const PreparedScenario& prep = *preps[i];
        const SubtaskGraph& graph = *prep.graph;
        for (int draw = 0; draw < 3; ++draw) {
          SCOPED_TRACE("prep " + std::to_string(i) + " draw " +
                       std::to_string(draw));
          std::vector<bool> resident(graph.size(), false);
          for (std::size_t s = 0; s < graph.size(); ++s)
            resident[s] = prep.placement.on_drhw(static_cast<SubtaskId>(s)) &&
                          rng.next_bool(0.1 + 0.3 * draw);
          PolicyContext context;
          context.ports = ports;
          context.queued_instances = draw;  // 2 moves adaptive_hybrid
          LoadPlan plan;
          policy->plan(prep, resident, context, plan);
          expect_same_timing(
              evaluate(graph, prep.placement, platform, plan),
              two_step_reference(graph, prep.placement, platform, plan));
          ++compared;
          if (ports > 1 && plan.init_count >= 2) ++overlapped_init_phases;
        }
      }
    }
  }
  EXPECT_GT(compared, 1000);
  EXPECT_GT(overlapped_init_phases, 50);
}

/// The initialization prefix is checked wherever a plan is timed.
TEST(InitPhase, EvaluatorRejectsAMalformedInitPrefix) {
  const auto p = prepare_jpeg();
  LoadPlan too_long{LoadPolicy::explicit_order, {}};
  too_long.init_count = 1;
  EXPECT_THROW(evaluate(p.graph, p.placement, p.platform, too_long),
               InternalError);
  LoadPlan priority = on_demand_all(p.graph, p.placement);
  priority.policy = LoadPolicy::priority;
  priority.init_count = 1;
  EXPECT_THROW(evaluate(p.graph, p.placement, p.platform, priority),
               InternalError);
}

}  // namespace
}  // namespace drhw
