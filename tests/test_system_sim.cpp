// Tests for the multi-iteration system simulator: approach orderings,
// determinism, reuse accounting, and the Figure 6/7 relationships.

#include <gtest/gtest.h>

#include "policy/names.hpp"
#include "policy/prefetch_policy.hpp"
#include "policy/registry.hpp"
#include "sim/system_sim.hpp"
#include "sim/workloads.hpp"

namespace drhw {
namespace {

SimOptions base_options(const PlatformConfig& pf, const PolicySpec& policy) {
  SimOptions opt;
  opt.platform = pf;
  opt.policy = policy;
  opt.seed = 7;
  opt.iterations = 120;
  return opt;
}

struct MultimediaFixture : ::testing::Test {
  void SetUp() override {
    platform = virtex2_platform(8);
    workload = make_multimedia_workload(platform);
    sampler = multimedia_sampler(*workload);
  }
  PlatformConfig platform = virtex2_platform(8);
  std::unique_ptr<MultimediaWorkload> workload;
  IterationSampler sampler;
};

TEST_F(MultimediaFixture, DeterministicForSeed) {
  const auto opt = base_options(platform, policy_names::hybrid);
  const auto r1 = run_simulation(opt, sampler);
  const auto r2 = run_simulation(opt, sampler);
  EXPECT_EQ(r1.total_actual, r2.total_actual);
  EXPECT_EQ(r1.loads, r2.loads);
  EXPECT_EQ(r1.reused_subtasks, r2.reused_subtasks);
}

TEST_F(MultimediaFixture, DifferentSeedsDiffer) {
  auto opt = base_options(platform, policy_names::hybrid);
  const auto r1 = run_simulation(opt, sampler);
  opt.seed = 8;
  const auto r2 = run_simulation(opt, sampler);
  EXPECT_NE(r1.total_ideal, r2.total_ideal);  // different random mixes
}

TEST_F(MultimediaFixture, ApproachOrderingMatchesFig6) {
  double overhead[5];
  const char* const approaches[5] = {
      policy_names::no_prefetch, policy_names::design_time,
      policy_names::runtime, policy_names::runtime_intertask,
      policy_names::hybrid};
  for (int a = 0; a < 5; ++a)
    overhead[a] =
        run_simulation(base_options(platform, approaches[a]), sampler)
            .overhead_pct;

  // No-prefetch is worst (~23-27%), design-time optimal ~7%, the run-time
  // heuristic with reuse better still, and the inter-task approaches hide
  // at least 95% of the original overhead.
  EXPECT_GT(overhead[0], 20.0);
  EXPECT_LT(overhead[1], overhead[0] / 2.5);
  EXPECT_LT(overhead[2], overhead[1]);
  EXPECT_LT(overhead[3], 2.0);
  EXPECT_LT(overhead[4], 2.0);
  EXPECT_LE(overhead[3], overhead[2]);
  EXPECT_LE(overhead[4], overhead[2]);
  EXPECT_GE(1.0 - overhead[4] / overhead[0], 0.9);  // >=90% hidden
}

TEST_F(MultimediaFixture, ReuseOnlyForRuntimeApproaches) {
  EXPECT_EQ(run_simulation(base_options(platform, policy_names::no_prefetch),
                           sampler)
                .reused_subtasks,
            0);
  EXPECT_EQ(
      run_simulation(base_options(platform, policy_names::design_time),
                     sampler)
          .reused_subtasks,
      0);
  EXPECT_GT(run_simulation(base_options(platform, policy_names::runtime),
                           sampler)
                .reused_subtasks,
            0);
}

TEST_F(MultimediaFixture, ReusePercentageModestAt8Tiles) {
  // Paper: "with less than 20% of the subtasks reused (for 8 tiles)".
  const auto r = run_simulation(
      base_options(platform, policy_names::runtime), sampler);
  EXPECT_GT(r.reuse_pct, 2.0);
  EXPECT_LT(r.reuse_pct, 25.0);
}

TEST_F(MultimediaFixture, MoreTilesMoreReuseLessOverhead) {
  const auto pf16 = virtex2_platform(16);
  const auto w16 = make_multimedia_workload(pf16);
  const auto s16 = multimedia_sampler(*w16);
  const auto r8 = run_simulation(
      base_options(platform, policy_names::runtime), sampler);
  const auto r16 =
      run_simulation(base_options(pf16, policy_names::runtime), s16);
  EXPECT_GT(r16.reuse_pct, r8.reuse_pct);
  EXPECT_LT(r16.overhead_pct, r8.overhead_pct);
}

TEST_F(MultimediaFixture, HybridCancellationsAndInitLoadsAccounted) {
  const auto r =
      run_simulation(base_options(platform, policy_names::hybrid), sampler);
  EXPECT_GT(r.init_loads, 0);
  EXPECT_GT(r.cancelled_loads, 0);
  EXPECT_GT(r.intertask_prefetches, 0);
  EXPECT_GT(r.loads, 0);
  // Energy saved equals reconfiguration energy of avoided loads.
  EXPECT_GT(r.energy_saved, 0.0);
}

TEST_F(MultimediaFixture, HybridWithoutIntertaskIsWorse) {
  auto with = base_options(platform, policy_names::hybrid);
  auto without = with;
  without.policy = PolicySpec(policy_names::hybrid).with("intertask", "0");
  const auto r_with = run_simulation(with, sampler);
  const auto r_without = run_simulation(without, sampler);
  EXPECT_LT(r_with.overhead_pct, r_without.overhead_pct);
  EXPECT_EQ(r_without.intertask_prefetches, 0);
}

TEST_F(MultimediaFixture, IdealTimeIndependentOfApproach) {
  const auto a = run_simulation(
      base_options(platform, policy_names::no_prefetch), sampler);
  const auto b = run_simulation(base_options(platform, policy_names::hybrid),
                                sampler);
  EXPECT_EQ(a.total_ideal, b.total_ideal);
  EXPECT_EQ(a.instances, b.instances);
}

/// One single-DRHW-subtask task with a fixed configuration identity.
SubtaskGraph one_config_task(const std::string& name, ConfigId config) {
  SubtaskGraph g(name);
  Subtask node;
  node.name = name;
  node.exec_time = ms(10);
  node.resource = Resource::drhw;
  node.config = config;
  g.add_subtask(node);
  g.finalize();
  return g;
}

TEST(OracleReplacement, SeesBeyondTheLookaheadWindow) {
  // Regression: the oracle used to rank configurations only inside the lazy
  // lookahead window, so "needed just past the window" collapsed into
  // "never needed again" and the tie-break evicted by recency. Stream
  // (one instance per iteration):  B  A  D  E  D  D  B
  // At E's eviction the store holds {B, A, D} on three tiles. The window-
  // limited oracle sees only [D, D], ranks both A and B as "never", and
  // evicts B (least recently used) — provably wrong, because B returns two
  // instances later while A never does. The full-stream oracle evicts A.
  const PlatformConfig platform = virtex2_platform(3);
  const ConfigId cfg_b = 1, cfg_a = 2, cfg_d = 3, cfg_e = 4;
  std::vector<SubtaskGraph> graphs;
  graphs.push_back(one_config_task("B", cfg_b));
  graphs.push_back(one_config_task("A", cfg_a));
  graphs.push_back(one_config_task("D", cfg_d));
  graphs.push_back(one_config_task("E", cfg_e));
  std::vector<PreparedScenario> prepared;
  for (const SubtaskGraph& g : graphs)
    prepared.push_back(prepare_scenario(g, platform.tiles, platform));

  const std::size_t stream[] = {0, 1, 2, 3, 2, 2, 0};  // B A D E D D B
  std::size_t at = 0;
  const IterationSampler sampler = [&](Rng&) {
    return std::vector<const PreparedScenario*>{&prepared[stream[at++]]};
  };

  SimOptions opt;
  opt.platform = platform;
  opt.policy = policy_names::runtime;
  opt.replacement = ReplacementPolicy::oracle;
  opt.iterations = 7;
  const auto r = run_simulation(opt, sampler);
  EXPECT_EQ(r.instances, 7);
  // Loads: B, A, D, E — and nothing else; D (twice) and the returning B are
  // resident because the oracle sacrificed A, which never comes back.
  EXPECT_EQ(r.loads, 4);
  EXPECT_EQ(r.reused_subtasks, 3);
}

/// A diamond of four DRHW subtasks with fixed configurations; `slow`
/// scales its execution and load times, so two variants share subtask ids
/// and configurations but not their timings.
SubtaskGraph diamond_task(const std::string& name, int slow) {
  SubtaskGraph g(name);
  for (int s = 0; s < 4; ++s) {
    Subtask node;
    node.name = name + std::to_string(s);
    node.exec_time = ms((s + 2) * slow);
    node.resource = Resource::drhw;
    node.config = static_cast<ConfigId>(10 + s);
    node.load_time = ms(3 + s * slow);
    g.add_subtask(node);
  }
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.finalize();
  return g;
}

TEST(SystemSimulation, EverySpanIsTheTimingOfItsOwnPlan) {
  // The rig times each distinct (preparation, plan) pair once per run. Two
  // preparations whose plans coincide must still be timed apart: every
  // recorded span has to equal the evaluated makespan of that instance's
  // own preparation and plan, computed here directly.
  const PlatformConfig platform = virtex2_platform(2);
  const SubtaskGraph fast = diamond_task("fast", 1);
  const SubtaskGraph slow = diamond_task("slow", 3);
  const PreparedScenario preps[] = {
      prepare_scenario(fast, platform.tiles, platform),
      prepare_scenario(slow, platform.tiles, platform)};
  const std::size_t stream[] = {0, 1, 1, 0, 1, 0, 0, 1};
  constexpr int k_iterations = 8;

  for (const char* name : {policy_names::no_prefetch,
                           policy_names::design_time}) {
    SCOPED_TRACE(name);
    std::size_t at = 0;
    const IterationSampler sampler = [&](Rng&) {
      return std::vector<const PreparedScenario*>{&preps[stream[at++]]};
    };
    SimOptions opt;
    opt.platform = platform;
    opt.policy = PolicySpec(name);
    opt.iterations = k_iterations;
    opt.record_spans = true;
    const SimReport report = run_simulation(opt, sampler);
    ASSERT_EQ(report.spans.size(), static_cast<std::size_t>(k_iterations));

    // Neither policy reads residency or the context.
    const auto policy = PolicyRegistry::instance().create(opt.policy);
    time_us expected[2];
    LoadPlan plans[2];
    for (std::size_t p = 0; p < 2; ++p) {
      const std::vector<bool> resident(preps[p].graph->size(), false);
      policy->plan(preps[p], resident, PolicyContext{}, plans[p]);
      expected[p] = evaluate(*preps[p].graph, preps[p].placement, platform,
                             plans[p])
                        .makespan;
    }
    ASSERT_NE(expected[0], expected[1]);
    if (std::string(name) == policy_names::no_prefetch) {
      ASSERT_EQ(plans[0].loads, plans[1].loads);  // one plan, two timings
    }
    for (int i = 0; i < k_iterations; ++i)
      EXPECT_EQ(report.spans[static_cast<std::size_t>(i)],
                expected[stream[i]])
          << "instance " << i;
  }
}

struct PocketGlFixture : ::testing::Test {
  void SetUp() override {
    platform = virtex2_platform(8);
    workload = make_pocket_gl_workload(platform);
    task_sampler = pocket_gl_task_sampler(*workload);
    frame_sampler = pocket_gl_frame_sampler(*workload);
  }
  SimOptions options(const PolicySpec& a) {
    auto opt = base_options(platform, a);
    opt.replacement = ReplacementPolicy::critical_first;
    opt.cross_iteration_lookahead = true;
    opt.intertask_lookahead = 3;
    return opt;
  }
  PlatformConfig platform = virtex2_platform(8);
  std::unique_ptr<PocketGlWorkload> workload;
  IterationSampler task_sampler;
  IterationSampler frame_sampler;
};

TEST_F(PocketGlFixture, BaselinesMatchSection7Numbers) {
  // "the reconfiguration overhead was initially 71% of the ideal execution
  // time. Applying an optimal configuration prefetch technique at
  // design-time it is reduced to 25%."
  const auto np =
      run_simulation(options(policy_names::no_prefetch), task_sampler);
  EXPECT_NEAR(np.overhead_pct, 71.0, 2.0);
  const auto dt = run_simulation(options(policy_names::design_time),
                                 frame_sampler);
  EXPECT_NEAR(dt.overhead_pct, 25.0, 2.0);
}

TEST_F(PocketGlFixture, HybridHidesAtLeast93PercentAt8Tiles) {
  const auto np =
      run_simulation(options(policy_names::no_prefetch), task_sampler);
  const auto hy = run_simulation(options(policy_names::hybrid), task_sampler);
  EXPECT_LT(hy.overhead_pct, 2.0);  // "less than 2% for eight tiles"
  EXPECT_GE(1.0 - hy.overhead_pct / np.overhead_pct, 0.93);
}

TEST_F(PocketGlFixture, FrameSamplerEmitsOneInstancePerIteration) {
  Rng rng(3);
  const auto frame = frame_sampler(rng);
  ASSERT_EQ(frame.size(), 1u);
  EXPECT_EQ(frame[0]->graph->size(), 10u);
  const auto tasks = task_sampler(rng);
  ASSERT_EQ(tasks.size(), 6u);
}

TEST(Workloads, DrawIndexRespectsDistribution) {
  Rng rng(5);
  const std::vector<double> probs{0.1, 0.6, 0.3};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i)
    ++counts[draw_index(probs, rng)];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.6, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.3, 0.02);
}

TEST(Workloads, MultimediaSamplerNeverEmpty) {
  const auto pf = virtex2_platform(8);
  const auto w = make_multimedia_workload(pf);
  auto sampler = multimedia_sampler(*w, 0.05);  // tiny inclusion probability
  Rng rng(1);
  for (int i = 0; i < 200; ++i) EXPECT_FALSE(sampler(rng).empty());
}

TEST(PolicyNames, PaperSpellingsArePinned) {
  // The canonical spellings appear verbatim in scenario names, reports and
  // the golden tests — changing one is a breaking behaviour change.
  EXPECT_STREQ(policy_names::no_prefetch, "no-prefetch");
  EXPECT_STREQ(policy_names::design_time, "design-time");
  EXPECT_STREQ(policy_names::runtime, "run-time");
  EXPECT_STREQ(policy_names::runtime_intertask, "run-time+inter-task");
  EXPECT_STREQ(policy_names::hybrid, "hybrid");
  EXPECT_EQ(paper_policy_names().size(), 5u);
  EXPECT_EQ(paper_policy_names().front(), policy_names::no_prefetch);
  EXPECT_EQ(paper_policy_names().back(), policy_names::hybrid);
}

}  // namespace
}  // namespace drhw
