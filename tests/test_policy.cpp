// Tests for the pluggable prefetch-policy layer: PolicySpec parsing and
// canonical text, parameter validation, registry enumeration/creation
// errors, the paper policies' interface contracts, planning into a reused
// LoadPlan, the adaptive_hybrid pressure switch, and end-to-end
// extensibility (a policy registered at runtime flows through both
// simulators and the scenario registry with no other code changes).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "policy/names.hpp"
#include "policy/registry.hpp"
#include "runner/scenario.hpp"
#include "sim/event_sim.hpp"
#include "sim/workloads.hpp"

namespace drhw {
namespace {

TEST(PolicySpec, ParsesAndRendersTheCanonicalForm) {
  const PolicySpec plain = PolicySpec::parse("hybrid");
  EXPECT_EQ(plain.name, "hybrid");
  EXPECT_TRUE(plain.params.empty());
  EXPECT_EQ(plain.text(), "hybrid");

  const PolicySpec with_params =
      PolicySpec::parse("hybrid[intertask=0,beyond_critical=1]");
  EXPECT_EQ(with_params.name, "hybrid");
  EXPECT_EQ(with_params.params.at("intertask"), "0");
  EXPECT_EQ(with_params.params.at("beyond_critical"), "1");
  // Canonical text sorts parameters by key, so equal specs render equally.
  EXPECT_EQ(with_params.text(), "hybrid[beyond_critical=1,intertask=0]");
  EXPECT_EQ(PolicySpec::parse(with_params.text()), with_params);
  EXPECT_EQ(to_string(with_params), with_params.text());

  // Builder form and parsed form agree.
  EXPECT_EQ(PolicySpec("hybrid").with("intertask", "0"),
            PolicySpec::parse("hybrid[intertask=0]"));

  EXPECT_THROW(PolicySpec::parse(""), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("hybrid[intertask]"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("hybrid[=1]"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("hybrid[a=1,a=2]"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("hybrid]"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("[a=1]"), std::invalid_argument);
}

TEST(PolicySpec, ParameterHelpersValidate) {
  const PolicyParams params = {{"flag", "1"}, {"bad", "yes"}};
  EXPECT_TRUE(param_bool(params, "flag", false));
  EXPECT_FALSE(param_bool(params, "absent", false));
  EXPECT_THROW(param_bool(params, "bad", false), std::invalid_argument);
  EXPECT_NO_THROW(reject_unknown_params("p", params, {"flag", "bad"}));
  EXPECT_THROW(reject_unknown_params("p", params, {"flag"}),
               std::invalid_argument);
}

TEST(PolicyRegistryTest, EnumeratesPaperPoliciesFirstInPresentationOrder) {
  const auto names = PolicyRegistry::instance().names();
  ASSERT_GE(names.size(), 6u);
  for (std::size_t i = 0; i < paper_policy_names().size(); ++i)
    EXPECT_EQ(names[i], paper_policy_names()[i]);
  EXPECT_TRUE(PolicyRegistry::instance().contains(
      policy_names::adaptive_hybrid));
  for (const std::string& name : names)
    EXPECT_FALSE(PolicyRegistry::instance().description(name).empty())
        << name;
}

TEST(PolicyRegistryTest, UnknownNamesAndParametersFailWithTheRegisteredSet) {
  try {
    PolicyRegistry::instance().create(PolicySpec("no-such-policy"));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error names every registered policy, so a CLI/scenario typo is
    // self-explaining.
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-policy"), std::string::npos);
    for (const std::string& name : PolicyRegistry::instance().names())
      EXPECT_NE(what.find(name), std::string::npos) << name;
  }
  EXPECT_THROW(PolicyRegistry::instance().create(
                   PolicySpec("hybrid").with("no_such_param", "1")),
               std::invalid_argument);
  EXPECT_THROW(PolicyRegistry::instance().create(
                   PolicySpec("hybrid").with("intertask", "maybe")),
               std::invalid_argument);
  // Parameterless policies reject any parameter.
  for (const char* name : {policy_names::no_prefetch,
                           policy_names::adaptive_hybrid,
                           policy_names::edf_hybrid})
    EXPECT_THROW(PolicyRegistry::instance().create(
                     PolicySpec(name).with("beyond_critical", "1")),
                 std::invalid_argument)
        << name;
}

TEST(PolicyRegistryTest, PaperPolicyContractsMatchTheApproachSemantics) {
  const auto& registry = PolicyRegistry::instance();
  const auto create = [&](const PolicySpec& spec) {
    return registry.create(spec);
  };
  EXPECT_FALSE(create(policy_names::no_prefetch)->uses_reuse());
  EXPECT_FALSE(create(policy_names::no_prefetch)->uses_intertask());
  EXPECT_FALSE(create(policy_names::design_time)->uses_reuse());
  EXPECT_TRUE(create(policy_names::runtime)->uses_reuse());
  EXPECT_FALSE(create(policy_names::runtime)->uses_intertask());
  EXPECT_TRUE(create(policy_names::runtime_intertask)->uses_intertask());
  EXPECT_TRUE(create(policy_names::hybrid)->uses_intertask());
  EXPECT_FALSE(create(PolicySpec("hybrid").with("intertask", "0"))
                   ->uses_intertask());
  EXPECT_TRUE(create(policy_names::adaptive_hybrid)->uses_reuse());
  EXPECT_TRUE(create(policy_names::adaptive_hybrid)->uses_intertask());
  // The created instance knows its registered name.
  EXPECT_EQ(create(policy_names::hybrid)->name(), "hybrid");
  // Section 4 scheduler costs, through the policy hook.
  EXPECT_EQ(create(policy_names::hybrid)->scheduler_cost(),
            k_paper_hybrid_scheduler_cost);
  EXPECT_EQ(create(policy_names::runtime)->scheduler_cost(),
            k_paper_list_scheduler_cost);
  EXPECT_EQ(create(policy_names::no_prefetch)->scheduler_cost(), 0);
  EXPECT_EQ(create(policy_names::adaptive_hybrid)->scheduler_cost(),
            k_paper_hybrid_scheduler_cost);
}

struct AdaptiveFixture : ::testing::Test {
  void SetUp() override {
    platform = virtex2_platform(16);
    workload = make_multimedia_workload(platform);
    sampler = multimedia_sampler(*workload);
  }
  OnlineSimOptions options(const PolicySpec& policy, double rate) {
    OnlineSimOptions opt;
    opt.platform = platform;
    opt.policy = policy;
    opt.arrivals.rate_per_s = rate;
    opt.seed = 7;
    opt.iterations = 80;
    return opt;
  }
  PlatformConfig platform;
  std::unique_ptr<MultimediaWorkload> workload;
  IterationSampler sampler;
};

TEST_F(AdaptiveFixture, CalmPoolIsBitIdenticalToThePureHybrid) {
  // At arrival rate -> 0 no other instance ever contends, so the adaptive
  // policy must take the calm branch on every admission — spans equal the
  // pure hybrid's exactly.
  const auto adaptive = run_online_simulation(
      options(policy_names::adaptive_hybrid, 0.0001), sampler);
  const auto hybrid =
      run_online_simulation(options(policy_names::hybrid, 0.0001), sampler);
  EXPECT_EQ(adaptive.spans, hybrid.spans);
  EXPECT_EQ(adaptive.sim.loads, hybrid.sim.loads);
  EXPECT_EQ(adaptive.sim.cancelled_loads, hybrid.sim.cancelled_loads);
}

TEST_F(AdaptiveFixture, SwitchesUnderPortPressure) {
  // Under a saturating rate the backlog keeps contenders() above the
  // threshold for part of the stream, so the adaptive policy must make
  // *both* kinds of decisions: it can match neither the pure hybrid nor
  // the pure run-time+inter-task stream exactly.
  const double rate = 100.0;
  const auto adaptive = run_online_simulation(
      options(policy_names::adaptive_hybrid, rate), sampler);
  const auto hybrid =
      run_online_simulation(options(policy_names::hybrid, rate), sampler);
  const auto runtime = run_online_simulation(
      options(policy_names::runtime_intertask, rate), sampler);
  EXPECT_NE(adaptive.spans, hybrid.spans);
  EXPECT_NE(adaptive.spans, runtime.spans);
  // Same workload either way.
  EXPECT_EQ(adaptive.sim.instances, hybrid.sim.instances);
  EXPECT_EQ(adaptive.sim.total_ideal, hybrid.sim.total_ideal);
  // Cancellations only exist on the hybrid branch: fewer than the pure
  // hybrid's (pressured admissions plan without a stored schedule), more
  // than the pure run-time heuristic's zero.
  EXPECT_LT(adaptive.sim.cancelled_loads, hybrid.sim.cancelled_loads);
  EXPECT_GT(adaptive.sim.cancelled_loads, 0);
}

/// plan() writes every field of the caller's LoadPlan: for every ordered
/// pair of registered policies, planning with the second into the plan the
/// first left behind equals planning with it into a fresh LoadPlan. Over
/// multimedia, Pocket GL and synthetic preparations, with seeded random
/// resident sets and both adaptive_hybrid branches.
TEST(PolicyRegistryTest, PlanIntoADirtyPlanEqualsAFreshPlan) {
  const PlatformConfig platform = virtex2_platform(8);
  const auto multimedia = make_multimedia_workload(platform);
  const auto pocket_gl = make_pocket_gl_workload(platform);
  Rng graph_rng(11);
  LayeredGraphParams params;
  params.subtasks = 20;
  params.isp_fraction = 0.2;
  std::vector<SubtaskGraph> graphs;
  for (int i = 0; i < 3; ++i)
    graphs.push_back(make_layered_graph(params, graph_rng));
  std::vector<PreparedScenario> synthetic;
  for (const SubtaskGraph& graph : graphs)
    synthetic.push_back(prepare_scenario(graph, platform.tiles, platform));
  std::vector<const PreparedScenario*> preps;
  for (const auto* tasks : {&multimedia->prepared, &pocket_gl->prepared})
    for (const std::vector<PreparedScenario>& task : *tasks)
      for (const PreparedScenario& prep : task) preps.push_back(&prep);
  for (const PreparedScenario& prep : synthetic) preps.push_back(&prep);

  const auto& registry = PolicyRegistry::instance();
  std::vector<std::unique_ptr<PrefetchPolicy>> policies;
  for (const std::string& name : registry.names())
    policies.push_back(registry.create(PolicySpec(name)));
  Rng rng(5);
  int compared = 0, with_init = 0, with_cancelled = 0;
  for (const PreparedScenario* prep : preps)
    for (int draw = 0; draw < 2; ++draw) {
      std::vector<bool> resident(prep->graph->size(), false);
      for (std::size_t s = 0; s < resident.size(); ++s)
        resident[s] = prep->placement.on_drhw(static_cast<SubtaskId>(s)) &&
                      rng.next_bool(0.4);
      PolicyContext context;
      context.queued_instances = 2 * draw;  // 2 moves adaptive_hybrid
      for (const auto& first : policies)
        for (const auto& second : policies) {
          SCOPED_TRACE(first->name() + " then " + second->name());
          LoadPlan fresh;
          second->plan(*prep, resident, context, fresh);
          LoadPlan reused;
          first->plan(*prep, resident, context, reused);
          with_init += reused.init_count > 0;
          with_cancelled += reused.cancelled_loads > 0;
          second->plan(*prep, resident, context, reused);
          EXPECT_EQ(reused.policy, fresh.policy);
          EXPECT_EQ(reused.loads, fresh.loads);
          EXPECT_EQ(reused.init_count, fresh.init_count);
          EXPECT_EQ(reused.cancelled_loads, fresh.cancelled_loads);
          ++compared;
        }
    }
  EXPECT_GT(compared, 1000);
  // The dirty plans carry every field a fresh one must not inherit.
  EXPECT_GT(with_init, 100);
  EXPECT_GT(with_cancelled, 100);
}

/// End-to-end extensibility: a policy registered at runtime — exactly what
/// policy/adaptive_hybrid.cpp does from its own translation unit — is
/// immediately usable by both simulators and enumerated into the
/// online_policy scenario family, with zero kernel or runner edits.
class ReversedDesignTimePolicy : public PrefetchPolicy {
 public:
  bool uses_reuse() const override { return false; }
  bool uses_intertask() const override { return false; }
  void plan(const PreparedScenario& prep, const std::vector<bool>&,
            const PolicyContext&, LoadPlan& out) override {
    out.reset(LoadPolicy::explicit_order);
    out.loads.assign(prep.design_order.rbegin(), prep.design_order.rend());
  }
};

TEST(PolicyRegistryTest, RuntimeRegisteredPolicyFlowsThroughTheWholeStack) {
  auto& registry = PolicyRegistry::instance();
  if (!registry.contains("reversed-design-time"))
    registry.add("reversed-design-time",
                 "design-time order served backwards (worst-case test dummy)",
                 [](const PolicyParams& params) {
                   reject_unknown_params("reversed-design-time", params, {});
                   return std::make_unique<ReversedDesignTimePolicy>();
                 });

  const PlatformConfig platform = virtex2_platform(8);
  const auto workload = make_multimedia_workload(platform);
  const auto sampler = multimedia_sampler(*workload);

  // Sequential rig.
  SimOptions seq;
  seq.platform = platform;
  seq.policy = "reversed-design-time";
  seq.iterations = 20;
  const auto sequential = run_simulation(seq, sampler);
  EXPECT_GT(sequential.instances, 0);
  EXPECT_EQ(sequential.reused_subtasks, 0);

  // Online kernel, plus the rate -> 0 equivalence the registry-driven
  // test in test_event_sim.cpp would auto-derive for it.
  OnlineSimOptions online;
  online.platform = platform;
  online.policy = "reversed-design-time";
  online.arrivals.rate_per_s = 0.0001;
  online.iterations = 20;
  SimOptions ref = seq;
  ref.seed = online.seed;
  ref.intertask_lookahead = 0;
  ref.record_spans = true;
  const auto r = run_online_simulation(online, sampler);
  EXPECT_EQ(r.spans, run_simulation(ref, sampler).spans);

  // The scenario registry's online_policy family picks it up by
  // enumeration, and the descriptor validates.
  const auto scenarios =
      ScenarioRegistry::builtin(10, 1).match("online_policy");
  bool found = false;
  for (const Scenario& s : scenarios)
    found = found || s.sim.policy.name == "reversed-design-time";
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace drhw
