// Tests for the pluggable prefetch-policy layer: PolicySpec parsing and
// canonical text, parameter validation, registry enumeration/creation
// errors, the paper policies' interface contracts, the adaptive_hybrid
// pressure switch, and end-to-end extensibility (a policy registered at
// runtime flows through both simulators and the scenario registry with no
// other code changes).

#include <gtest/gtest.h>

#include <memory>

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

/// End-to-end extensibility: a policy registered at runtime — exactly what
/// policy/adaptive_hybrid.cpp does from its own translation unit — is
/// immediately usable by both simulators and enumerated into the
/// online_policy scenario family, with zero kernel or runner edits.
class ReversedDesignTimePolicy : public PrefetchPolicy {
 public:
  bool uses_reuse() const override { return false; }
  bool uses_intertask() const override { return false; }
  LoadPlan plan(const PreparedScenario& prep, const std::vector<bool>&,
                const PolicyContext&) override {
    return {LoadPolicy::explicit_order,
            {prep.design_order.rbegin(), prep.design_order.rend()}};
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
