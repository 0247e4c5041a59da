// Tests for the campaign engine: scenario registry enumeration and
// validation, sweep expansion, thread-count-independent determinism of the
// parallel runner, and the JSON/CSV report contents, read back through
// util/json's parser and the test-side CSV splitter (no report reader
// ships in src/).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <set>

#include "csv_rows.hpp"
#include "policy/names.hpp"
#include "policy/registry.hpp"
#include "runner/campaign.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "util/json.hpp"

namespace drhw {
namespace {

using testing::csv_rows;

/// The scenario objects of a campaign_to_json() report.
std::vector<json::Value> json_scenarios(
    const std::vector<ScenarioResult>& results,
    const StatsAggregator& aggregator) {
  return json::parse(campaign_to_json(results, aggregator), "campaign JSON")
      .at("scenarios")
      .items;
}

PolicyParams params_of(const json::Value& object) {
  PolicyParams params;
  for (const auto& [key, value] : object.members) params[key] = value.text;
  return params;
}

/// An aggregate block of the JSON report matches the aggregator's summary,
/// every statistic bit-exactly.
void expect_group_matches(const json::Value& block,
                          const GroupSummary& expected) {
  EXPECT_EQ(block.at("family").text, expected.family);
  EXPECT_EQ(block.at("scenarios").number,
            static_cast<double>(expected.scenarios));
  EXPECT_EQ(block.at("failed").number, static_cast<double>(expected.failed));
  const auto& metrics = block.at("metrics").members;
  EXPECT_EQ(metrics.size(), expected.metrics.size()) << expected.family;
  for (const auto& [name, m] : metrics) {
    ASSERT_TRUE(expected.metrics.count(name)) << name;
    const MetricSummary got{static_cast<std::size_t>(m.at("count").number),
                            m.at("mean").number, m.at("stddev").number,
                            m.at("min").number,  m.at("max").number,
                            m.at("p50").number,  m.at("p95").number};
    EXPECT_TRUE(got == expected.metrics.at(name))
        << expected.family << "/" << name;
  }
}

Scenario quick_scenario(const std::string& name, const std::string& family,
                        const PolicySpec& policy, std::uint64_t seed) {
  Scenario s;
  s.name = name;
  s.family = family;
  s.workload = WorkloadKind::synthetic;
  s.synthetic.tasks = 3;
  s.synthetic.graph.subtasks = 10;
  s.synthetic.graph_seed = 7;
  s.sim.policy = policy;
  s.sim.seed = seed;
  s.sim.iterations = 25;
  return s;
}

/// A small but heterogeneous campaign: synthetic mixes, a deterministic
/// multimedia scenario and a Pocket GL scenario.
std::vector<Scenario> quick_campaign() {
  std::vector<Scenario> scenarios;
  for (const char* policy :
       {policy_names::no_prefetch, policy_names::runtime,
        policy_names::hybrid})
    for (std::uint64_t seed : {1ull, 2ull})
      scenarios.push_back(quick_scenario(
          std::string("quick/") + policy + "/s" + std::to_string(seed),
          "quick", policy, seed));
  // One parameterised policy spec, so the policy_params descriptor fields
  // are exercised by every report test below.
  scenarios.push_back(quick_scenario(
      "quick/hybrid-no-intertask/s1", "quick",
      PolicySpec(policy_names::hybrid).with("intertask", "0"), 1));
  Scenario table1;
  table1.name = "t1/jpeg_dec";
  table1.family = "t1";
  table1.task_filter = {"jpeg_dec"};
  table1.exhaustive = true;
  table1.sim.policy = policy_names::no_prefetch;
  table1.sim.iterations = 1;
  scenarios.push_back(table1);
  Scenario gl;
  gl.name = "gl/hybrid";
  gl.family = "gl";
  gl.workload = WorkloadKind::pocket_gl;
  gl.sim.platform = virtex2_platform(6);
  gl.sim.policy = policy_names::hybrid;
  gl.sim.replacement = ReplacementPolicy::critical_first;
  gl.sim.iterations = 10;
  scenarios.push_back(gl);
  return scenarios;
}

/// The built-in Section 4 scalability scenario at 14 subtasks, timed over
/// `timing_calls` calls per measurement.
Scenario scalability_n14(int timing_calls) {
  const auto registry = ScenarioRegistry::builtin(1, 1);
  const auto& all = registry.scenarios();
  const auto it = std::find_if(all.begin(), all.end(), [](const Scenario& s) {
    return s.name == "scalability/n14";
  });
  if (it == all.end()) throw std::logic_error("no scalability/n14 scenario");
  Scenario s = *it;
  s.timing_calls = timing_calls;
  return s;
}

Scenario multimedia_scenario(const std::string& name, int tiles,
                             const PolicySpec& policy) {
  Scenario s;
  s.name = name;
  s.family = "mm";
  s.task_filter = {"jpeg_dec"};
  s.sim.platform = virtex2_platform(tiles);
  s.sim.policy = policy;
  s.sim.iterations = 20;
  return s;
}

/// A campaign whose scenarios share workloads, listed as the built-in
/// catalogue lists them (a grid point's approaches side by side): one
/// multimedia grid point with three approaches, Pocket GL by task next to
/// Pocket GL by frame (one prepared renderer), a second multimedia tile
/// count and a sched_cost scenario in the middle.
std::vector<Scenario> shared_campaign() {
  std::vector<Scenario> scenarios;
  scenarios.push_back(
      multimedia_scenario("mm/t8/none", 8, policy_names::no_prefetch));
  scenarios.push_back(
      multimedia_scenario("mm/t8/hybrid", 8, policy_names::hybrid));
  Scenario gl;
  gl.name = "gl/hybrid";
  gl.family = "gl";
  gl.workload = WorkloadKind::pocket_gl;
  gl.sim.platform = virtex2_platform(6);
  gl.sim.policy = policy_names::hybrid;
  gl.sim.iterations = 10;
  scenarios.push_back(gl);
  scenarios.push_back(scalability_n14(3));
  Scenario frames = gl;
  frames.name = "gl/design-time";
  frames.workload = WorkloadKind::pocket_gl_frames;
  frames.sim.policy = policy_names::design_time;
  scenarios.push_back(frames);
  scenarios.push_back(
      multimedia_scenario("mm/t9/none", 9, policy_names::no_prefetch));
  scenarios.push_back(
      multimedia_scenario("mm/t8/runtime", 8, policy_names::runtime));
  return scenarios;
}

/// Expects no two of `workloads` to be one cached workload.
template <typename T>
void expect_all_distinct(
    const std::vector<std::shared_ptr<const T>>& workloads) {
  for (std::size_t i = 0; i < workloads.size(); ++i)
    for (std::size_t j = i + 1; j < workloads.size(); ++j)
      EXPECT_NE(workloads[i].get(), workloads[j].get()) << i << " vs " << j;
}

/// Runs `scenarios` at `threads` threads without host-clock readings.
std::vector<ScenarioResult> run_without_host_time(
    const std::vector<Scenario>& scenarios, int threads) {
  CampaignOptions options;
  options.threads = threads;
  options.record_wall_time = false;
  return CampaignRunner(options).run(scenarios);
}

/// Runs `scenarios` at `threads_a` and `threads_b` threads and expects
/// bit-identical results, aggregates and serialised reports.
void expect_identical_across_threads(const std::vector<Scenario>& scenarios,
                                     int threads_a, int threads_b) {
  const auto serial = run_without_host_time(scenarios, threads_a);
  const auto parallel = run_without_host_time(scenarios, threads_b);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].ok) << serial[i].error;
    EXPECT_EQ(serial[i].scenario.name, parallel[i].scenario.name);
    EXPECT_EQ(deterministic_metrics(serial[i]),
              deterministic_metrics(parallel[i]))
        << serial[i].scenario.name;
  }

  // Aggregates and the full serialised reports are bit-identical.
  StatsAggregator agg_serial, agg_parallel;
  agg_serial.add(serial);
  agg_parallel.add(parallel);
  EXPECT_EQ(agg_serial.overall().metrics, agg_parallel.overall().metrics);
  EXPECT_EQ(campaign_to_json(serial, agg_serial),
            campaign_to_json(parallel, agg_parallel));
  EXPECT_EQ(campaign_to_csv(serial), campaign_to_csv(parallel));
}

TEST(ScenarioRegistry, BuiltinEnumeratesThePaperExperiments) {
  const auto registry = ScenarioRegistry::builtin(100, 2005);
  EXPECT_GE(registry.size(), 100u);

  std::set<std::string> names;
  std::set<std::string> families;
  for (const Scenario& s : registry.scenarios()) {
    EXPECT_NO_THROW(s.validate()) << s.name;
    names.insert(s.name);
    families.insert(s.family);
  }
  EXPECT_EQ(names.size(), registry.size()) << "scenario names must be unique";
  for (const char* family : {"table1", "fig6", "fig7", "mix", "synthetic",
                             "sweep", "scalability"})
    EXPECT_TRUE(families.count(family)) << family;

  // Figure 6 sweeps tiles 8..16 for all five approaches.
  EXPECT_EQ(registry.match("fig6").size(), 9u * 5u);
  // Figure 7's design-time baseline sees the merged frame graphs.
  for (const Scenario& s : registry.match("fig7"))
    EXPECT_EQ(s.workload == WorkloadKind::pocket_gl_frames,
              s.sim.policy.name == policy_names::design_time)
        << s.name;
  // Every *registered* prefetch policy gets one online_policy scenario.
  const auto by_policy = registry.match("online_policy");
  EXPECT_EQ(by_policy.size(), PolicyRegistry::instance().names().size());
  for (const Scenario& s : by_policy) EXPECT_EQ(s.mode, ScenarioMode::online);
}

TEST(ScenarioRegistry, RejectsDuplicatesAndInvalidDescriptors) {
  ScenarioRegistry registry;
  registry.add(quick_scenario("a", "f", policy_names::hybrid, 1));
  EXPECT_THROW(registry.add(quick_scenario("a", "f", policy_names::hybrid, 2)),
               std::invalid_argument);

  Scenario bad = quick_scenario("b", "f", policy_names::hybrid, 1);
  bad.sim.iterations = 0;
  EXPECT_THROW(registry.add(bad), std::invalid_argument);

  Scenario filtered = quick_scenario("c", "f", policy_names::hybrid, 1);
  filtered.task_filter = {"jpeg_dec"};  // synthetic workloads have no filter
  EXPECT_THROW(registry.add(filtered), std::invalid_argument);

  // An unregistered policy name (or a bad parameter) fails at descriptor
  // validation, before anything simulates.
  Scenario unknown = quick_scenario("d", "f", "no-such-policy", 1);
  EXPECT_THROW(registry.add(unknown), std::invalid_argument);
  Scenario bad_param = quick_scenario(
      "e", "f", PolicySpec(policy_names::hybrid).with("typo", "1"), 1);
  EXPECT_THROW(registry.add(bad_param), std::invalid_argument);
}

TEST(ScenarioRegistry, ValidateRejectsEachBadDescriptorWithItsMessage) {
  // One bad field per row on top of a valid descriptor; each row must hit
  // its own throw, so the message is compared whole.
  Scenario base;
  base.name = "v";
  base.family = "f";
  ASSERT_NO_THROW(base.validate());
  struct Case {
    std::function<void(Scenario&)> spoil;
    std::string message;
  };
  const std::string prefix = "scenario 'v': ";
  const Case cases[] = {
      {[](Scenario& s) { s.name.clear(); }, "scenario without a name"},
      {[](Scenario& s) { s.family.clear(); }, "scenario 'v' without a family"},
      {[](Scenario& s) { s.sim.platform.tiles = 0; },
       "platform needs >= 1 tile"},
      {[](Scenario& s) { s.sim.iterations = 0; }, prefix + "iterations < 1"},
      {[](Scenario& s) { s.include_prob = 0.0; },
       prefix + "include_prob outside (0, 1]"},
      {[](Scenario& s) { s.include_prob = 1.5; },
       prefix + "include_prob outside (0, 1]"},
      {[](Scenario& s) {
         s.workload = WorkloadKind::synthetic;
         s.synthetic.tasks = 0;
       },
       prefix + "synthetic.tasks < 1"},
      {[](Scenario& s) {
         s.workload = WorkloadKind::synthetic;
         s.synthetic.graph.subtasks = 0;
       },
       prefix + "synthetic graph without subtasks"},
      {[](Scenario& s) { s.workload = WorkloadKind::file; },
       prefix + "file workload without a workload_file"},
      {[](Scenario& s) { s.workload_file = "mix.dwl"; },
       prefix + "workload_file requires the file kind"},
      {[](Scenario& s) {
         s.workload = WorkloadKind::pocket_gl;
         s.task_filter = {"jpeg_dec"};
       },
       prefix + "task_filter requires multimedia"},
      {[](Scenario& s) {
         s.workload = WorkloadKind::pocket_gl;
         s.exhaustive = true;
       },
       prefix + "exhaustive requires multimedia"},
      {[](Scenario& s) {
         s.workload = WorkloadKind::synthetic;
         s.mode = ScenarioMode::sched_cost;
         s.timing_calls = 0;
       },
       prefix + "timing_calls < 1"},
      {[](Scenario& s) { s.mode = ScenarioMode::sched_cost; },
       prefix + "sched_cost requires a synthetic workload"},
      {[](Scenario& s) {
         s.mode = ScenarioMode::online;
         s.arrivals.rate_per_s = 0.0;
       },
       prefix + "arrival rate must be positive"},
      {[](Scenario& s) { s.scheduler_cost = -1; },
       prefix + "negative scheduler cost"},
      {[](Scenario& s) { s.sim.intertask_lookahead = -1; },
       prefix + "negative intertask_lookahead"},
      {[](Scenario& s) { s.deadline_scale = -0.5; },
       prefix + "negative deadline_scale"},
      {[](Scenario& s) { s.high_crit_fraction = -0.1; },
       prefix + "high_crit_fraction outside [0, 1]"},
      {[](Scenario& s) { s.high_crit_fraction = 1.1; },
       prefix + "high_crit_fraction outside [0, 1]"},
      {[](Scenario& s) {
         s.mode = ScenarioMode::online;
         s.preempt = true;
       },
       prefix + "preempt requires deadline_scale > 0"},
      {[](Scenario& s) { s.deadline_scale = 2.0; },
       prefix + "deadlines require online mode"},
      {[](Scenario& s) {
         s.shared_isps = true;
         s.sim.platform.isps = 0;
       },
       prefix + "shared-ISP contention needs a platform with >= 1 ISP"},
  };
  for (const Case& c : cases) {
    Scenario s = base;
    c.spoil(s);
    try {
      s.validate();
      ADD_FAILURE() << "accepted: " << c.message;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), c.message);
    }
  }
}

TEST(ScenarioRegistry, MatchFiltersByNameAndFamily) {
  const auto registry = ScenarioRegistry::builtin(10, 1);
  EXPECT_EQ(registry.match("").size(), registry.size());
  for (const Scenario& s : registry.match("tiles12"))
    EXPECT_NE(s.name.find("tiles12"), std::string::npos);
  EXPECT_FALSE(registry.match("fig7").empty());
  EXPECT_TRUE(registry.match("no-such-scenario").empty());
}

TEST(SweepBuilder, ExpandsTheCartesianProduct) {
  SweepConfig sweep;
  sweep.family = "s";
  sweep.base = quick_scenario("s/base", "s", policy_names::hybrid, 1);
  sweep.tiles = {4, 8};
  sweep.latencies = {ms(4), us(500), us(100)};
  sweep.ports = {1, 2};
  sweep.policies = {policy_names::runtime, policy_names::hybrid};
  sweep.seeds = {1, 2, 3};
  const auto scenarios = build_sweep(sweep);
  EXPECT_EQ(scenarios.size(), 2u * 3u * 2u * 2u * 3u);

  std::set<std::string> names;
  for (const Scenario& s : scenarios) names.insert(s.name);
  EXPECT_EQ(names.size(), scenarios.size());

  // Empty axes fall back to the base scenario's value.
  SweepConfig narrow;
  narrow.family = "n";
  narrow.base = quick_scenario("n/base", "n", policy_names::hybrid, 9);
  narrow.tiles = {5};
  const auto single = build_sweep(narrow);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].sim.platform.tiles, 5);
  EXPECT_EQ(single[0].sim.seed, 9u);
  EXPECT_EQ(single[0].sim.policy, PolicySpec(policy_names::hybrid));
}

TEST(CampaignRunner, ResultsAreIdenticalAcrossThreadCounts) {
  expect_identical_across_threads(quick_campaign(), 1, 8);
  // Shared workloads: leaders and followers of one key on different
  // threads, and sched_cost reading a workload the pool did not build.
  expect_identical_across_threads(shared_campaign(), 1, 4);
}

TEST(CampaignRunner, ProgressCallbackSeesEveryScenario) {
  const auto scenarios = quick_campaign();
  CampaignOptions options;
  options.threads = 4;
  std::set<std::string> seen;
  std::size_t last_total = 0;
  options.on_result = [&](const ScenarioResult& result, std::size_t done,
                          std::size_t total) {
    seen.insert(result.scenario.name);
    EXPECT_GE(done, 1u);
    EXPECT_LE(done, total);
    last_total = total;
  };
  CampaignRunner(options).run(scenarios);
  EXPECT_EQ(seen.size(), scenarios.size());
  EXPECT_EQ(last_total, scenarios.size());
}

TEST(CampaignRunner, DispatchesLeadersFirstThenFollowersThenSchedCost) {
  const auto scenarios = shared_campaign();
  CampaignOptions options;
  options.threads = 1;
  options.record_wall_time = false;
  std::vector<std::string> order;
  options.on_result = [&](const ScenarioResult& result, std::size_t,
                          std::size_t) {
    order.push_back(result.scenario.name);
  };
  const auto results = CampaignRunner(options).run(scenarios);
  const std::vector<std::string> expected = {
      // Leaders: the first scenario of each workload key.
      "mm/t8/none", "gl/hybrid", "mm/t9/none",
      // Followers: every other scenario.
      "mm/t8/hybrid", "gl/design-time", "mm/t8/runtime",
      // sched_cost runs serially after the pool.
      "scalability/n14"};
  EXPECT_EQ(order, expected);
  // Results stay in scenario order.
  ASSERT_EQ(results.size(), scenarios.size());
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i].scenario.name, scenarios[i].name);
  // Without wall time, sched_cost records no host timings either.
  const ScenarioResult& sched_cost = results[3];
  ASSERT_EQ(sched_cost.scenario.name, "scalability/n14");
  EXPECT_TRUE(sched_cost.ok) << sched_cost.error;
  EXPECT_EQ(sched_cost.list_sched_us, 0.0);
  EXPECT_EQ(sched_cost.hybrid_sched_us, 0.0);
  EXPECT_EQ(sched_cost.wall_ms, 0.0);
}

TEST(CampaignRunner, SchedCostScenarioRunsLastAndTimesBothSchedulers) {
  std::vector<Scenario> scenarios = {
      scalability_n14(3),
      quick_scenario("quick/hybrid", "quick", policy_names::hybrid, 1)};
  CampaignOptions options;
  options.threads = 4;
  std::vector<std::string> order;
  options.on_result = [&](const ScenarioResult& result, std::size_t,
                          std::size_t) {
    order.push_back(result.scenario.name);
  };
  const auto results = CampaignRunner(options).run(scenarios);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order.back(), "scalability/n14");
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;
  // Host timings: only their sign is deterministic.
  EXPECT_GT(results[0].list_sched_us, 0.0);
  EXPECT_GT(results[0].hybrid_sched_us, 0.0);
}

TEST(WorkloadCache, ScenariosShareAWorkloadExactlyWhenTheirKeysMatch) {
  WorkloadCache cache;
  const Scenario base = multimedia_scenario("a", 8, policy_names::hybrid);
  Scenario other_approach = base;
  other_approach.name = "b";
  other_approach.sim.policy = policy_names::runtime;
  other_approach.sim.seed = 99;
  other_approach.include_prob = 0.5;
  EXPECT_EQ(WorkloadCache::key(base), WorkloadCache::key(other_approach));
  EXPECT_EQ(cache.multimedia(base).get(),
            cache.multimedia(other_approach).get());

  // Each field preparation reads gives its own workload.
  Scenario tiles = base;
  tiles.sim.platform.tiles = 9;
  Scenario ports = base;
  ports.sim.platform.reconfig_ports = 2;
  Scenario threshold = base;
  threshold.design.bnb_load_threshold = 4;
  Scenario filter = base;
  filter.task_filter = {"jpeg_dec", "mpeg_enc"};
  std::vector<std::shared_ptr<const MultimediaWorkload>> workloads;
  for (const Scenario& s : {base, tiles, ports, threshold, filter})
    workloads.push_back(cache.multimedia(s));
  expect_all_distinct(workloads);

  // Pocket GL by task and by frame read one prepared renderer.
  Scenario tasks;
  tasks.workload = WorkloadKind::pocket_gl;
  tasks.sim.platform = virtex2_platform(5);
  Scenario frames = tasks;
  frames.workload = WorkloadKind::pocket_gl_frames;
  EXPECT_EQ(cache.pocket_gl(tasks).get(), cache.pocket_gl(frames).get());
  // A multimedia and a Pocket GL scenario on one platform do not collide,
  // and an accessor refuses a scenario of another kind.
  Scenario mm = tasks;
  mm.workload = WorkloadKind::multimedia;
  EXPECT_NE(WorkloadCache::key(mm), WorkloadCache::key(tasks));
  EXPECT_THROW(cache.multimedia(tasks), std::invalid_argument);
}

TEST(WorkloadCache, KeyWritesGeneratorDoublesExactly) {
  // The generator reads edge_density; a 6-significant-digit key would fold
  // 0.3 and 0.3000001 into one cache entry.
  Scenario a = quick_scenario("a", "f", policy_names::hybrid, 1);
  a.synthetic.graph.edge_density = 0.3;
  a.synthetic.graph.isp_fraction = 0.25;
  Scenario b = a;
  b.synthetic.graph.edge_density = 0.3000001;
  Scenario c = a;
  c.synthetic.graph.isp_fraction = 0.2500001;
  Scenario d = a;
  d.sim.platform.reconfig_energy = 4.0000001;
  WorkloadCache cache;
  std::vector<std::shared_ptr<const SyntheticWorkload>> workloads;
  for (const Scenario& s : {a, b, c, d})
    workloads.push_back(cache.synthetic(s));
  expect_all_distinct(workloads);
}

TEST(CampaignRunner, CapturesScenarioFailuresWithoutAborting) {
  std::vector<Scenario> scenarios = quick_campaign();
  Scenario bad = scenarios[0];
  bad.name = "bad/unknown-task";
  bad.workload = WorkloadKind::multimedia;
  bad.task_filter = {"no_such_task"};
  scenarios.insert(scenarios.begin() + 1, bad);

  const auto results = CampaignRunner().run(scenarios);
  ASSERT_EQ(results.size(), scenarios.size());
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("no_such_task"), std::string::npos);
  for (std::size_t i = 0; i < results.size(); ++i)
    if (i != 1) {
      EXPECT_TRUE(results[i].ok) << results[i].error;
    }
}

TEST(CampaignRunner, ExhaustiveTable1ScenarioMatchesThePaperColumn) {
  // Table 1 row "JPEG dec": 4 subtasks, 81 ms ideal, +20% on demand.
  Scenario s;
  s.name = "t1/jpeg_dec";
  s.family = "t1";
  s.task_filter = {"jpeg_dec"};
  s.exhaustive = true;
  s.sim.policy = policy_names::no_prefetch;
  s.sim.iterations = 1;
  const auto result = run_scenario(s);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.report.total_ideal, ms(81));
  EXPECT_NEAR(result.report.overhead_pct, 20.0, 1.0);
}

TEST(Report, JsonRoundTripPreservesEverything) {
  const auto scenarios = quick_campaign();
  CampaignOptions options;
  options.record_wall_time = false;
  const auto results = CampaignRunner(options).run(scenarios);
  StatsAggregator aggregator;
  aggregator.add(results);

  const json::Value report =
      json::parse(campaign_to_json(results, aggregator), "campaign JSON");

  EXPECT_EQ(report.at("schema").text, "drhw-campaign-v1");
  const auto& items = report.at("scenarios").items;
  ASSERT_EQ(items.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const json::Value& p = items[i];
    const Scenario& s = results[i].scenario;
    EXPECT_EQ(p.at("name").text, s.name);
    EXPECT_EQ(p.at("family").text, s.family);
    EXPECT_EQ(p.at("workload").text, to_string(s.workload));
    EXPECT_EQ(p.at("approach").text, s.sim.policy.name);
    EXPECT_EQ(params_of(p.at("policy_params")), s.sim.policy.params);
    EXPECT_EQ(p.at("replacement").text, to_string(s.sim.replacement));
    EXPECT_EQ(p.at("tiles").number, s.sim.platform.tiles);
    EXPECT_EQ(p.at("reconfig_latency_us").text,
              std::to_string(s.sim.platform.reconfig_latency));
    EXPECT_EQ(p.at("ports").number, s.sim.platform.reconfig_ports);
    EXPECT_EQ(p.at("seed").text, std::to_string(s.sim.seed));
    EXPECT_EQ(p.at("iterations").number, s.sim.iterations);
    EXPECT_EQ(p.at("ok").boolean, results[i].ok);
    // Metric doubles survive the round trip bit-exactly.
    for (const auto& [name, value] : deterministic_metrics(results[i])) {
      const json::Value* metric = p.at("metrics").find(name);
      ASSERT_NE(metric, nullptr) << name;
      EXPECT_EQ(metric->number, value) << name;
    }
  }

  const auto families = aggregator.by_family();
  const auto& blocks = report.at("families").items;
  ASSERT_EQ(blocks.size(), families.size());
  for (std::size_t i = 0; i < families.size(); ++i)
    expect_group_matches(blocks[i], families[i]);
  expect_group_matches(report.at("overall"), aggregator.overall());
}

TEST(Report, CsvRoundTripPreservesScenarioRows) {
  auto scenarios = quick_campaign();
  // Exercise CSV quoting via a failing scenario with a comma in its error.
  Scenario bad = scenarios[0];
  bad.name = "bad/comma";
  bad.workload = WorkloadKind::multimedia;
  bad.task_filter = {"x,y"};
  scenarios.push_back(bad);

  CampaignOptions options;
  options.record_wall_time = false;
  const auto results = CampaignRunner(options).run(scenarios);

  const auto rows = csv_rows(campaign_to_csv(results));
  ASSERT_EQ(rows.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& row = rows[i];
    const Scenario& s = results[i].scenario;
    EXPECT_EQ(row.at("name"), s.name);
    EXPECT_EQ(row.at("family"), s.family);
    EXPECT_EQ(row.at("ok"), results[i].ok ? "1" : "0");
    EXPECT_EQ(row.at("error"), results[i].error);
    EXPECT_EQ(row.at("approach"), s.sim.policy.name);
    // quick_campaign()'s parameters hold no ';', '=' or '\\', so the cell
    // is the plain ';'-joined "k=v" list.
    std::string params;
    for (const auto& [key, value] : s.sim.policy.params)
      params += (params.empty() ? "" : ";") + key + "=" + value;
    EXPECT_EQ(row.at("policy_params"), params);
    EXPECT_EQ(row.at("seed"), std::to_string(s.sim.seed));
    for (const auto& [name, value] : deterministic_metrics(results[i])) {
      ASSERT_TRUE(row.count(name)) << name;
      EXPECT_EQ(std::stod(row.at(name)), value) << name;
    }
  }
}

TEST(Report, SingleSampleAggregatesAreFiniteAndRoundTrip) {
  // n = 1 families: stddev must be exactly 0 (not garbage from the
  // cancellation formula), percentiles collapse onto the sample, and the
  // serialised report must stay parseable.
  const auto result =
      run_scenario(quick_scenario("solo/one", "solo", policy_names::hybrid, 3),
                   /*record_wall_time=*/false);
  ASSERT_TRUE(result.ok) << result.error;
  StatsAggregator aggregator;
  aggregator.add(result);
  const GroupSummary overall = aggregator.overall();
  ASSERT_FALSE(overall.metrics.empty());
  for (const auto& [name, m] : overall.metrics) {
    EXPECT_EQ(m.count, 1u) << name;
    EXPECT_EQ(m.stddev, 0.0) << name;
    EXPECT_EQ(m.p50, m.mean) << name;
    EXPECT_EQ(m.p95, m.mean) << name;
    EXPECT_EQ(m.min, m.max) << name;
    for (double v : {m.mean, m.stddev, m.min, m.max, m.p50, m.p95})
      EXPECT_TRUE(std::isfinite(v)) << name;
  }
  const json::Value report =
      json::parse(campaign_to_json({result}, aggregator), "campaign JSON");
  expect_group_matches(report.at("overall"), overall);
}

TEST(Report, NonFiniteMetricsSerialiseAsMissingNotGarbage) {
  // A NaN/inf measurement (e.g. a wall-clock anomaly) must not poison the
  // reports: JSON writes null, CSV writes an empty cell, and both stay
  // well-formed documents.
  ScenarioResult weird =
      run_scenario(quick_scenario("w/a", "w", policy_names::no_prefetch, 1),
                   /*record_wall_time=*/false);
  ASSERT_TRUE(weird.ok) << weird.error;
  weird.wall_ms = std::numeric_limits<double>::quiet_NaN();
  ScenarioResult inf = weird;
  inf.scenario.name = "w/b";
  inf.wall_ms = std::numeric_limits<double>::infinity();

  StatsAggregator aggregator;
  aggregator.add(weird);
  aggregator.add(inf);
  const std::string json = campaign_to_json({weird, inf}, aggregator);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  const auto items = json::parse(json, "campaign JSON").at("scenarios").items;
  ASSERT_EQ(items.size(), 2u);
  for (const json::Value& item : items)
    EXPECT_EQ(item.at("metrics").at("wall_ms").kind, json::Value::Kind::null);
  EXPECT_EQ(items[0].at("metrics").at("makespan_ms").number,
            deterministic_metrics(weird).at("makespan_ms"));

  const auto rows = csv_rows(campaign_to_csv({weird, inf}));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at("wall_ms"), "");
  EXPECT_EQ(rows[1].at("wall_ms"), "");
  EXPECT_NE(rows[0].at("makespan_ms"), "");
}

TEST(Report, CsvRoundTripsNamesWithCommasAndQuotes) {
  ScenarioResult result =
      run_scenario(quick_scenario("q/base", "q", policy_names::no_prefetch, 1),
                   /*record_wall_time=*/false);
  ASSERT_TRUE(result.ok) << result.error;
  result.scenario.name = "sweep/\"quoted\",t=8,l=4ms";
  result.scenario.family = "fam,ily\"";
  const auto rows = csv_rows(campaign_to_csv({result}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("name"), result.scenario.name);
  EXPECT_EQ(rows[0].at("family"), result.scenario.family);

  StatsAggregator aggregator;
  aggregator.add(result);
  const auto items = json_scenarios({result}, aggregator);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].at("name").text, result.scenario.name);
  EXPECT_EQ(items[0].at("family").text, result.scenario.family);
}

TEST(Report, PolicyParamsWithSeparatorCharactersRoundTripLosslessly) {
  // Parameter values are arbitrary strings; the CSV cell's ';'/'=' joiners
  // and the escape itself are backslash-escaped so the cell stays
  // unambiguous, and the JSON object carries the values verbatim. (The spec
  // is mutated post-run, like the quoted-name test above — no registered
  // policy needs such values.)
  ScenarioResult result =
      run_scenario(quick_scenario("pp/weird", "pp", policy_names::hybrid, 1),
                   /*record_wall_time=*/false);
  ASSERT_TRUE(result.ok) << result.error;
  result.scenario.sim.policy.params = {
      {"tiers", "a;b=c"}, {"path", "x\\y"}, {"plain", "1"}};

  const auto rows = csv_rows(campaign_to_csv({result}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("policy_params"),
            R"(path=x\\y;plain=1;tiers=a\;b\=c)");

  StatsAggregator aggregator;
  aggregator.add(result);
  const auto items = json_scenarios({result}, aggregator);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(params_of(items[0].at("policy_params")),
            result.scenario.sim.policy.params);
}

TEST(Report, AggregatorExcludesWallClockMetrics) {
  const auto results = CampaignRunner().run(quick_campaign());
  StatsAggregator aggregator;
  aggregator.add(results);
  const GroupSummary overall = aggregator.overall();
  EXPECT_FALSE(overall.metrics.count("wall_ms"));
  EXPECT_FALSE(overall.metrics.count("list_sched_us"));
  EXPECT_TRUE(overall.metrics.count("overhead_pct"));
  EXPECT_EQ(overall.scenarios, results.size());
}

TEST(Report, PivotSpreadsOneNameSegmentInCatalogueOrder) {
  // Hand-built results: the pivot reads results only, nothing runs.
  const auto result = [](const std::string& name, double overhead) {
    ScenarioResult r;
    r.scenario.name = name;
    r.ok = true;
    r.report.overhead_pct = overhead;
    return r;
  };
  std::vector<ScenarioResult> results = {result("a/t2/y", 1.0),
                                         result("a/t2/x", 2.0),
                                         result("a/t1/x", 3.0),
                                         result("a/t1/y", 4.0)};
  ScenarioResult failed = result("a/t3/y", 5.0);
  failed.ok = false;
  ScenarioResult cost = result("a/t3/x", 6.0);
  cost.scenario.mode = ScenarioMode::sched_cost;
  cost.list_sched_us = 7.5;
  results.push_back(failed);
  results.push_back(cost);

  using Row = std::vector<std::optional<double>>;
  const PivotTable overhead = pivot_results(results, 2, "overhead_pct");
  EXPECT_EQ(overhead.columns, (std::vector<std::string>{"y", "x"}));
  EXPECT_EQ(overhead.rows, (std::vector<std::string>{"a/t2", "a/t1", "a/t3"}));
  ASSERT_EQ(overhead.cells.size(), 3u);
  EXPECT_EQ(overhead.cells[0], (Row{1.0, 2.0}));
  EXPECT_EQ(overhead.cells[1], (Row{4.0, 3.0}));
  // A failed result and a sched_cost one carry no overhead_pct.
  EXPECT_EQ(overhead.cells[2], (Row{std::nullopt, std::nullopt}));

  // A host metric pivots too; only the sched_cost result carries it.
  const PivotTable timing = pivot_results(results, 1, "list_sched_us");
  EXPECT_EQ(timing.columns, (std::vector<std::string>{"t2", "t1", "t3"}));
  EXPECT_EQ(timing.rows, (std::vector<std::string>{"a/y", "a/x"}));
  EXPECT_EQ(timing.cells[0], (Row{std::nullopt, std::nullopt, std::nullopt}));
  EXPECT_EQ(timing.cells[1], (Row{std::nullopt, std::nullopt, 7.5}));
  // Every result carries wall_ms, but a failed one's cell stays empty.
  const PivotTable wall = pivot_results(results, 2, "wall_ms");
  EXPECT_EQ(wall.cells[2], (Row{std::nullopt, 0.0}));

  // Segment 0 is the family: the rows keep the rest of the name.
  const PivotTable by_family = pivot_results(results, 0, "overhead_pct");
  EXPECT_EQ(by_family.columns, (std::vector<std::string>{"a"}));
  EXPECT_EQ(by_family.rows.front(), "t2/y");

  EXPECT_THROW(pivot_results(results, 3, "overhead_pct"),
               std::invalid_argument);
  EXPECT_THROW(pivot_results(results, 2, "no_such_metric"),
               std::invalid_argument);
}

TEST(SweepBuilder, ExpandsAdmissionAndDefragAxes) {
  SweepConfig sweep;
  sweep.family = "od";
  sweep.base.name = "od/base";
  sweep.base.family = "od";
  sweep.base.mode = ScenarioMode::online;
  sweep.base.sim.iterations = 10;
  sweep.base.pool.contiguous = true;
  sweep.admission_policies = {AdmissionPolicy::fifo_hol,
                              AdmissionPolicy::backfill_bypass};
  sweep.defrag_modes = {false, true};
  const auto scenarios = build_sweep(sweep);
  EXPECT_EQ(scenarios.size(), 4u);
  std::set<std::string> names;
  for (const Scenario& s : scenarios) {
    names.insert(s.name);
    EXPECT_TRUE(s.pool.contiguous);
  }
  EXPECT_EQ(names.size(), 4u);
  EXPECT_TRUE(names.count("od/t8/l4000/p1/hybrid/s1/fifo_hol/no-defrag"))
      << *names.begin();
  EXPECT_TRUE(
      names.count("od/t8/l4000/p1/hybrid/s1/backfill_bypass/defrag"));

  // Pool axes on a non-online base are a descriptor error, like the
  // arrival-rate axis.
  SweepConfig bad = sweep;
  bad.base.mode = ScenarioMode::simulate;
  EXPECT_THROW(build_sweep(bad), std::invalid_argument);
}

TEST(Report, OnlinePoolFieldsAndMetricsRoundTrip) {
  Scenario s;
  s.name = "od/test";
  s.family = "od";
  s.mode = ScenarioMode::online;
  s.sim.platform = virtex2_platform(10);
  s.sim.policy = policy_names::hybrid;
  s.sim.iterations = 25;
  s.arrivals.rate_per_s = 80.0;
  s.pool.contiguous = true;
  s.pool.defrag = true;
  s.pool.admission = AdmissionPolicy::window_reorder;
  s.scheduler_cost = us(50);
  const auto result = run_scenario(s, /*record_wall_time=*/false);
  ASSERT_TRUE(result.ok) << result.error;

  const auto metrics = deterministic_metrics(result);
  for (const char* key :
       {"response_p50_ms", "response_p95_ms", "response_p99_ms", "frag_pct",
        "queue_skips", "defrag_moves"})
    EXPECT_TRUE(metrics.count(key)) << key;

  StatsAggregator aggregator;
  aggregator.add(result);
  const auto items = json_scenarios({result}, aggregator);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].at("admission_policy").text, "window_reorder");
  EXPECT_TRUE(items[0].at("contiguous").boolean);
  EXPECT_TRUE(items[0].at("defrag").boolean);
  EXPECT_EQ(items[0].at("scheduler_cost_us").number, 50.0);
  EXPECT_EQ(items[0].at("metrics").at("frag_pct").number, result.frag_pct);

  const auto rows = csv_rows(campaign_to_csv({result}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("admission_policy"), "window_reorder");
  EXPECT_EQ(rows[0].at("contiguous"), "1");
  EXPECT_EQ(rows[0].at("defrag"), "1");
  EXPECT_EQ(std::stod(rows[0].at("scheduler_cost_us")), 50.0);
  EXPECT_EQ(std::stod(rows[0].at("queue_skips")),
            static_cast<double>(result.queue_skips));
  EXPECT_EQ(std::stod(rows[0].at("response_p95_ms")), result.response_p95_ms);
}

TEST(Report, DeadlineFieldsAndMetricsRoundTrip) {
  Scenario s;
  s.name = "rt/test";
  s.family = "rt";
  s.mode = ScenarioMode::online;
  s.sim.platform = virtex2_platform(12);
  s.sim.policy = policy_names::edf;
  s.sim.iterations = 25;
  s.arrivals.kind = ArrivalProcess::Kind::sporadic;
  s.arrivals.rate_per_s = 100.0;
  s.deadline_scale = 2.5;
  s.high_crit_fraction = 0.4;
  s.preempt = true;
  const auto result = run_scenario(s, /*record_wall_time=*/false);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.deadline_jobs, static_cast<long>(result.report.instances));

  const auto metrics = deterministic_metrics(result);
  for (const char* key :
       {"deadline_jobs", "deadline_misses", "deadline_miss_pct",
        "high_crit_miss_pct", "mean_lateness_ms", "max_tardiness_ms",
        "preemptions"})
    EXPECT_TRUE(metrics.count(key)) << key;

  StatsAggregator aggregator;
  aggregator.add(result);
  const auto items = json_scenarios({result}, aggregator);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].at("arrival_kind").text, "sporadic");
  EXPECT_EQ(items[0].at("deadline_scale").number, 2.5);
  EXPECT_EQ(items[0].at("high_crit_fraction").number, 0.4);
  EXPECT_TRUE(items[0].at("preempt").boolean);
  EXPECT_EQ(items[0].at("metrics").at("deadline_miss_pct").number,
            result.deadline_miss_pct);

  const auto rows = csv_rows(campaign_to_csv({result}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(std::stod(rows[0].at("deadline_scale")), 2.5);
  EXPECT_EQ(std::stod(rows[0].at("high_crit_fraction")), 0.4);
  EXPECT_EQ(rows[0].at("preempt"), "1");
  EXPECT_EQ(std::stod(rows[0].at("preemptions")),
            static_cast<double>(result.preemptions));
  EXPECT_EQ(std::stod(rows[0].at("max_tardiness_ms")),
            result.max_tardiness_ms);
}

}  // namespace
}  // namespace drhw
