// Tests for the event-driven online simulation kernel: determinism (rerun
// and campaign-thread-count invariance), the registry-driven rate -> 0
// equivalence of *every registered policy* against the sequential Section 7
// simulator, contention behaviour on the shared port and tile pool, and the
// arrival processes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "csv_rows.hpp"
#include "digest.hpp"
#include "fixtures.hpp"
#include "graph/generators.hpp"
#include "policy/names.hpp"
#include "policy/registry.hpp"
#include "prefetch/load_plan.hpp"
#include "runner/campaign.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "sim/event_sim.hpp"
#include "sim/port_set.hpp"
#include "sim/trace_hook.hpp"
#include "sim/workloads.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace drhw {
namespace {

TEST(PortSetModel, EarliestFreeBreaksTiesToLowestIndexAndSumsBusy) {
  // The tie-break both timing engines (evaluator + online kernel) rely on:
  // equal free times resolve to the lowest port index, deterministically.
  PortSet ports(3);
  EXPECT_EQ(ports.earliest(), 0u);
  EXPECT_EQ(ports.dispatch(0, 0, ms(4)), ms(4));
  EXPECT_EQ(ports.earliest(), 1u);  // 1 and 2 tie at 0 -> lowest index
  ports.dispatch(1, 0, ms(2));
  ports.dispatch(2, 0, ms(2));
  EXPECT_EQ(ports.earliest(), 1u);  // both free at 2ms again -> lowest
  ports.dispatch(1, ms(2), ms(10));
  EXPECT_EQ(ports.earliest(), 2u);
  EXPECT_EQ(ports.latest_free(), ms(12));
  EXPECT_EQ(ports.busy(0) + ports.busy(1) + ports.busy(2),
            ports.total_busy());
  EXPECT_EQ(ports.total_busy(), ms(18));
  EXPECT_FALSE(ports.idle_at(0, ms(3)));
  EXPECT_TRUE(ports.idle_at(0, ms(4)));
}

struct OnlineFixture : ::testing::Test {
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
    opt.iterations = 60;
    return opt;
  }
  PlatformConfig platform;
  std::unique_ptr<MultimediaWorkload> workload;
  IterationSampler sampler;
};

/// `run-time` with its loads ordered by a three-level priority in place of
/// the ALAP weights: (s * 7) % 3, so most loads tie (lower id first) and
/// the order is unlike the weights'. The online kernel serves the plan's
/// order from its load cursor; the sequential evaluator pops a heap of
/// plan positions. Registered before the EveryRegisteredPolicy sweep
/// enumerates the registry, so the sweep covers it too.
class TiedPriorityPolicy : public PrefetchPolicy {
 public:
  TiedPriorityPolicy()
      : inner_(PolicyRegistry::instance().create(
            PolicySpec(policy_names::runtime))) {}
  bool uses_reuse() const override { return inner_->uses_reuse(); }
  bool uses_intertask() const override { return inner_->uses_intertask(); }
  time_us scheduler_cost() const override { return inner_->scheduler_cost(); }
  void plan(const PreparedScenario& prep, const std::vector<bool>& resident,
            const PolicyContext& context, LoadPlan& out) override {
    inner_->plan(prep, resident, context, out);
    std::vector<time_us> tiers(prep.graph->size());
    for (std::size_t s = 0; s < tiers.size(); ++s)
      tiers[s] = static_cast<time_us>((s * 7) % 3);
    order_by_weight(out.loads, tiers);
  }
  std::vector<SubtaskId> intertask_candidates(
      const PreparedScenario& future) const override {
    return inner_->intertask_candidates(future);
  }
  const std::vector<time_us>& replacement_values(
      const PreparedScenario& prep,
      ReplacementPolicy replacement) const override {
    return inner_->replacement_values(prep, replacement);
  }

 private:
  std::unique_ptr<PrefetchPolicy> inner_;
};

constexpr const char* k_tied_priority = "tied-priority";

const bool k_tied_priority_registered = [] {
  PolicyRegistry::instance().add(
      k_tied_priority, "run-time with a three-level tied priority (test)",
      [](const PolicyParams& params) -> std::unique_ptr<PrefetchPolicy> {
        reject_unknown_params(k_tied_priority, params, {});
        return std::make_unique<TiedPriorityPolicy>();
      });
  return true;
}();

/// `run-time` whose plan breaks one load-id rule, picked by `defect`:
/// `range` appends an id past the graph, `isp` appends an ISP-placed
/// subtask, `dup` repeats the first load. With no defect (the default,
/// which the EveryRegisteredPolicy sweep runs) it is plain `run-time`.
class MalformedPlanPolicy : public PrefetchPolicy {
 public:
  explicit MalformedPlanPolicy(std::string defect)
      : defect_(std::move(defect)),
        inner_(PolicyRegistry::instance().create(
            PolicySpec(policy_names::runtime))) {}
  bool uses_reuse() const override { return inner_->uses_reuse(); }
  bool uses_intertask() const override { return inner_->uses_intertask(); }
  time_us scheduler_cost() const override { return inner_->scheduler_cost(); }
  void plan(const PreparedScenario& prep, const std::vector<bool>& resident,
            const PolicyContext& context, LoadPlan& out) override {
    inner_->plan(prep, resident, context, out);
    const auto n = static_cast<SubtaskId>(prep.graph->size());
    if (defect_ == "range") out.loads.push_back(n);
    if (defect_ == "dup" && !out.loads.empty())
      out.loads.push_back(out.loads.front());
    if (defect_ == "isp")
      for (SubtaskId s = 0; s < n; ++s)
        if (!prep.placement.on_drhw(s)) {
          out.loads.push_back(s);
          break;
        }
  }
  const std::vector<time_us>& replacement_values(
      const PreparedScenario& prep,
      ReplacementPolicy replacement) const override {
    return inner_->replacement_values(prep, replacement);
  }

 private:
  std::string defect_;
  std::unique_ptr<PrefetchPolicy> inner_;
};

constexpr const char* k_malformed_plan = "malformed-plan";

const bool k_malformed_plan_registered = [] {
  PolicyRegistry::instance().add(
      k_malformed_plan,
      "run-time with one malformed load id (test; defect=range|isp|dup)",
      [](const PolicyParams& params) -> std::unique_ptr<PrefetchPolicy> {
        reject_unknown_params(k_malformed_plan, params, {"defect"});
        const auto it = params.find("defect");
        const std::string defect = it == params.end() ? "" : it->second;
        if (!defect.empty() && defect != "range" && defect != "isp" &&
            defect != "dup")
          throw std::invalid_argument("malformed-plan: unknown defect '" +
                                      defect + "'");
        return std::make_unique<MalformedPlanPolicy>(defect);
      });
  return true;
}();

/// The kernel rejects each malformed load id at admission instead of
/// indexing past the instance's state or loading onto no tile.
TEST(OnlineKernel, MalformedPlanLoadIdsThrow) {
  ASSERT_TRUE(k_malformed_plan_registered);
  const PlatformConfig pf = virtex2_platform(16);
  LayeredGraphParams params;
  params.subtasks = 14;
  params.isp_fraction = 0.4;
  Rng graph_rng(5);
  const SubtaskGraph graph = make_layered_graph(params, graph_rng);
  const PreparedScenario prep = prepare_scenario(graph, pf.tiles, pf);
  ASSERT_LT(graph.drhw_count(), graph.size());  // an ISP subtask exists
  const IterationSampler sampler = [&](Rng&) {
    return std::vector<const PreparedScenario*>{&prep};
  };
  OnlineSimOptions opt;
  opt.platform = pf;
  opt.arrivals.rate_per_s = 40.0;
  opt.seed = 7;
  opt.iterations = 50;
  opt.policy = k_malformed_plan;
  EXPECT_NO_THROW(run_online_simulation(opt, sampler));
  for (const char* defect : {"range", "isp", "dup"}) {
    opt.policy = PolicySpec(k_malformed_plan).with("defect", defect);
    EXPECT_THROW(run_online_simulation(opt, sampler), InternalError)
        << defect;
  }
}

/// EveryRegisteredPolicy.RateToZeroMatchesSequentialSimulator/tied_priority
/// checks the kernel's priority cursor against the sequential heap on one
/// and two ports. This keeps that check from being vacuous: on one port the
/// tied priority must time instances differently from the ALAP weights.
TEST(OnlineKernel, TiedPriorityReordersThePortAgainstTheWeights) {
  ASSERT_TRUE(k_tied_priority_registered);
  const auto names = PolicyRegistry::instance().names();
  EXPECT_NE(std::find(names.begin(), names.end(), k_tied_priority),
            names.end());
  const PlatformConfig pf = virtex2_platform(16);
  const auto workload = make_multimedia_workload(pf);
  const auto sampler = multimedia_sampler(*workload);
  std::vector<std::vector<time_us>> spans;
  for (const char* policy : {k_tied_priority, policy_names::runtime}) {
    OnlineSimOptions opt;
    opt.platform = pf;
    opt.policy = policy;
    opt.arrivals.rate_per_s = 0.0001;  // one instance live at a time
    opt.seed = 7;
    opt.iterations = 60;
    spans.push_back(run_online_simulation(opt, sampler).spans);
  }
  EXPECT_NE(spans[0], spans[1]);
}

/// Registry-driven coverage: every policy registered in the PolicyRegistry
/// runs through both simulators, parameterized by name — a newly registered
/// policy is covered with zero test edits.
class EveryRegisteredPolicy : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    platform = virtex2_platform(16);
    workload = make_multimedia_workload(platform);
    sampler = multimedia_sampler(*workload);
  }
  PlatformConfig platform;
  std::unique_ptr<MultimediaWorkload> workload;
  IterationSampler sampler;
};

TEST_P(EveryRegisteredPolicy, RerunsAreBitIdenticalUnderContention) {
  OnlineSimOptions opt;
  opt.platform = platform;
  opt.policy = GetParam();
  opt.arrivals.rate_per_s = 40.0;
  opt.seed = 7;
  opt.iterations = 60;
  const auto r1 = run_online_simulation(opt, sampler);
  const auto r2 = run_online_simulation(opt, sampler);
  EXPECT_EQ(r1.spans, r2.spans);
  EXPECT_EQ(r1.sim.total_actual, r2.sim.total_actual);
  EXPECT_EQ(r1.sim.loads, r2.sim.loads);
  EXPECT_EQ(r1.mean_response_ms, r2.mean_response_ms);
  EXPECT_EQ(r1.horizon, r2.horizon);
}

TEST_P(EveryRegisteredPolicy, RunsOnPoissonAndBurstyArrivals) {
  for (ArrivalProcess::Kind kind :
       {ArrivalProcess::Kind::poisson, ArrivalProcess::Kind::bursty}) {
    OnlineSimOptions opt;
    opt.platform = platform;
    opt.policy = GetParam();
    opt.arrivals.rate_per_s = 30.0;
    opt.arrivals.kind = kind;
    opt.arrivals.burst_size = 4;
    opt.seed = 7;
    opt.iterations = 60;
    const auto r = run_online_simulation(opt, sampler);
    EXPECT_GT(r.sim.instances, 0);
    EXPECT_EQ(static_cast<long>(r.spans.size()), r.sim.instances);
    EXPECT_GE(r.sim.total_actual, r.sim.total_ideal);
    EXPECT_GE(r.port_utilisation_pct, 0.0);
    EXPECT_LE(r.port_utilisation_pct, 100.0);
    EXPECT_GE(r.mean_response_ms, r.mean_queueing_ms);
  }
}

/// rate -> 0: arrivals are so far apart that no two instances are ever
/// live together, so per-instance makespans must reduce to the sequential
/// simulator's spans on the same sampler stream — for *every* registered
/// policy, single- and two-port, under LRU and under the next-use oracle
/// (both engines rank by their run's PrepTable index). The sequential
/// reference is auto-derived: the same policy spec with the inter-task
/// lookahead closed (intertask_lookahead = 0), because an online scheduler
/// with an empty backlog has nothing to prefetch for, so the sequential rig
/// must not tail-prefetch either. (Pre-registry this table was hand-listed per
/// approach, mapping run-time+inter-task onto run-time and flipping the
/// hybrid's intertask flag — the lookahead knob subsumes both.)
TEST_P(EveryRegisteredPolicy, RateToZeroMatchesSequentialSimulator) {
  for (const int ports : {1, 2}) {
    PlatformConfig pf = platform;
    pf.reconfig_ports = ports;
    const auto local = make_multimedia_workload(pf);
    const auto local_sampler = multimedia_sampler(*local);
    for (const ReplacementPolicy replacement :
         {ReplacementPolicy::lru, ReplacementPolicy::oracle}) {
      const std::string label = std::to_string(ports) + " port(s), " +
                                to_string(replacement) + " replacement";
      OnlineSimOptions opt;
      opt.platform = pf;
      opt.policy = GetParam();
      opt.replacement = replacement;
      opt.arrivals.rate_per_s = 0.0001;  // mean gap 10^4 s >> any span
      opt.seed = 7;
      opt.iterations = 60;
      const auto online = run_online_simulation(opt, local_sampler);

      SimOptions seq;
      seq.platform = pf;
      seq.policy = GetParam();
      seq.replacement = replacement;
      seq.intertask_lookahead = 0;  // see the comment above
      seq.seed = opt.seed;
      seq.iterations = opt.iterations;
      seq.record_spans = true;
      const auto sequential = run_simulation(seq, local_sampler);

      EXPECT_EQ(online.mean_queueing_ms, 0.0) << label;
      ASSERT_EQ(online.spans.size(), sequential.spans.size()) << label;
      EXPECT_EQ(online.spans, sequential.spans) << label;
      EXPECT_EQ(online.sim.total_actual, sequential.total_actual) << label;
      EXPECT_EQ(online.sim.loads, sequential.loads) << label;
      EXPECT_EQ(online.sim.reused_subtasks, sequential.reused_subtasks)
          << label;
      EXPECT_EQ(online.sim.init_loads, sequential.init_loads) << label;
      EXPECT_EQ(online.sim.cancelled_loads, sequential.cancelled_loads)
          << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyRegistry, EveryRegisteredPolicy,
    ::testing::ValuesIn(PolicyRegistry::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string id = info.param;  // gtest ids must be [A-Za-z0-9_]
      for (char& c : id)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return id;
    });

TEST_F(OnlineFixture, ContentionStretchesResponseAndLoadsThePort) {
  const auto idle = run_online_simulation(options(policy_names::no_prefetch, 0.001),
                                          sampler);
  const auto busy = run_online_simulation(options(policy_names::no_prefetch, 80.0),
                                          sampler);
  // Same instance stream, so the ideal time is identical; contention can
  // only stretch spans and responses.
  EXPECT_EQ(idle.sim.total_ideal, busy.sim.total_ideal);
  EXPECT_GT(busy.sim.overhead_pct, idle.sim.overhead_pct)
      << "port contention must show up in per-instance spans";
  EXPECT_GT(busy.mean_response_ms, idle.mean_response_ms);
  EXPECT_GT(busy.mean_queueing_ms, 0.0);
  EXPECT_EQ(idle.mean_queueing_ms, 0.0);
  EXPECT_GT(busy.port_utilisation_pct, 10 * idle.port_utilisation_pct);
}

TEST_F(OnlineFixture, BacklogPrefetchHidesLoadsUnderContention) {
  const auto without =
      run_online_simulation(options(policy_names::runtime, 60.0),
                            sampler);
  const auto with =
      run_online_simulation(options(policy_names::runtime_intertask, 60.0),
                            sampler);
  EXPECT_GT(with.sim.intertask_prefetches, 0);
  EXPECT_EQ(without.sim.intertask_prefetches, 0);
  EXPECT_LT(with.sim.overhead_pct, without.sim.overhead_pct);
  EXPECT_GT(with.sim.reuse_pct, without.sim.reuse_pct);

  const auto hybrid_off = options(
      PolicySpec(policy_names::hybrid).with("intertask", "0"), 60.0);
  EXPECT_EQ(run_online_simulation(hybrid_off, sampler).sim.intertask_prefetches,
            0);
}

TEST(OnlineKernel, InitLoadCompletingBeforeUnitArrivalDoesNotStall) {
  // Regression: on a one-tile platform both independent DRHW subtasks pack
  // onto the same tile and both become critical, so the second subtask's
  // initialization-phase load (exempt from the unit-order arrival gate)
  // completes before the subtask "arrives" behind its tile predecessor.
  // The arrival handler used to skip the execution re-check for subtasks
  // with a pending load, leaving the execution unreleased forever and
  // aborting the run with "online simulation stalled".
  const PlatformConfig platform = virtex2_platform(1);
  SubtaskGraph graph("packed");
  graph.add_subtask({"a", ms(10), Resource::drhw});
  graph.add_subtask({"b", ms(10), Resource::drhw});
  graph.finalize();
  const PreparedScenario prepared =
      prepare_scenario(graph, platform.tiles, platform);
  const IterationSampler sampler = [&](Rng&) {
    return std::vector<const PreparedScenario*>{&prepared};
  };

  OnlineSimOptions opt;
  opt.platform = platform;
  opt.policy = policy_names::hybrid;
  opt.arrivals.rate_per_s = 10.0;
  opt.iterations = 5;
  const auto r = run_online_simulation(opt, sampler);
  EXPECT_EQ(r.sim.instances, 5);
  EXPECT_EQ(r.spans.size(), 5u);
}

TEST(OnlineKernel, OracleSkipsSubtasksWithoutAConfiguration) {
  // Regression: ISP subtasks carry no configuration, and indexing their
  // k_no_config for the next-use oracle wrote out of bounds (a segfault on
  // the CLI). At rate -> 0 the kernel must also match the sequential rig,
  // which ranks by the same index.
  const PlatformConfig platform = virtex2_platform(2);
  // Disjoint configurations, so two tiles cannot hold both tasks'.
  const SubtaskGraph first = testing::make_isp_sandwich_graph("first", 0);
  const SubtaskGraph second = testing::make_isp_sandwich_graph("second", 2);
  const std::vector<PreparedScenario> prepared = {
      prepare_scenario(first, platform.tiles, platform),
      prepare_scenario(second, platform.tiles, platform)};
  const IterationSampler sampler = [&](Rng& rng) {
    return std::vector<const PreparedScenario*>{
        &prepared[static_cast<std::size_t>(rng.next_int(0, 1))]};
  };

  OnlineSimOptions opt;
  opt.platform = platform;
  opt.policy = policy_names::runtime;
  opt.replacement = ReplacementPolicy::oracle;
  opt.arrivals.rate_per_s = 0.0001;
  opt.iterations = 30;
  const auto online = run_online_simulation(opt, sampler);
  EXPECT_EQ(online.sim.instances, 30);
  EXPECT_GT(online.sim.reused_subtasks, 0);

  SimOptions seq;
  seq.platform = platform;
  seq.policy = policy_names::runtime;
  seq.replacement = ReplacementPolicy::oracle;
  seq.seed = opt.seed;
  seq.iterations = opt.iterations;
  seq.record_spans = true;
  const auto sequential = run_simulation(seq, sampler);
  EXPECT_EQ(online.spans, sequential.spans);
  EXPECT_EQ(online.sim.loads, sequential.loads);
  EXPECT_EQ(online.sim.reused_subtasks, sequential.reused_subtasks);
}

TEST_F(OnlineFixture, ClosedLoopNeverQueues) {
  auto opt = options(policy_names::runtime, 0.0);
  opt.arrivals.kind = ArrivalProcess::Kind::closed_loop;
  opt.arrivals.think_time = ms(2);
  opt.iterations = 30;
  const auto r = run_online_simulation(opt, sampler);
  EXPECT_GT(r.sim.instances, 0);
  // Exactly one instance is outstanding at a time: admission is immediate.
  EXPECT_EQ(r.mean_queueing_ms, 0.0);
  EXPECT_EQ(r.max_queueing_ms, 0.0);
}

TEST_F(OnlineFixture, OracleReplacementRunsOnTheFullStreamIndex) {
  auto opt = options(policy_names::runtime, 40.0);
  opt.replacement = ReplacementPolicy::oracle;
  const auto r1 = run_online_simulation(opt, sampler);
  const auto r2 = run_online_simulation(opt, sampler);
  EXPECT_EQ(r1.spans, r2.spans);
  // The clairvoyant policy cannot reuse less than plain LRU here.
  opt.replacement = ReplacementPolicy::lru;
  const auto lru = run_online_simulation(opt, sampler);
  EXPECT_GE(r1.sim.reused_subtasks, lru.sim.reused_subtasks);
}

TEST_F(OnlineFixture, MultiPortPlatformsLoadInParallel) {
  auto one = options(policy_names::no_prefetch, 80.0);
  auto two = one;
  two.platform.reconfig_ports = 2;
  const auto r1 = run_online_simulation(one, sampler);
  const auto r2 = run_online_simulation(two, sampler);
  EXPECT_EQ(r1.sim.loads, r2.sim.loads);  // same work, more bandwidth
  EXPECT_LE(r2.sim.total_actual, r1.sim.total_actual);
  EXPECT_LT(r2.mean_response_ms, r1.mean_response_ms);
}

TEST(OnlineKernel, SaturatedMultiPortUtilisationIsNormalisedByPortCount) {
  // Regression for the ports>1 utilisation accounting: a port-saturated
  // two-port platform must report <= 100%. The un-normalised ratio
  // (busy / horizon, i.e. the reported value times the port count) exceeds
  // 100% here — an implementation that forgets to divide by
  // reconfig_ports fails the upper bound.
  PlatformConfig platform = virtex2_platform(8);
  platform.reconfig_ports = 2;
  SubtaskGraph graph("load_heavy");
  graph.add_subtask({"a", us(10), Resource::drhw});
  graph.add_subtask({"b", us(10), Resource::drhw});
  graph.finalize();
  const PreparedScenario prepared =
      prepare_scenario(graph, platform.tiles, platform);
  const IterationSampler sampler = [&](Rng&) {
    return std::vector<const PreparedScenario*>{&prepared};
  };
  OnlineSimOptions opt;
  opt.platform = platform;
  opt.policy = policy_names::no_prefetch;  // every instance loads everything
  opt.arrivals.rate_per_s = 1000.0;      // demand >> 2 ports' bandwidth
  opt.iterations = 200;
  const auto r = run_online_simulation(opt, sampler);
  EXPECT_LE(r.port_utilisation_pct, 100.0);
  EXPECT_GT(r.port_utilisation_pct, 75.0) << "scenario must saturate";
  // The pre-normalisation value (busy / horizon) is what a single-port
  // divisor would have reported: over 100%.
  EXPECT_GT(r.port_utilisation_pct * 2, 100.0);
  // Per-port accounting: one share per port, each <= 100, summing to the
  // normalised total times the port count (the kernel asserts the exact
  // integer identity internally).
  ASSERT_EQ(r.port_utilisation_per_port_pct.size(), 2u);
  double sum = 0.0;
  for (const double share : r.port_utilisation_per_port_pct) {
    EXPECT_GE(share, 0.0);
    EXPECT_LE(share, 100.0);
    sum += share;
  }
  EXPECT_NEAR(sum / 2, r.port_utilisation_pct, 1e-9);
}

/// The pinned ports>1 acceptance scenario: the port-bound contiguous +
/// defrag regime of the online_defrag family. A second port must strictly
/// reduce mean queueing delay (it overlaps init loads, prefetches and
/// migrations), spare ports must actually carry concurrent migrations,
/// and the reported utilisation must stay normalised.
TEST_F(OnlineFixture, SecondPortStrictlyReducesQueueingOnPortBoundDefrag) {
  const auto run = [&](int ports) {
    OnlineSimOptions opt;
    opt.platform = virtex2_platform(12);
    opt.platform.reconfig_ports = ports;
    opt.policy = policy_names::hybrid;
    opt.arrivals.rate_per_s = 120.0;
    opt.pool.contiguous = true;
    opt.pool.defrag = true;
    opt.seed = 2005;
    opt.iterations = 100;
    const auto local = make_multimedia_workload(opt.platform);
    return run_online_simulation(opt, multimedia_sampler(*local));
  };
  const auto one = run(1);
  const auto two = run(2);
  EXPECT_LT(two.mean_queueing_ms, one.mean_queueing_ms);
  EXPECT_LE(two.mean_response_ms, one.mean_response_ms);
  EXPECT_LE(one.port_utilisation_pct, 100.0);
  EXPECT_LE(two.port_utilisation_pct, 100.0);
  EXPECT_EQ(one.peak_concurrent_migrations, 1);
  EXPECT_GE(two.peak_concurrent_migrations, 2)
      << "a spare port must carry its own defrag migration";
  EXPECT_EQ(one.port_utilisation_per_port_pct.size(), 1u);
  EXPECT_EQ(two.port_utilisation_per_port_pct.size(), 2u);
  // Same instance stream: identical work, less waiting.
  EXPECT_EQ(one.sim.total_ideal, two.sim.total_ideal);
  EXPECT_EQ(one.sim.instances, two.sim.instances);
}

// (The hand-listed two-port rate->0 equivalence test folded into
// EveryRegisteredPolicy.RateToZeroMatchesSequentialSimulator above.)

TEST(OnlineKernel, SharedIspContentionSerialisesIspExecutions) {
  // An ISP-heavy synthetic mix: per-instance ISPs (the default) give every
  // live instance its own processor; the shared model makes them contend
  // for platform.isps servers, which can only stretch responses. Both
  // modes stay deterministic and the ports=1 default-off path is the
  // golden-pinned PR 3 kernel.
  PlatformConfig platform = virtex2_platform(16);
  LayeredGraphParams params;
  params.subtasks = 14;
  params.min_layer_width = 2;
  params.max_layer_width = 6;
  params.min_exec = ms(1);
  params.max_exec = ms(6);
  params.isp_fraction = 0.3;
  std::vector<SubtaskGraph> graphs;
  Rng graph_rng(11);
  for (int task = 0; task < 4; ++task)
    graphs.push_back(make_layered_graph(params, graph_rng));
  std::vector<PreparedScenario> prepared;
  for (const SubtaskGraph& graph : graphs)
    prepared.push_back(prepare_scenario(graph, platform.tiles, platform));
  const IterationSampler sampler = [&](Rng& rng) {
    std::vector<const PreparedScenario*> batch;
    for (const PreparedScenario& p : prepared)
      if (rng.next_double() < 0.8) batch.push_back(&p);
    return batch;
  };

  OnlineSimOptions opt;
  opt.platform = platform;
  opt.policy = policy_names::hybrid;
  opt.arrivals.rate_per_s = 80.0;
  opt.seed = 7;
  opt.iterations = 60;
  const auto per_instance = run_online_simulation(opt, sampler);
  opt.shared_isps = true;
  const auto shared = run_online_simulation(opt, sampler);
  const auto shared_again = run_online_simulation(opt, sampler);
  opt.isp_discipline = PortDiscipline::priority;
  const auto shared_priority = run_online_simulation(opt, sampler);

  ASSERT_GT(per_instance.sim.instances, 0);
  EXPECT_GT(per_instance.isp_utilisation_pct, 0.0);
  // Contention for one server can only stretch responses; the workload
  // itself (loads, instances, ideal time) is untouched.
  EXPECT_GT(shared.mean_response_ms, per_instance.mean_response_ms);
  EXPECT_EQ(shared.sim.instances, per_instance.sim.instances);
  EXPECT_EQ(shared.sim.total_ideal, per_instance.sim.total_ideal);
  // Shared mode reports a true utilisation of the contended server.
  EXPECT_GT(shared.isp_utilisation_pct, 0.0);
  EXPECT_LE(shared.isp_utilisation_pct, 100.0);
  // Deterministic, and the priority discipline runs to completion too.
  EXPECT_EQ(shared.spans, shared_again.spans);
  EXPECT_EQ(shared.horizon, shared_again.horizon);
  EXPECT_EQ(shared_priority.sim.instances, shared.sim.instances);
}

/// Records which preparation each execution start belongs to.
class ExecStartLog : public TraceSink {
 public:
  void on_preps(const std::vector<TracePrep>& preps) override {
    preps_ = preps;
  }
  void record(const TraceEvent& ev) override {
    if (ev.kind == TraceEvent::Kind::arrival) {
      if (static_cast<std::size_t>(ev.job) >= prep_of_job_.size())
        prep_of_job_.resize(static_cast<std::size_t>(ev.job) + 1, -1);
      prep_of_job_[static_cast<std::size_t>(ev.job)] = ev.prep;
    } else if (ev.kind == TraceEvent::Kind::exec_start) {
      const auto prep = prep_of_job_[static_cast<std::size_t>(ev.job)];
      starts.emplace_back(ev.t, preps_[static_cast<std::size_t>(prep)].name);
    }
  }
  std::vector<std::pair<time_us, std::string>> starts;

 private:
  std::vector<TracePrep> preps_;
  std::vector<std::int32_t> prep_of_job_;
};

TEST(OnlineKernel, SharedIspDisciplinePicksTheNextWaiter) {
  // Three one-subtask software tasks arrive at 1, 2 and 3 ms on one shared
  // ISP. "long" holds the server until 11 ms while "light" (ALAP weight
  // 1 ms) and then "heavy" (5 ms) queue behind it. When the server frees,
  // fifo serves the older request and priority the heavier one.
  auto software_task = [](const std::string& name, time_us exec) {
    SubtaskGraph g(name);
    g.add_subtask({name, exec, Resource::isp});
    g.finalize();
    return g;
  };
  const std::vector<SubtaskGraph> graphs = {software_task("long", ms(10)),
                                            software_task("light", ms(1)),
                                            software_task("heavy", ms(5))};
  const PlatformConfig platform = virtex2_platform(4);
  std::vector<PreparedScenario> prepared;
  for (const SubtaskGraph& graph : graphs)
    prepared.push_back(prepare_scenario(graph, platform.tiles, platform));
  const IterationSampler sampler = [&](Rng&) {
    return std::vector<const PreparedScenario*>{&prepared[0], &prepared[1],
                                                &prepared[2]};
  };

  for (const PortDiscipline discipline :
       {PortDiscipline::fifo, PortDiscipline::priority}) {
    OnlineSimOptions opt;
    opt.platform = platform;
    opt.policy = policy_names::hybrid;
    opt.arrivals.kind = ArrivalProcess::Kind::periodic;
    opt.arrivals.period_us = ms(1);
    opt.shared_isps = true;
    opt.isp_discipline = discipline;
    opt.iterations = 1;
    ExecStartLog log;
    opt.trace = &log;
    run_online_simulation(opt, sampler);
    const std::string next =
        discipline == PortDiscipline::fifo ? "light" : "heavy";
    const std::string last =
        discipline == PortDiscipline::fifo ? "heavy" : "light";
    const time_us next_exec = next == "light" ? ms(1) : ms(5);
    const std::vector<std::pair<time_us, std::string>> expected = {
        {ms(1), "long"}, {ms(11), next}, {ms(11) + next_exec, last}};
    EXPECT_EQ(log.starts, expected) << to_string(discipline);
  }
}

TEST_F(OnlineFixture, PriorityDisciplineRunsAndStaysDeterministic) {
  auto opt = options(policy_names::runtime, 60.0);
  opt.port_discipline = PortDiscipline::priority;
  const auto r1 = run_online_simulation(opt, sampler);
  const auto r2 = run_online_simulation(opt, sampler);
  EXPECT_EQ(r1.spans, r2.spans);
  EXPECT_GT(r1.sim.instances, 0);
}

/// The fragmented-pool regime: a contiguous pool at a saturating rate,
/// where a large queued instance head-of-line blocks scattered free tiles.
/// Placement-aware admission and the defragmentation pass must strictly
/// reduce mean queueing delay relative to plain FIFO head-of-line.
TEST_F(OnlineFixture, AdmissionPoliciesAndDefragReduceQueueingWhenFragmented) {
  const auto run = [&](AdmissionPolicy policy, bool defrag) {
    OnlineSimOptions opt;
    opt.platform = virtex2_platform(12);
    opt.policy = policy_names::hybrid;
    opt.arrivals.rate_per_s = 40.0;
    opt.pool.contiguous = true;
    opt.pool.admission = policy;
    opt.pool.defrag = defrag;
    opt.seed = 2005;
    opt.iterations = 100;
    const auto local = make_multimedia_workload(opt.platform);
    return run_online_simulation(opt, multimedia_sampler(*local));
  };
  const auto fifo = run(AdmissionPolicy::fifo_hol, false);
  const auto fifo_defrag = run(AdmissionPolicy::fifo_hol, true);
  const auto backfill = run(AdmissionPolicy::backfill_bypass, false);
  const auto reorder = run(AdmissionPolicy::window_reorder, false);
  const auto reorder_defrag = run(AdmissionPolicy::window_reorder, true);

  // FIFO never overtakes and never defragments.
  EXPECT_EQ(fifo.queue_skips, 0);
  EXPECT_EQ(fifo.defrag_moves, 0);
  EXPECT_GT(fifo.mean_frag_pct, 0.0);

  // Bypass/reordering admit the smaller instances past the blocked head.
  EXPECT_GT(backfill.queue_skips, 0);
  EXPECT_GT(reorder.queue_skips, 0);
  EXPECT_LT(backfill.mean_queueing_ms, fifo.mean_queueing_ms);
  EXPECT_LT(reorder.mean_queueing_ms, fifo.mean_queueing_ms);

  // The defragmentation pass opens contiguous room at real port cost.
  EXPECT_GT(fifo_defrag.defrag_moves, 0);
  EXPECT_LT(fifo_defrag.mean_queueing_ms, fifo.mean_queueing_ms);
  EXPECT_LT(fifo_defrag.mean_frag_pct, fifo.mean_frag_pct);
  EXPECT_LT(reorder_defrag.mean_queueing_ms, reorder.mean_queueing_ms);

  // Same instance stream either way: identical work, different waiting.
  EXPECT_EQ(fifo.sim.total_ideal, backfill.sim.total_ideal);
  EXPECT_EQ(fifo.sim.instances, reorder_defrag.sim.instances);
}

TEST(OnlineKernel, DefragRemapsAnEmptyHeldTileForFree) {
  // Hand-built fragmentation on 4 tiles, one port, periodic arrivals every
  // 5 ms under no-prefetch (loads start only when a subtask is ready):
  //   A (1 tile)  a: 20 ms          arrives  5 ms -> tile 0, retires 29 ms
  //   B (2 tiles) r: 50 ms -> x, y  arrives 10 ms -> tiles 1-2
  //   D (2 tiles) d1, d2            arrives 15 ms -> queued (1 tile free)
  // When A retires, tiles 0 and 3 are free: D fits by count but not
  // contiguously. B's root still executes on one of its tiles; its other
  // tile waits for a subtask that is not DAG-ready, so it was never loaded.
  // Defragmentation relocates that empty tile without the port (a remap,
  // no migration) and D is admitted at the same instant.
  const PlatformConfig platform = virtex2_platform(4);
  const auto prepare = [&](SubtaskGraph& graph, int tiles) {
    graph.finalize();
    return prepare_scenario(graph, tiles, platform);
  };
  SubtaskGraph a("a");
  a.add_subtask({"a", ms(20), Resource::drhw});
  SubtaskGraph b("b");
  const auto r = b.add_subtask({"r", ms(50), Resource::drhw});
  b.add_edge(r, b.add_subtask({"x", ms(1), Resource::drhw}));
  b.add_edge(r, b.add_subtask({"y", ms(1), Resource::drhw}));
  SubtaskGraph d("d");
  d.add_subtask({"d1", ms(1), Resource::drhw});
  d.add_subtask({"d2", ms(1), Resource::drhw});
  const PreparedScenario prep_a = prepare(a, 1);
  const PreparedScenario prep_b = prepare(b, 2);
  const PreparedScenario prep_d = prepare(d, 2);
  ASSERT_EQ(prep_b.placement.tiles_used, 2);
  ASSERT_EQ(prep_d.placement.tiles_used, 2);
  const IterationSampler sampler = [&](Rng&) {
    return std::vector<const PreparedScenario*>{&prep_a, &prep_b, &prep_d};
  };

  OnlineSimOptions opt;
  opt.platform = platform;
  opt.policy = policy_names::no_prefetch;
  opt.arrivals.kind = ArrivalProcess::Kind::periodic;
  opt.arrivals.period_us = ms(5);
  opt.pool.contiguous = true;
  opt.pool.defrag = true;
  opt.iterations = 1;
  const std::string path = ::testing::TempDir() + "/free_remap.jsonl";
  TraceRecorder recorder(path, TraceFormat::jsonl, opt);
  opt.trace = &recorder;
  const OnlineReport report = run_online_simulation(opt, sampler);
  recorder.finish(report);
  const TraceData trace = read_trace(path);

  const TraceEvent* remap = nullptr;
  const TraceEvent* admit_d = nullptr;
  bool migrated = false;
  for (const TraceEvent& ev : trace.events) {
    if (ev.kind == TraceEvent::Kind::remap && remap == nullptr) remap = &ev;
    if (ev.kind == TraceEvent::Kind::admit && ev.job == 2) admit_d = &ev;
    migrated |= ev.kind == TraceEvent::Kind::migration_start;
  }
  ASSERT_NE(remap, nullptr) << "no free remap recorded";
  EXPECT_EQ(remap->job, 1) << "the remapped tile belongs to B";
  EXPECT_EQ(remap->t, ms(29)) << "the remap happens when A retires";
  EXPECT_FALSE(migrated) << "the empty tile must not cost a port migration";
  EXPECT_GE(report.defrag_moves, 1);
  ASSERT_NE(admit_d, nullptr) << "the fragmentation-blocked D never ran";
  EXPECT_EQ(admit_d->t, remap->t);
  EXPECT_EQ(report.sim.instances, 3);
  EXPECT_TRUE(verify_trace(trace).empty());
}

TEST_F(OnlineFixture, FifoHolDefaultsMatchThePlainCountBasedKernel) {
  // The pool-layer refactor must be invisible under the default options:
  // fifo_hol + non-contiguous + no defrag reproduces PR 2 bit-identically,
  // and a contiguous pool with the whole pool free behaves sanely.
  const auto opt = options(policy_names::hybrid, 40.0);
  const auto r = run_online_simulation(opt, sampler);
  EXPECT_EQ(r.queue_skips, 0);
  EXPECT_EQ(r.defrag_moves, 0);
  EXPECT_GE(r.mean_frag_pct, 0.0);
  EXPECT_LE(r.mean_frag_pct, 100.0);
}

TEST_F(OnlineFixture, SchedulerCostDelaysResponsesButNotTheWorkload) {
  auto free_opt = options(policy_names::hybrid, 40.0);
  auto charged_opt = free_opt;
  charged_opt.scheduler_cost = ms(1);  // deliberately huge: visible shift
  const auto free_run = run_online_simulation(free_opt, sampler);
  const auto charged = run_online_simulation(charged_opt, sampler);
  EXPECT_GT(charged.mean_response_ms, free_run.mean_response_ms);
  EXPECT_GE(charged.horizon, free_run.horizon);
  // The decision delays work, it does not change what is loaded/executed.
  EXPECT_EQ(charged.sim.instances, free_run.sim.instances);
  EXPECT_EQ(charged.sim.total_ideal, free_run.sim.total_ideal);
  // The cost is charged after admission, but delayed retires cascade:
  // later instances can only queue longer, never shorter.
  EXPECT_GE(charged.mean_queueing_ms, free_run.mean_queueing_ms);

  // Section 4 defaults: design-time policies decide nothing at run time.
  EXPECT_EQ(paper_scheduler_cost(policy_names::no_prefetch), 0);
  EXPECT_EQ(paper_scheduler_cost(policy_names::design_time), 0);
  EXPECT_EQ(paper_scheduler_cost(policy_names::hybrid),
            k_paper_hybrid_scheduler_cost);
  EXPECT_EQ(paper_scheduler_cost(policy_names::runtime),
            k_paper_list_scheduler_cost);
  EXPECT_LT(k_paper_hybrid_scheduler_cost, k_paper_list_scheduler_cost);
}

TEST_F(OnlineFixture, QuantileSketchTracksExactSpanPercentiles) {
  const auto opt = options(policy_names::runtime, 60.0);
  const auto r = run_online_simulation(opt, sampler);
  ASSERT_GT(r.sim.instances, 50);
  // The P² estimator's numeric accuracy is pinned in test_util; here the
  // kernel-level wiring: percentiles are populated, ordered, and bounded
  // by the exact extremes.
  EXPECT_GT(r.response_p50_ms, 0.0);
  EXPECT_LE(r.response_p50_ms, r.response_p95_ms);
  EXPECT_LE(r.response_p95_ms, r.response_p99_ms);
  EXPECT_LE(r.response_p99_ms, r.max_response_ms);
  // p50 of a right-skewed queueing distribution sits below the mean of the
  // extreme tail and within a sane band around the mean.
  EXPECT_LT(r.response_p50_ms, r.max_response_ms);
  EXPECT_GT(r.response_p95_ms, r.mean_response_ms * 0.5);
}

TEST_F(OnlineFixture, RecordSpansOffKeepsMetricsButDropsTheVector) {
  auto with_spans = options(policy_names::hybrid, 40.0);
  auto without = with_spans;
  without.record_spans = false;
  const auto a = run_online_simulation(with_spans, sampler);
  const auto b = run_online_simulation(without, sampler);
  EXPECT_EQ(a.spans.size(), static_cast<std::size_t>(a.sim.instances));
  EXPECT_TRUE(b.spans.empty());
  EXPECT_EQ(a.mean_response_ms, b.mean_response_ms);
  EXPECT_EQ(a.response_p99_ms, b.response_p99_ms);
  EXPECT_EQ(a.sim.total_actual, b.sim.total_actual);
  EXPECT_EQ(a.horizon, b.horizon);
}

TEST(OnlineScenarios, CampaignResultsIdenticalAcrossThreadCounts) {
  const auto registry = ScenarioRegistry::builtin(40, 2005);
  // "online" matches the poisson/burst/sweep families AND the new
  // online_defrag family, so the 1-vs-8-thread bit-identity below covers
  // the pool-layer policies too.
  const auto scenarios = registry.match("online");
  ASSERT_FALSE(scenarios.empty());
  std::size_t defrag_scenarios = 0, multiport_scenarios = 0,
              policy_scenarios = 0, deadline_scenarios = 0;
  for (const auto& s : scenarios) {
    defrag_scenarios += s.family == "online_defrag";
    multiport_scenarios += s.family == "online_multiport";
    policy_scenarios += s.family == "online_policy";
    deadline_scenarios += s.family == "online_deadline";
  }
  EXPECT_EQ(defrag_scenarios, 24u);  // 2 tiles x 2 rates x 3 policies x 2
  // 3 ports x 2 approaches x 2 policies (defrag sweep) + 3 ports x 2
  // approaches (shared-ISP sweep).
  EXPECT_EQ(multiport_scenarios, 18u);
  // One scenario per *registered* policy: the bit-identity check below
  // covers newly registered policies automatically.
  EXPECT_EQ(policy_scenarios, PolicyRegistry::instance().names().size());
  // 3 rates x (2 crit mixes x 3 deadline policies + preempt on/off pair).
  EXPECT_EQ(deadline_scenarios, 24u);

  CampaignOptions one;
  one.threads = 1;
  one.record_wall_time = false;
  CampaignOptions eight;
  eight.threads = 8;
  eight.record_wall_time = false;
  const auto serial = CampaignRunner(one).run(scenarios);
  const auto parallel = CampaignRunner(eight).run(scenarios);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].ok) << serial[i].scenario.name << ": "
                              << serial[i].error;
    EXPECT_EQ(deterministic_metrics(serial[i]),
              deterministic_metrics(parallel[i]))
        << serial[i].scenario.name;
  }

  StatsAggregator agg_serial, agg_parallel;
  agg_serial.add(serial);
  agg_parallel.add(parallel);
  EXPECT_EQ(campaign_to_json(serial, agg_serial),
            campaign_to_json(parallel, agg_parallel));
}

TEST(OnlineScenarios, OnlineMetricsFlowIntoReports) {
  Scenario s;
  s.name = "online/test";
  s.family = "online";
  s.mode = ScenarioMode::online;
  s.sim.platform = virtex2_platform(12);
  s.sim.platform.reconfig_ports = 2;
  s.sim.policy = policy_names::hybrid;
  s.sim.iterations = 30;
  s.arrivals.rate_per_s = 50.0;
  s.shared_isps = true;
  s.isp_discipline = PortDiscipline::priority;
  const auto result = run_scenario(s, false);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.mean_response_ms, 0.0);
  EXPECT_GT(result.horizon_ms, 0.0);

  const auto metrics = deterministic_metrics(result);
  for (const char* key :
       {"response_ms", "response_max_ms", "queueing_ms", "queueing_max_ms",
        "port_util_pct", "isp_util_pct", "peak_concurrent_migrations",
        "horizon_ms", "overhead_pct", "makespan_ms"})
    EXPECT_TRUE(metrics.count(key)) << key;

  StatsAggregator aggregator;
  aggregator.add(result);
  const auto items =
      json::parse(campaign_to_json({result}, aggregator), "campaign JSON")
          .at("scenarios")
          .items;
  ASSERT_EQ(items.size(), 1u);
  const json::Value& item = items[0];
  EXPECT_EQ(item.at("mode").text, "online");
  EXPECT_EQ(item.at("arrival_kind").text, "poisson");
  EXPECT_EQ(item.at("arrival_rate_per_s").number, 50.0);
  EXPECT_EQ(item.at("port_discipline").text, "fifo");
  EXPECT_EQ(item.at("metrics").at("response_ms").number,
            result.mean_response_ms);
  // Multi-port / shared-ISP descriptor fields and the per-port vector
  // round-trip through JSON...
  EXPECT_EQ(item.at("ports").number, 2.0);
  EXPECT_EQ(item.at("isps").number, 1.0);
  EXPECT_TRUE(item.at("shared_isps").boolean);
  EXPECT_EQ(item.at("isp_discipline").text, "priority");
  std::vector<double> per_port;
  for (const json::Value& value : item.at("port_util_per_port_pct").items)
    per_port.push_back(value.number);
  ASSERT_EQ(per_port.size(), 2u);
  EXPECT_EQ(per_port, result.port_utilisation_per_port_pct);
  EXPECT_EQ(item.at("metrics").at("isp_util_pct").number,
            result.isp_utilisation_pct);
  // ... and through CSV (the vector travels as one ';'-joined cell).
  const auto rows = testing::csv_rows(campaign_to_csv({result}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(std::stod(rows[0].at("response_ms")), result.mean_response_ms);
  EXPECT_EQ(rows[0].at("ports"), "2");
  EXPECT_EQ(rows[0].at("shared_isps"), "1");
  EXPECT_EQ(rows[0].at("isp_discipline"), "priority");
  const std::string& cell = rows[0].at("port_util_per_port_pct");
  const std::size_t split = cell.find(';');
  ASSERT_NE(split, std::string::npos) << cell;
  EXPECT_EQ(std::stod(cell.substr(0, split)),
            result.port_utilisation_per_port_pct[0]);
  EXPECT_EQ(std::stod(cell.substr(split + 1)),
            result.port_utilisation_per_port_pct[1]);
}

TEST(OnlineScenarios, SweepExpandsArrivalRateAxis) {
  SweepConfig sweep;
  sweep.family = "os";
  sweep.base.name = "os/base";
  sweep.base.family = "os";
  sweep.base.mode = ScenarioMode::online;
  sweep.base.sim.iterations = 10;
  sweep.tiles = {8, 16};
  sweep.policies = {policy_names::hybrid};
  sweep.arrival_rates = {10.0, 80.0};
  const auto scenarios = build_sweep(sweep);
  EXPECT_EQ(scenarios.size(), 4u);
  for (const auto& s : scenarios) EXPECT_EQ(s.mode, ScenarioMode::online);
  EXPECT_NE(scenarios[0].name.find("/r10"), std::string::npos);

  // A rate axis on a non-online base is a descriptor error.
  SweepConfig bad = sweep;
  bad.base.mode = ScenarioMode::simulate;
  EXPECT_THROW(build_sweep(bad), std::invalid_argument);
}

TEST(ArrivalProcess, ValidatesAndNames) {
  ArrivalProcess arrivals;
  arrivals.rate_per_s = 0.0;
  EXPECT_THROW(arrivals.validate(), std::invalid_argument);
  arrivals.rate_per_s = 5.0;
  arrivals.kind = ArrivalProcess::Kind::bursty;
  arrivals.burst_size = 0;
  EXPECT_THROW(arrivals.validate(), std::invalid_argument);
  EXPECT_STREQ(to_string(ArrivalProcess::Kind::poisson), "poisson");
  EXPECT_STREQ(to_string(ArrivalProcess::Kind::bursty), "bursty");
  EXPECT_STREQ(to_string(ArrivalProcess::Kind::closed_loop), "closed_loop");
  EXPECT_STREQ(to_string(ArrivalProcess::Kind::periodic), "periodic");
  EXPECT_STREQ(to_string(ArrivalProcess::Kind::sporadic), "sporadic");
  EXPECT_EQ(arrival_kind_from_string("bursty"), ArrivalProcess::Kind::bursty);
  EXPECT_EQ(arrival_kind_from_string("periodic"),
            ArrivalProcess::Kind::periodic);
  EXPECT_EQ(arrival_kind_from_string("sporadic"),
            ArrivalProcess::Kind::sporadic);
  EXPECT_THROW(arrival_kind_from_string("nope"), std::invalid_argument);
  // The registered-kind list the CLI prints on an unknown --arrivals value:
  // every name must round-trip through the parser.
  const auto names = arrival_kind_names();
  EXPECT_EQ(names.size(), 5u);
  for (const std::string& name : names)
    EXPECT_EQ(to_string(arrival_kind_from_string(name)), name);
  // A periodic process with an explicit period needs no rate; a negative
  // period is rejected.
  ArrivalProcess periodic;
  periodic.kind = ArrivalProcess::Kind::periodic;
  periodic.rate_per_s = 0.0;
  periodic.period_us = ms(10);
  EXPECT_NO_THROW(periodic.validate());
  periodic.period_us = -1;
  EXPECT_THROW(periodic.validate(), std::invalid_argument);
  // Sporadic keeps the rate requirement (the gap on top of the minimum
  // separation is exponential at rate_per_s).
  ArrivalProcess sporadic;
  sporadic.kind = ArrivalProcess::Kind::sporadic;
  sporadic.rate_per_s = 0.0;
  EXPECT_THROW(sporadic.validate(), std::invalid_argument);
  EXPECT_STREQ(to_string(PortDiscipline::fifo), "fifo");
  EXPECT_STREQ(to_string(PortDiscipline::priority), "priority");
}

TEST_F(OnlineFixture, RunLengthAndSchedulerCostAreValidatedAsInput) {
  // User-input errors, not internal invariants: std::invalid_argument.
  auto opt = options(policy_names::hybrid, 40.0);
  opt.iterations = 0;
  EXPECT_THROW(run_online_simulation(opt, sampler), std::invalid_argument);
  opt.iterations = 5;
  opt.scheduler_cost = -1;
  EXPECT_THROW(run_online_simulation(opt, sampler), std::invalid_argument);
}

TEST_F(OnlineFixture, DeadlineOptionsAreValidated) {
  auto opt = options(policy_names::hybrid, 40.0);
  opt.deadline_scale = -1.0;
  EXPECT_THROW(run_online_simulation(opt, sampler), std::invalid_argument);
  opt.deadline_scale = 0.0;
  opt.preempt = true;  // preemption without deadlines is meaningless
  EXPECT_THROW(run_online_simulation(opt, sampler), std::invalid_argument);
  opt.preempt = false;
  opt.deadline_scale = 2.0;
  opt.high_criticality_fraction = 1.5;
  EXPECT_THROW(run_online_simulation(opt, sampler), std::invalid_argument);
}

TEST_F(OnlineFixture, DeadlineAccountingIsObservationalForArrivalPolicies) {
  // For a policy with arrival admission urgency (every pre-existing one),
  // turning deadlines on must not change a single scheduling decision:
  // the kernel only adds per-instance accounting. Spans, loads and every
  // best-effort metric stay bit-identical; the deadline block fills in.
  auto off = options(policy_names::hybrid, 60.0);
  auto on = off;
  on.deadline_scale = 2.0;
  const auto r_off = run_online_simulation(off, sampler);
  const auto r_on = run_online_simulation(on, sampler);
  EXPECT_EQ(r_off.spans, r_on.spans);
  EXPECT_EQ(r_off.sim.loads, r_on.sim.loads);
  EXPECT_EQ(r_off.sim.total_actual, r_on.sim.total_actual);
  EXPECT_EQ(r_off.horizon, r_on.horizon);
  EXPECT_EQ(r_off.mean_queueing_ms, r_on.mean_queueing_ms);

  EXPECT_EQ(r_off.deadline_jobs, 0);
  EXPECT_EQ(r_off.preemptions, 0);
  EXPECT_EQ(r_on.deadline_jobs, r_on.sim.instances);
  EXPECT_GT(r_on.high_crit_jobs, 0);
  EXPECT_LT(r_on.high_crit_jobs, r_on.deadline_jobs);
  EXPECT_GE(r_on.deadline_misses, r_on.high_crit_misses);
  if (r_on.deadline_jobs > 0) {
    EXPECT_NEAR(r_on.deadline_miss_pct,
                100.0 * static_cast<double>(r_on.deadline_misses) /
                    static_cast<double>(r_on.deadline_jobs),
                1e-9);
  }
  EXPECT_GE(r_on.max_tardiness_ms, 0.0);
}

TEST(OnlineDeadlines, SchedulableUtilizationHasZeroMissesUnderEdf) {
  // The schedulability smoke test: periodic arrivals at utilization 0.5
  // (period = 2 x ideal makespan) on a platform with zero reconfiguration
  // latency. At most one instance is ever live, spans equal the ideal
  // makespan, and with deadline = arrival + 1.0 x ideal no instance can
  // retire strictly late: edf must report zero misses.
  PlatformConfig platform = virtex2_platform(8);
  platform.reconfig_latency = 0;
  SubtaskGraph graph("rt_pipeline");
  const auto a = graph.add_subtask({"a", ms(10), Resource::drhw});
  const auto b = graph.add_subtask({"b", ms(10), Resource::drhw});
  graph.add_edge(a, b);
  graph.finalize();
  const PreparedScenario prepared =
      prepare_scenario(graph, platform.tiles, platform);
  const IterationSampler sampler = [&](Rng&) {
    return std::vector<const PreparedScenario*>{&prepared};
  };

  OnlineSimOptions opt;
  opt.platform = platform;
  opt.policy = policy_names::edf;
  opt.arrivals.kind = ArrivalProcess::Kind::periodic;
  opt.arrivals.rate_per_s = 0.0;
  opt.arrivals.period_us = 2 * prepared.ideal;
  opt.deadline_scale = 1.0;
  opt.iterations = 40;
  const auto r = run_online_simulation(opt, sampler);
  EXPECT_EQ(r.sim.instances, 40);
  EXPECT_EQ(r.deadline_jobs, 40);
  EXPECT_EQ(r.deadline_misses, 0);
  EXPECT_EQ(r.deadline_miss_pct, 0.0);
  EXPECT_EQ(r.max_tardiness_ms, 0.0);
  EXPECT_LE(r.mean_lateness_ms, 0.0);  // every job retires at or early
}

TEST_F(OnlineFixture, EdfReordersAdmissionByDeadlineUnderContention) {
  // Deadline-aware admission: under contention a later arrival with an
  // earlier absolute deadline (smaller instance, 2 x smaller ideal)
  // overtakes the queue — visible as queue skips that plain FIFO admission
  // never produces — while the run stays deterministic.
  auto opt = options(policy_names::edf, 90.0);
  opt.deadline_scale = 2.0;
  const auto r1 = run_online_simulation(opt, sampler);
  const auto r2 = run_online_simulation(opt, sampler);
  EXPECT_EQ(r1.spans, r2.spans);
  EXPECT_EQ(r1.deadline_misses, r2.deadline_misses);
  EXPECT_GT(r1.queue_skips, 0);
  EXPECT_EQ(r1.deadline_jobs, r1.sim.instances);

  // llf runs the same regime to completion, deterministically.
  auto llf_opt = opt;
  llf_opt.policy = policy_names::llf;
  const auto llf_run = run_online_simulation(llf_opt, sampler);
  EXPECT_EQ(llf_run.sim.instances, r1.sim.instances);
  EXPECT_EQ(llf_run.sim.total_ideal, r1.sim.total_ideal);
}

TEST_F(OnlineFixture, PreemptionStrictlyReducesHighCriticalityMisses) {
  // The pinned contended scenario of the acceptance criteria: a contended
  // (but not collapsed) 12-tile pool where low-criticality instances hold
  // tiles that blocked high-criticality arrivals need. Preemptive
  // checkpointing must engage (preemptions > 0) and strictly reduce the
  // high-criticality miss rate; with it off the kernel never checkpoints.
  // The rate sits near the pool's service capacity on purpose — in deep
  // overload every deadline misses regardless and preemption cannot help.
  const auto run = [&](bool preempt) {
    OnlineSimOptions opt;
    opt.platform = virtex2_platform(12);
    opt.policy = policy_names::edf;
    opt.arrivals.rate_per_s = 15.0;
    opt.deadline_scale = 3.0;
    opt.high_criticality_fraction = 0.3;
    opt.preempt = preempt;
    opt.seed = 2005;
    opt.iterations = 100;
    const auto local = make_multimedia_workload(opt.platform);
    return run_online_simulation(opt, multimedia_sampler(*local));
  };
  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(off.preemptions, 0);
  EXPECT_GT(on.preemptions, 0);
  ASSERT_GT(off.high_crit_jobs, 0);
  EXPECT_EQ(on.high_crit_jobs, off.high_crit_jobs);  // same stream, same draw
  EXPECT_LT(on.high_crit_miss_pct, off.high_crit_miss_pct);
  // Reruns of the preemptive configuration stay bit-identical.
  const auto again = run(true);
  EXPECT_EQ(on.spans, again.spans);
  EXPECT_EQ(on.preemptions, again.preemptions);
  EXPECT_EQ(on.high_crit_misses, again.high_crit_misses);
}

/// FNV-1a over every OnlineReport field except the perf counters, the
/// per-instance span list included.
std::uint64_t report_digest(const OnlineReport& report) {
  return testing::fnv1a(online_report_to_json(report));
}

TEST_F(OnlineFixture, ContentionSweepReportsMatchPinnedDigests) {
  // Every report field pinned across policies, rates, arrival processes
  // and contention knobs. The digests were recorded where a binary heap
  // with the whole arrival stream pushed up front produced bit-identical
  // reports to the calendar queue with streamed arrivals, so they witness
  // the kernel's pop order, not just a rerun of it.
  const std::uint64_t expected[] = {
      0x8585f57ce47145faULL, 0xa16ed2b45edc1269ULL, 0xf7a106cac1ed49f9ULL,
      0x971cfaa482188452ULL, 0xabc30dce588834ccULL, 0x119f3b39e7f21ff6ULL,
      0xca87546194ec4824ULL, 0x26435eed15ba3e27ULL, 0x597a12a602dbe821ULL,
      0xe8491eae5676517dULL, 0x7727c622986f2824ULL, 0xdc11b78262d71785ULL,
      0xdadce1bdc9c0ec97ULL, 0x4cf5b251ec647ab4ULL, 0xc35b993528c7fcc6ULL,
      0xff153278b0e943f2ULL, 0xb899225577e7b074ULL, 0x7149fee1e00f65f5ULL,
      0x0ad12b0f90f7dcb2ULL, 0x5a7284918ad26f3fULL, 0x562cdd1d12dafac9ULL,
      0xa9e910cacecd139cULL, 0xbb1bb3275b406ec0ULL, 0x110f565ba5425e87ULL,
      0xa8e9469672444a1bULL, 0xe432fd8f35f9fd1dULL, 0xc83d0ea975517075ULL,
      0x9cbd5554ff77d955ULL, 0x5b52016bc9883852ULL, 0x107bd15c1cecdfb1ULL,
      0x00e46acbca4665a0ULL, 0x3abb7401774dda15ULL, 0x9dc791c0fa268651ULL,
      0x4314e55181ab6a40ULL, 0xf83c1054e98e3de6ULL, 0x3e3339f5cfa03b64ULL,
  };
  std::size_t row = 0;
  for (const char* policy :
       {policy_names::no_prefetch, policy_names::runtime_intertask,
        policy_names::hybrid}) {
    for (const std::uint64_t seed : {3ull, 11ull, 2005ull}) {
      for (const double rate : {30.0, 120.0}) {
        for (const ArrivalProcess::Kind kind :
             {ArrivalProcess::Kind::poisson, ArrivalProcess::Kind::bursty}) {
          OnlineSimOptions opt = options(policy, rate);
          opt.seed = seed;
          opt.iterations = 80;
          opt.arrivals.kind = kind;
          opt.arrivals.burst_size = 4;
          // Non-default knobs widen the handler coverage: a second port,
          // shared contended ISPs, and a nonzero scheduling cost.
          opt.platform.reconfig_ports = seed % 2 == 1 ? 2 : 1;
          opt.shared_isps = rate > 100.0;
          opt.scheduler_cost = seed == 2005 ? 70 : 0;
          const auto report = run_online_simulation(opt, sampler);
          ASSERT_LT(row, std::size(expected));
          EXPECT_EQ(report_digest(report), expected[row++])
              << policy << " seed " << seed << " rate " << rate << " "
              << to_string(kind);
        }
      }
    }
  }
  EXPECT_EQ(row, std::size(expected));
}

TEST_F(OnlineFixture, EqualTimestampCollisionsMatchPinnedDigest) {
  // Zero-gap bursts drop whole batches of arrivals on one microsecond, and
  // the multimedia tasks' equal load/exec latencies pile load-done,
  // exec-done and sched-done events onto the same instants. The kernel
  // order (time, kind, job, subtask, seq) is total, so the drain order of
  // such ties is fixed; the digest was recorded where the heap and the
  // calendar queue matched span for span.
  OnlineSimOptions opt = options(policy_names::hybrid, 200.0);
  opt.iterations = 120;
  opt.arrivals.kind = ArrivalProcess::Kind::bursty;
  opt.arrivals.burst_size = 8;
  opt.arrivals.intra_burst_gap = 0;  // all 8 arrivals share one timestamp
  const auto report = run_online_simulation(opt, sampler);
  ASSERT_EQ(report.spans.size(), 379u);
  EXPECT_EQ(report_digest(report), 0x40f811c8babbfddcULL);
  // The scenario really does produce simultaneous arrivals: with bursts of
  // 8 at rate 200/s the backlog must exceed what staggered arrivals reach.
  EXPECT_GT(report.mean_queueing_ms, 0.0);
}

}  // namespace
}  // namespace drhw
