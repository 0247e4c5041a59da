#include "runner/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "policy/names.hpp"
#include "policy/registry.hpp"

namespace drhw {

const char* to_string(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::multimedia:
      return "multimedia";
    case WorkloadKind::pocket_gl:
      return "pocket_gl";
    case WorkloadKind::pocket_gl_frames:
      return "pocket_gl_frames";
    case WorkloadKind::synthetic:
      return "synthetic";
    case WorkloadKind::file:
      return "file";
  }
  return "?";
}

const char* to_string(ScenarioMode mode) {
  switch (mode) {
    case ScenarioMode::simulate:
      return "simulate";
    case ScenarioMode::sched_cost:
      return "sched_cost";
    case ScenarioMode::online:
      return "online";
  }
  return "?";
}

void Scenario::validate() const {
  if (name.empty()) throw std::invalid_argument("scenario without a name");
  if (family.empty())
    throw std::invalid_argument("scenario '" + name + "' without a family");
  sim.platform.validate();
  try {
    // Resolves the policy once: unknown names and bad parameters fail at
    // descriptor validation, not mid-campaign.
    PolicyRegistry::instance().create(sim.policy);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("scenario '" + name + "': " + e.what());
  }
  if (sim.iterations < 1)
    throw std::invalid_argument("scenario '" + name + "': iterations < 1");
  if (include_prob <= 0.0 || include_prob > 1.0)
    throw std::invalid_argument("scenario '" + name +
                                "': include_prob outside (0, 1]");
  if (workload == WorkloadKind::synthetic) {
    if (synthetic.tasks < 1)
      throw std::invalid_argument("scenario '" + name +
                                  "': synthetic.tasks < 1");
    if (synthetic.graph.subtasks < 1)
      throw std::invalid_argument("scenario '" + name +
                                  "': synthetic graph without subtasks");
  }
  if (workload == WorkloadKind::file && workload_file.empty())
    throw std::invalid_argument("scenario '" + name +
                                "': file workload without a workload_file");
  if (!workload_file.empty() && workload != WorkloadKind::file)
    throw std::invalid_argument("scenario '" + name +
                                "': workload_file requires the file kind");
  if (!task_filter.empty() && workload != WorkloadKind::multimedia)
    throw std::invalid_argument("scenario '" + name +
                                "': task_filter requires multimedia");
  if (exhaustive && workload != WorkloadKind::multimedia)
    throw std::invalid_argument("scenario '" + name +
                                "': exhaustive requires multimedia");
  if (mode == ScenarioMode::sched_cost && timing_calls < 1)
    throw std::invalid_argument("scenario '" + name + "': timing_calls < 1");
  if (mode == ScenarioMode::sched_cost &&
      workload != WorkloadKind::synthetic)
    throw std::invalid_argument("scenario '" + name +
                                "': sched_cost requires a synthetic workload");
  if (mode == ScenarioMode::online) {
    try {
      arrivals.validate();
      pool.validate();
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("scenario '" + name + "': " + e.what());
    }
  }
  if (scheduler_cost < 0)
    throw std::invalid_argument("scenario '" + name +
                                "': negative scheduler cost");
  if (deadline_scale < 0.0)
    throw std::invalid_argument("scenario '" + name +
                                "': negative deadline_scale");
  if (high_crit_fraction < 0.0 || high_crit_fraction > 1.0)
    throw std::invalid_argument("scenario '" + name +
                                "': high_crit_fraction outside [0, 1]");
  if (preempt && deadline_scale <= 0.0)
    throw std::invalid_argument("scenario '" + name +
                                "': preempt requires deadline_scale > 0");
  if (deadline_scale > 0.0 && mode != ScenarioMode::online)
    throw std::invalid_argument("scenario '" + name +
                                "': deadlines require online mode");
  if (shared_isps && sim.platform.isps < 1)
    throw std::invalid_argument(
        "scenario '" + name +
        "': shared-ISP contention needs a platform with >= 1 ISP");
}

void ScenarioRegistry::add(Scenario scenario) {
  scenario.validate();
  for (const Scenario& existing : scenarios_)
    if (existing.name == scenario.name)
      throw std::invalid_argument("duplicate scenario name '" +
                                  scenario.name + "'");
  scenarios_.push_back(std::move(scenario));
}

void ScenarioRegistry::add(std::vector<Scenario> scenarios) {
  for (Scenario& scenario : scenarios) add(std::move(scenario));
}

std::vector<Scenario> ScenarioRegistry::match(
    const std::string& substring) const {
  std::vector<Scenario> out;
  for (const Scenario& scenario : scenarios_)
    if (substring.empty() ||
        scenario.name.find(substring) != std::string::npos ||
        scenario.family.find(substring) != std::string::npos)
      out.push_back(scenario);
  return out;
}

namespace {

Scenario base_scenario(const std::string& name, const std::string& family,
                       int tiles, const PolicySpec& policy,
                       std::uint64_t seed, int iterations) {
  Scenario s;
  s.name = name;
  s.family = family;
  s.sim.platform = virtex2_platform(tiles);
  s.sim.policy = policy;
  s.sim.seed = seed;
  s.sim.iterations = iterations;
  return s;
}

}  // namespace

ScenarioRegistry ScenarioRegistry::builtin(int iterations,
                                           std::uint64_t seed) {
  ScenarioRegistry registry;

  // Table 1: the deterministic columns — every (task, scenario) pair once,
  // no reuse, on-demand loading vs the optimal prefetch order.
  for (const char* task :
       {"jpeg_dec", "parallel_jpeg", "mpeg_enc", "pattern_rec"}) {
    for (const char* policy :
         {policy_names::no_prefetch, policy_names::design_time}) {
      Scenario s = base_scenario(
          std::string("table1/") + task + "/" + policy, "table1",
          8, policy, seed, 1);
      s.task_filter = {task};
      s.exhaustive = true;
      registry.add(std::move(s));
    }
  }

  // Figure 6: multimedia mix under dynamic behaviour, tiles 8..16.
  for (int tiles = 8; tiles <= 16; ++tiles) {
    for (const std::string& policy : paper_policy_names()) {
      Scenario s = base_scenario("fig6/tiles" + std::to_string(tiles) + "/" +
                                     policy,
                                 "fig6", tiles, policy, seed, iterations);
      s.sim.replacement = ReplacementPolicy::lru;
      registry.add(std::move(s));
    }
  }

  // Figure 7: Pocket GL frame loop, tiles 5..10. The design-time baseline
  // sees the merged whole-frame graphs; everything else runs task by task.
  for (int tiles = 5; tiles <= 10; ++tiles) {
    for (const std::string& policy : paper_policy_names()) {
      Scenario s = base_scenario("fig7/tiles" + std::to_string(tiles) + "/" +
                                     policy,
                                 "fig7", tiles, policy, seed, iterations);
      s.workload = policy == policy_names::design_time
                       ? WorkloadKind::pocket_gl_frames
                       : WorkloadKind::pocket_gl;
      s.sim.replacement = ReplacementPolicy::critical_first;
      s.sim.cross_iteration_lookahead = true;
      s.sim.intertask_lookahead = 3;
      registry.add(std::move(s));
    }
  }

  // Application mixes: JPEG-only (both decoders compete for the same
  // configurations) and the JPEG + MPEG codec mix.
  const std::vector<std::pair<std::string, std::vector<std::string>>> mixes = {
      {"jpeg", {"jpeg_dec", "parallel_jpeg"}},
      {"jpeg_mpeg", {"jpeg_dec", "parallel_jpeg", "mpeg_enc"}},
  };
  for (const auto& [mix_name, tasks] : mixes) {
    for (const std::string& policy : paper_policy_names()) {
      Scenario s = base_scenario("mix/" + mix_name + "/" + policy,
                                 "mix", 8, policy, seed, iterations);
      s.task_filter = tasks;
      registry.add(std::move(s));
    }
  }

  // Synthetic generator mixes at three graph sizes.
  for (int subtasks : {14, 28, 56}) {
    for (const char* policy :
         {policy_names::no_prefetch, policy_names::runtime,
          policy_names::hybrid}) {
      Scenario s = base_scenario("synthetic/n" + std::to_string(subtasks) +
                                     "/" + policy,
                                 "synthetic", 8, policy, seed, iterations);
      s.workload = WorkloadKind::synthetic;
      s.synthetic.tasks = 4;
      s.synthetic.graph.subtasks = subtasks;
      s.synthetic.graph.min_layer_width = 2;
      s.synthetic.graph.max_layer_width = 6;
      s.synthetic.graph_seed = static_cast<std::uint64_t>(subtasks);
      registry.add(std::move(s));
    }
  }

  // Platform-shape sweep on the multimedia mix.
  SweepConfig sweep;
  sweep.family = "sweep";
  sweep.base = base_scenario("sweep/base", "sweep", 8, policy_names::hybrid,
                             seed, iterations);
  sweep.tiles = {8, 12, 16};
  sweep.latencies = {ms(4), us(500)};
  sweep.ports = {1, 2};
  sweep.policies = {policy_names::runtime, policy_names::hybrid};
  sweep.seeds = {seed};
  registry.add(build_sweep(sweep));

  // Online mode: Poisson arrivals contending for the tile pool and the
  // single reconfiguration port, at a moderate and a saturating rate.
  // 16 tiles keep several instances live at once (at 8 tiles the pool
  // serialises admissions and only the backlog prefetch differs).
  for (double rate : {20.0, 100.0}) {
    for (const std::string& policy : paper_policy_names()) {
      Scenario s = base_scenario(
          "online_poisson/r" + std::to_string(static_cast<int>(rate)) + "/" +
              policy,
          "online_poisson", 16, policy, seed, iterations);
      s.mode = ScenarioMode::online;
      s.arrivals.kind = ArrivalProcess::Kind::poisson;
      s.arrivals.rate_per_s = rate;
      registry.add(std::move(s));
    }
  }

  // Online mode: bursty arrivals (bursts of 4 instances back to back).
  for (const std::string& policy : paper_policy_names()) {
    Scenario s = base_scenario(
        std::string("online_burst/") + policy, "online_burst",
        16, policy, seed, iterations);
    s.mode = ScenarioMode::online;
    s.arrivals.kind = ArrivalProcess::Kind::bursty;
    s.arrivals.rate_per_s = 8.0;
    s.arrivals.burst_size = 4;
    registry.add(std::move(s));
  }

  // Online arrival-rate x tile-count sweep.
  SweepConfig online_sweep;
  online_sweep.family = "online_sweep";
  online_sweep.base = base_scenario("online_sweep/base", "online_sweep", 16,
                                    policy_names::hybrid, seed, iterations);
  online_sweep.base.mode = ScenarioMode::online;
  online_sweep.tiles = {10, 16, 24};
  online_sweep.policies = {policy_names::runtime, policy_names::hybrid};
  online_sweep.arrival_rates = {10.0, 40.0, 160.0};
  registry.add(build_sweep(online_sweep));

  // Contiguous tile pool under pressure: admission policy x defrag x
  // arrival rate x tile count. The regime the pool layer exists for — a
  // large queued instance blocks a fragmented pool under fifo_hol, and
  // backfill / reordering / defragmentation recover the lost admissions.
  SweepConfig defrag_sweep;
  defrag_sweep.family = "online_defrag";
  defrag_sweep.base = base_scenario("online_defrag/base", "online_defrag", 12,
                                    policy_names::hybrid, seed, iterations);
  defrag_sweep.base.mode = ScenarioMode::online;
  defrag_sweep.base.pool.contiguous = true;
  defrag_sweep.tiles = {10, 14};
  defrag_sweep.arrival_rates = {60.0, 160.0};
  defrag_sweep.admission_policies = {AdmissionPolicy::fifo_hol,
                                     AdmissionPolicy::backfill_bypass,
                                     AdmissionPolicy::window_reorder};
  defrag_sweep.defrag_modes = {false, true};
  registry.add(build_sweep(defrag_sweep));

  // Multi-port reconfiguration, two sweeps under one family. First the
  // port-bound contiguous+defrag multimedia regime of online_defrag at a
  // saturating rate: reconfig_ports x approach x admission policy, where
  // spare ports carry concurrent defragmentation migrations.
  SweepConfig multiport;
  multiport.family = "online_multiport";
  multiport.base = base_scenario("online_multiport/base", "online_multiport",
                                 12, policy_names::hybrid, seed, iterations);
  multiport.base.mode = ScenarioMode::online;
  multiport.base.arrivals.rate_per_s = 120.0;
  multiport.base.pool.contiguous = true;
  multiport.base.pool.defrag = true;
  multiport.ports = {1, 2, 4};
  multiport.policies = {policy_names::runtime_intertask,
                        policy_names::hybrid};
  multiport.admission_policies = {AdmissionPolicy::fifo_hol,
                                  AdmissionPolicy::window_reorder};
  registry.add(build_sweep(multiport));

  // Second, the shared-ISP contention point: synthetic graphs with an
  // ISP-mapped fraction (the paper workloads place nothing on the ISPs,
  // so they would leave the shared-ISP model idle) contending for one
  // shared ISP server while the ports axis varies. Distinct tile count
  // keeps the generated names disjoint from the first sweep.
  SweepConfig multiport_isp;
  multiport_isp.family = "online_multiport";
  multiport_isp.base =
      base_scenario("online_multiport/isp_base", "online_multiport", 16,
                    policy_names::hybrid, seed, iterations);
  multiport_isp.base.mode = ScenarioMode::online;
  multiport_isp.base.workload = WorkloadKind::synthetic;
  multiport_isp.base.synthetic.tasks = 6;
  multiport_isp.base.synthetic.graph.subtasks = 14;
  multiport_isp.base.synthetic.graph.min_layer_width = 2;
  multiport_isp.base.synthetic.graph.max_layer_width = 6;
  multiport_isp.base.synthetic.graph.min_exec = ms(1);
  multiport_isp.base.synthetic.graph.max_exec = ms(6);
  multiport_isp.base.synthetic.graph.isp_fraction = 0.25;
  multiport_isp.base.synthetic.graph_seed = seed;
  multiport_isp.base.arrivals.rate_per_s = 120.0;
  multiport_isp.base.shared_isps = true;
  multiport_isp.base.isp_discipline = PortDiscipline::priority;
  multiport_isp.ports = {1, 2, 4};
  multiport_isp.policies = {policy_names::runtime_intertask,
                            policy_names::hybrid};
  registry.add(build_sweep(multiport_isp));

  // Every *registered* prefetch policy — including extensions like
  // adaptive_hybrid and anything registered after this PR — gets one
  // contended online scenario, enumerated straight off the PolicyRegistry.
  // New policies therefore flow into the campaign engine, the CI
  // long-horizon job and the 1-vs-8-thread bit-identity test with zero
  // registry edits.
  for (const std::string& policy : PolicyRegistry::instance().names()) {
    Scenario s =
        base_scenario("online_policy/" + policy, "online_policy", 16,
                      policy, seed, iterations);
    s.mode = ScenarioMode::online;
    s.arrivals.kind = ArrivalProcess::Kind::poisson;
    s.arrivals.rate_per_s = 60.0;
    registry.add(std::move(s));
  }

  // Real-time mode: sporadic arrivals with deadlines at
  // arrival + 2 x ideal makespan, sweeping utilization (arrival rate) x
  // criticality mix over the deadline-aware policy family. A separate
  // preemption on/off pair per rate pins the checkpoint/restore machinery
  // under contention (high-criticality arrivals evict quiescent
  // low-criticality instances).
  for (double rate : {40.0, 90.0, 140.0}) {
    const std::string rate_tag = "r" + std::to_string(static_cast<int>(rate));
    for (double crit : {0.15, 0.35}) {
      const std::string crit_tag =
          "c" + std::to_string(static_cast<int>(crit * 100));
      for (const char* policy :
           {policy_names::edf, policy_names::llf, policy_names::edf_hybrid}) {
        Scenario s = base_scenario("online_deadline/" + rate_tag + "/" +
                                       crit_tag + "/" + policy,
                                   "online_deadline", 16, policy, seed,
                                   iterations);
        s.mode = ScenarioMode::online;
        s.arrivals.kind = ArrivalProcess::Kind::sporadic;
        s.arrivals.rate_per_s = rate;
        s.deadline_scale = 2.0;
        s.high_crit_fraction = crit;
        registry.add(std::move(s));
      }
    }
    for (bool preempt : {false, true}) {
      Scenario s = base_scenario(
          "online_deadline/" + rate_tag + "/preempt_" +
              (preempt ? std::string("on") : std::string("off")),
          "online_deadline", 12, policy_names::edf, seed, iterations);
      s.mode = ScenarioMode::online;
      s.arrivals.kind = ArrivalProcess::Kind::sporadic;
      s.arrivals.rate_per_s = rate;
      s.deadline_scale = 3.0;
      s.high_crit_fraction = 0.3;
      s.preempt = preempt;
      registry.add(std::move(s));
    }
  }

  // Section 4 scalability: run-time scheduler cost vs subtask count.
  for (int subtasks : {14, 28, 56, 112, 224, 448}) {
    Scenario s = base_scenario("scalability/n" + std::to_string(subtasks),
                               "scalability", 8, policy_names::hybrid, seed,
                               1);
    s.mode = ScenarioMode::sched_cost;
    s.workload = WorkloadKind::synthetic;
    s.synthetic.tasks = 1;
    s.synthetic.graph.subtasks = subtasks;
    s.synthetic.graph.min_layer_width = 2;
    s.synthetic.graph.max_layer_width = 6;
    s.synthetic.graph_seed = static_cast<std::uint64_t>(subtasks);
    s.timing_calls = subtasks <= 56 ? 200 : 50;
    registry.add(std::move(s));
  }

  return registry;
}

std::vector<Scenario> build_sweep(const SweepConfig& config) {
  const std::vector<int> tiles =
      config.tiles.empty() ? std::vector<int>{config.base.sim.platform.tiles}
                           : config.tiles;
  const std::vector<time_us> latencies =
      config.latencies.empty()
          ? std::vector<time_us>{config.base.sim.platform.reconfig_latency}
          : config.latencies;
  const std::vector<int> ports =
      config.ports.empty()
          ? std::vector<int>{config.base.sim.platform.reconfig_ports}
          : config.ports;
  const std::vector<PolicySpec> policies =
      config.policies.empty()
          ? std::vector<PolicySpec>{config.base.sim.policy}
          : config.policies;
  const std::vector<std::uint64_t> seeds =
      config.seeds.empty() ? std::vector<std::uint64_t>{config.base.sim.seed}
                           : config.seeds;
  const std::vector<double> rates =
      config.arrival_rates.empty()
          ? std::vector<double>{config.base.arrivals.rate_per_s}
          : config.arrival_rates;
  const std::vector<AdmissionPolicy> admissions =
      config.admission_policies.empty()
          ? std::vector<AdmissionPolicy>{config.base.pool.admission}
          : config.admission_policies;
  const std::vector<bool> defrag_modes =
      config.defrag_modes.empty()
          ? std::vector<bool>{config.base.pool.defrag}
          : config.defrag_modes;
  if ((!config.arrival_rates.empty() || !config.admission_policies.empty() ||
       !config.defrag_modes.empty()) &&
      config.base.mode != ScenarioMode::online)
    throw std::invalid_argument(
        "sweep '" + config.family +
        "': arrival-rate / admission / defrag axes require an online base "
        "scenario");

  std::vector<Scenario> out;
  for (int t : tiles)
    for (time_us latency : latencies)
      for (int p : ports)
        for (const PolicySpec& policy : policies)
          for (std::uint64_t seed : seeds)
            for (double rate : rates)
              for (AdmissionPolicy admission : admissions)
                for (bool defrag : defrag_modes) {
                  Scenario s = config.base;
                  s.family = config.family;
                  s.sim.platform.tiles = t;
                  s.sim.platform.reconfig_latency = latency;
                  s.sim.platform.reconfig_ports = p;
                  s.sim.policy = policy;
                  s.sim.seed = seed;
                  s.arrivals.rate_per_s = rate;
                  s.pool.admission = admission;
                  s.pool.defrag = defrag;
                  s.name = config.family + "/t" + std::to_string(t) + "/l" +
                           std::to_string(latency) + "/p" + std::to_string(p) +
                           "/" + to_string(policy) + "/s" +
                           std::to_string(seed);
                  if (!config.arrival_rates.empty()) {
                    char rate_text[32];
                    std::snprintf(rate_text, sizeof(rate_text), "%g", rate);
                    s.name += std::string("/r") + rate_text;
                  }
                  if (!config.admission_policies.empty())
                    s.name += std::string("/") + to_string(admission);
                  if (!config.defrag_modes.empty())
                    s.name += defrag ? "/defrag" : "/no-defrag";
                  s.validate();
                  out.push_back(std::move(s));
                }
  return out;
}

}  // namespace drhw
