#include "runner/campaign.hpp"

// Wall-time here measures the host (scenario wall_ms metrics, Section 4
// micro-timings); readings are reported, never fed to simulated state.
// drhw-lint: allow-file(wall-clock: host-side metrics only)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "prefetch/hybrid.hpp"
#include "prefetch/list_prefetch.hpp"
#include "schedule/list_scheduler.hpp"
#include "sim/workloads.hpp"
#include "util/check.hpp"

namespace drhw {

namespace {

std::shared_ptr<const SyntheticWorkload> make_synthetic_workload(
    const Scenario& scenario) {
  auto workload = std::make_shared<SyntheticWorkload>();
  workload->graphs.reserve(static_cast<std::size_t>(scenario.synthetic.tasks));
  for (int t = 0; t < scenario.synthetic.tasks; ++t) {
    Rng rng(scenario.synthetic.graph_seed +
            static_cast<std::uint64_t>(t) * 0x9e3779b97f4a7c15ULL);
    workload->graphs.push_back(
        make_layered_graph(scenario.synthetic.graph, rng));
  }
  for (const SubtaskGraph& graph : workload->graphs)
    workload->prepared.push_back(
        prepare_scenario(graph, scenario.sim.platform.tiles,
                         scenario.sim.platform, scenario.design));
  return workload;
}

/// The kind a workload is cached under: both Pocket GL kinds read one
/// prepared renderer.
WorkloadKind cached_kind(WorkloadKind kind) {
  return kind == WorkloadKind::pocket_gl_frames ? WorkloadKind::pocket_gl
                                                : kind;
}

}  // namespace

std::string WorkloadCache::key(const Scenario& scenario) {
  std::ostringstream key;
  key << std::hexfloat << to_string(cached_kind(scenario.workload));
  const auto field = [&key](const auto& value) { key << '/' << value; };
  const PlatformConfig& p = scenario.sim.platform;
  field(p.tiles);
  field(p.reconfig_latency);
  field(p.reconfig_ports);
  field(p.isps);
  field(p.reconfig_energy);
  field(scenario.design.bnb_load_threshold);
  switch (scenario.workload) {
    case WorkloadKind::multimedia:
      for (const std::string& task : scenario.task_filter) field(task);
      break;
    case WorkloadKind::pocket_gl:
    case WorkloadKind::pocket_gl_frames:
      break;
    case WorkloadKind::synthetic: {
      const SyntheticParams& g = scenario.synthetic;
      field(g.tasks);
      field(g.graph_seed);
      field(g.graph.subtasks);
      field(g.graph.min_layer_width);
      field(g.graph.max_layer_width);
      field(g.graph.min_exec);
      field(g.graph.max_exec);
      field(g.graph.edge_density);
      field(g.graph.isp_fraction);
      break;
    }
    case WorkloadKind::file:
      field(scenario.workload_file);
      break;
  }
  return key.str();
}

template <typename T, typename Build>
std::shared_ptr<const T> WorkloadCache::lookup(const Scenario& scenario,
                                               WorkloadKind kind,
                                               Build build) {
  if (cached_kind(scenario.workload) != kind)
    throw std::invalid_argument(
        "scenario '" + scenario.name + "' reads a " +
        to_string(scenario.workload) + " workload, not " + to_string(kind));
  const std::string key = WorkloadCache::key(scenario);
  std::promise<std::shared_ptr<const void>> promise;
  std::shared_future<std::shared_ptr<const void>> future;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = workloads_.find(key);
    if (it != workloads_.end()) {
      future = it->second;
    } else {
      future = promise.get_future().share();
      workloads_.emplace(key, future);
      builder = true;
    }
  }
  if (builder) {
    try {
      promise.set_value(build());
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  return std::static_pointer_cast<const T>(future.get());
}

std::shared_ptr<const MultimediaWorkload> WorkloadCache::multimedia(
    const Scenario& scenario) {
  return lookup<MultimediaWorkload>(
      scenario, WorkloadKind::multimedia, [&scenario] {
        return std::shared_ptr<const MultimediaWorkload>(
            make_multimedia_workload(scenario.sim.platform, scenario.design,
                                     scenario.task_filter));
      });
}

std::shared_ptr<const PocketGlWorkload> WorkloadCache::pocket_gl(
    const Scenario& scenario) {
  return lookup<PocketGlWorkload>(
      scenario, WorkloadKind::pocket_gl, [&scenario] {
        return std::shared_ptr<const PocketGlWorkload>(
            make_pocket_gl_workload(scenario.sim.platform, scenario.design));
      });
}

std::shared_ptr<const SyntheticWorkload> WorkloadCache::synthetic(
    const Scenario& scenario) {
  return lookup<SyntheticWorkload>(
      scenario, WorkloadKind::synthetic,
      [&scenario] { return make_synthetic_workload(scenario); });
}

std::shared_ptr<const FileWorkload> WorkloadCache::file(
    const Scenario& scenario) {
  return lookup<FileWorkload>(scenario, WorkloadKind::file, [&scenario] {
    return std::shared_ptr<const FileWorkload>(build_file_workload(
        load_workload_file(scenario.workload_file), scenario.sim.platform,
        scenario.design));
  });
}

namespace {

/// Random mix over single-scenario tasks, mirroring multimedia_sampler:
/// shuffle the task order, include each with `include_prob`, at least one.
IterationSampler synthetic_sampler(const SyntheticWorkload& workload,
                                   double include_prob) {
  const SyntheticWorkload* w = &workload;
  return [w, include_prob](Rng& rng) {
    std::vector<std::size_t> order(w->prepared.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    rng.shuffle(order);
    std::vector<const PreparedScenario*> instances;
    for (std::size_t t : order)
      if (rng.next_bool(include_prob)) instances.push_back(&w->prepared[t]);
    if (instances.empty())
      instances.push_back(&w->prepared[rng.pick_index(w->prepared)]);
    return instances;
  };
}

double micros_per_call(const std::function<void()>& fn, int calls) {
  fn();  // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < calls; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / calls;
}

/// Section 4 scalability measurement: cost of one run-time scheduling
/// decision for the list heuristic of ref. [7] vs the hybrid's run-time
/// phase, averaged over the scenario's graphs.
void run_sched_cost(const Scenario& scenario, WorkloadCache& cache,
                    ScenarioResult& result) {
  const auto workload = cache.synthetic(scenario);
  double list_total = 0.0;
  double hybrid_total = 0.0;
  LoadPlan plan;
  for (const PreparedScenario& prepared : workload->prepared) {
    const SubtaskGraph& graph = *prepared.graph;
    std::vector<bool> needs(graph.size(), scenario.time_all_loads);
    if (!scenario.time_all_loads)
      for (std::size_t s = 0; s < graph.size(); ++s)
        needs[s] = prepared.placement.on_drhw(static_cast<SubtaskId>(s));
    std::vector<bool> resident(graph.size(), false);
    Rng resident_rng(scenario.sim.seed);
    for (std::size_t s = 0; s < graph.size(); ++s)
      if (needs[s]) resident[s] = resident_rng.next_bool(0.3);

    list_total += micros_per_call(
        [&] {
          list_prefetch(graph, prepared.placement, scenario.sim.platform,
                        needs);
        },
        scenario.timing_calls);
    hybrid_total += micros_per_call(
        [&] {
          hybrid_decide(prepared.hybrid, resident, plan);
          volatile auto loads = plan.init_count;
          (void)loads;
        },
        scenario.timing_calls);
  }
  const auto n = static_cast<double>(workload->prepared.size());
  result.list_sched_us = list_total / n;
  result.hybrid_sched_us = hybrid_total / n;
}

}  // namespace

SampledWorkload sampled_workload(const Scenario& scenario,
                                 WorkloadCache& cache) {
  switch (scenario.workload) {
    case WorkloadKind::multimedia: {
      const auto workload = cache.multimedia(scenario);
      IterationSampler sampler =
          scenario.exhaustive ? exhaustive_sampler(*workload)
                              : multimedia_sampler(*workload,
                                                   scenario.include_prob);
      return {workload, std::move(sampler)};
    }
    case WorkloadKind::pocket_gl: {
      const auto workload = cache.pocket_gl(scenario);
      return {workload, pocket_gl_task_sampler(*workload)};
    }
    case WorkloadKind::pocket_gl_frames: {
      const auto workload = cache.pocket_gl(scenario);
      return {workload, pocket_gl_frame_sampler(*workload)};
    }
    case WorkloadKind::synthetic: {
      const auto workload = cache.synthetic(scenario);
      return {workload, synthetic_sampler(*workload, scenario.include_prob)};
    }
    case WorkloadKind::file: {
      const auto workload = cache.file(scenario);
      return {workload, file_workload_sampler(*workload)};
    }
  }
  throw std::invalid_argument("unknown workload kind");
}

namespace {

void run_simulate(const Scenario& scenario, WorkloadCache& cache,
                  ScenarioResult& result) {
  const SampledWorkload workload = sampled_workload(scenario, cache);
  result.report = run_simulation(scenario.sim, workload.sampler);
}

void run_online(const Scenario& scenario, WorkloadCache& cache,
                ScenarioResult& result) {
  const SampledWorkload workload = sampled_workload(scenario, cache);
  const OnlineSimOptions options = online_sim_options(scenario);
  OnlineReport report = run_online_simulation(options, workload.sampler);
  result.report = std::move(report.sim);
  result.mean_response_ms = report.mean_response_ms;
  result.max_response_ms = report.max_response_ms;
  result.mean_queueing_ms = report.mean_queueing_ms;
  result.max_queueing_ms = report.max_queueing_ms;
  result.port_utilisation_pct = report.port_utilisation_pct;
  result.port_utilisation_per_port_pct =
      std::move(report.port_utilisation_per_port_pct);
  result.isp_utilisation_pct = report.isp_utilisation_pct;
  result.peak_concurrent_migrations = report.peak_concurrent_migrations;
  result.horizon_ms = to_ms(report.horizon);
  result.response_p50_ms = report.response_p50_ms;
  result.response_p95_ms = report.response_p95_ms;
  result.response_p99_ms = report.response_p99_ms;
  result.frag_pct = report.mean_frag_pct;
  result.queue_skips = report.queue_skips;
  result.defrag_moves = report.defrag_moves;
  result.perf_events_total = report.perf.events_total;
  result.perf_queue_depth_max = report.perf.queue_depth_max;
  result.perf_steady_allocs = report.perf.steady_allocations();
  result.deadline_jobs = report.deadline_jobs;
  result.deadline_misses = report.deadline_misses;
  result.deadline_miss_pct = report.deadline_miss_pct;
  result.high_crit_jobs = report.high_crit_jobs;
  result.high_crit_misses = report.high_crit_misses;
  result.high_crit_miss_pct = report.high_crit_miss_pct;
  result.mean_lateness_ms = report.mean_lateness_ms;
  result.max_tardiness_ms = report.max_tardiness_ms;
  result.preemptions = report.preemptions;
}

ScenarioResult run_scenario_cached(const Scenario& scenario,
                                   bool record_wall_time,
                                   WorkloadCache& cache) {
  ScenarioResult result;
  result.scenario = scenario;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    scenario.validate();
    if (scenario.mode == ScenarioMode::sched_cost) {
      // Its results are host-clock readings: without them the scenario
      // only prepares its workload.
      if (record_wall_time)
        run_sched_cost(scenario, cache, result);
      else
        cache.synthetic(scenario);
    } else if (scenario.mode == ScenarioMode::online)
      run_online(scenario, cache, result);
    else
      run_simulate(scenario, cache, result);
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  if (record_wall_time) {
    const auto t1 = std::chrono::steady_clock::now();
    result.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
  }
  return result;
}

/// Builds a sched_cost scenario's workload into `cache` ahead of its
/// serial run. A failure is left to that run, which reports it.
void prepare_sched_cost(const Scenario& scenario, WorkloadCache& cache) {
  try {
    scenario.validate();
    cache.synthetic(scenario);
  } catch (const std::exception&) {
  }
}

}  // namespace

OnlineSimOptions online_sim_options(const Scenario& scenario) {
  OnlineSimOptions options;
  options.platform = scenario.sim.platform;
  options.policy = scenario.sim.policy;
  options.replacement = scenario.sim.replacement;
  options.arrivals = scenario.arrivals;
  options.port_discipline = scenario.port_discipline;
  options.pool = scenario.pool;
  options.scheduler_cost = scenario.scheduler_cost;
  options.shared_isps = scenario.shared_isps;
  options.isp_discipline = scenario.isp_discipline;
  options.intertask_lookahead = scenario.sim.intertask_lookahead;
  options.deadline_scale = scenario.deadline_scale;
  options.high_criticality_fraction = scenario.high_crit_fraction;
  options.preempt = scenario.preempt;
  options.record_spans = false;
  options.seed = scenario.sim.seed;
  options.iterations = scenario.sim.iterations;
  return options;
}

ScenarioResult run_scenario(const Scenario& scenario, bool record_wall_time,
                            WorkloadCache* cache) {
  if (cache) return run_scenario_cached(scenario, record_wall_time, *cache);
  WorkloadCache local;
  return run_scenario_cached(scenario, record_wall_time, local);
}

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(std::move(options)) {}

std::vector<ScenarioResult> CampaignRunner::run(
    const std::vector<Scenario>& scenarios) const {
  WorkloadCache cache;
  return run(scenarios, cache);
}

std::vector<ScenarioResult> CampaignRunner::run(
    const std::vector<Scenario>& scenarios, WorkloadCache& cache) const {
  std::vector<ScenarioResult> results(scenarios.size());
  if (scenarios.empty()) return results;

  // sched_cost scenarios are wall-clock microbenchmarks; running them
  // while other scenarios compete for cores would corrupt their timings,
  // so they execute serially after the parallel phase. Only their timing
  // loops need the idle host: the parallel phase builds their workloads
  // among the leaders. It runs leaders first (see CampaignRunner): the
  // first scenario of each workload key, then every follower, each group
  // in catalogue order.
  std::vector<std::size_t> parallel_indices;
  std::vector<std::size_t> followers;
  std::vector<std::size_t> serial_indices;
  std::vector<char> build_only(scenarios.size(), 0);
  std::set<std::string> keys;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const bool serial = scenarios[i].mode == ScenarioMode::sched_cost;
    if (serial) serial_indices.push_back(i);
    if (keys.insert(WorkloadCache::key(scenarios[i])).second) {
      parallel_indices.push_back(i);
      build_only[i] = serial;
    } else if (!serial) {
      followers.push_back(i);
    }
  }
  parallel_indices.insert(parallel_indices.end(), followers.begin(),
                          followers.end());

  std::atomic<std::size_t> completed{0};
  std::mutex callback_mutex;
  const auto execute = [&](std::size_t index) {
    results[index] = run_scenario_cached(scenarios[index],
                                         options_.record_wall_time, cache);
    const std::size_t done = completed.fetch_add(1) + 1;
    if (options_.on_result) {
      std::lock_guard<std::mutex> lock(callback_mutex);
      options_.on_result(results[index], done, scenarios.size());
    }
  };

  unsigned thread_count =
      options_.threads > 0
          ? static_cast<unsigned>(options_.threads)
          : std::max(1u, std::thread::hardware_concurrency());
  thread_count = std::min<unsigned>(
      thread_count, static_cast<unsigned>(parallel_indices.size()));

  // Work queue: a shared atomic cursor over the index array. Results are
  // written to the slot matching the scenario index, so the output order —
  // and, because every scenario seeds its own RNGs from the descriptor,
  // every simulation metric — is independent of the interleaving.
  std::atomic<std::size_t> cursor{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t at = cursor.fetch_add(1);
      if (at >= parallel_indices.size()) return;
      const std::size_t index = parallel_indices[at];
      if (build_only[index])
        prepare_sched_cost(scenarios[index], cache);
      else
        execute(index);
    }
  };

  if (thread_count <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(thread_count);
    for (unsigned t = 0; t < thread_count; ++t) pool.emplace_back(worker);
    for (std::thread& thread : pool) thread.join();
  }

  for (std::size_t index : serial_indices) execute(index);
  return results;
}

}  // namespace drhw
