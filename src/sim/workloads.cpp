#include "sim/workloads.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/check.hpp"

namespace drhw {

std::size_t draw_index(const std::vector<double>& probabilities, Rng& rng) {
  DRHW_CHECK(!probabilities.empty());
  const double x = rng.next_double();
  double cumulative = 0.0;
  for (std::size_t i = 0; i < probabilities.size(); ++i) {
    cumulative += probabilities[i];
    if (x < cumulative) return i;
  }
  return probabilities.size() - 1;
}

std::unique_ptr<MultimediaWorkload> make_multimedia_workload(
    const PlatformConfig& platform, const HybridDesignOptions& options,
    const std::vector<std::string>& task_filter) {
  auto workload = std::make_unique<MultimediaWorkload>();
  workload->tasks = make_multimedia_taskset(workload->configs);
  if (!task_filter.empty()) {
    std::vector<BenchmarkTask> subset;
    for (const std::string& name : task_filter) {
      if (std::any_of(
              subset.begin(), subset.end(),
              [&](const BenchmarkTask& task) { return task.name == name; }))
        throw std::invalid_argument("duplicate multimedia task '" + name +
                                    "' in task filter");
      const auto it = std::find_if(
          workload->tasks.begin(), workload->tasks.end(),
          [&](const BenchmarkTask& task) { return task.name == name; });
      if (it == workload->tasks.end())
        throw std::invalid_argument("unknown multimedia task '" + name + "'");
      subset.push_back(std::move(*it));
      workload->tasks.erase(it);
    }
    workload->tasks = std::move(subset);
  }
  workload->prepared.resize(workload->tasks.size());
  for (std::size_t t = 0; t < workload->tasks.size(); ++t) {
    for (const SubtaskGraph& scenario : workload->tasks[t].scenarios)
      workload->prepared[t].push_back(
          prepare_scenario(scenario, platform.tiles, platform, options));
    harmonize_replacement_values(workload->prepared[t]);
  }
  return workload;
}

IterationSampler multimedia_sampler(const MultimediaWorkload& workload,
                                    double include_prob) {
  const MultimediaWorkload* w = &workload;
  return [w, include_prob](Rng& rng) {
    std::vector<std::size_t> order(w->tasks.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    rng.shuffle(order);

    std::vector<const PreparedScenario*> instances;
    for (std::size_t t : order) {
      if (!rng.next_bool(include_prob)) continue;
      const std::size_t scenario =
          draw_index(w->tasks[t].scenario_probability, rng);
      instances.push_back(&w->prepared[t][scenario]);
    }
    if (instances.empty()) {
      const std::size_t t = rng.pick_index(w->tasks);
      const std::size_t scenario =
          draw_index(w->tasks[t].scenario_probability, rng);
      instances.push_back(&w->prepared[t][scenario]);
    }
    return instances;
  };
}

IterationSampler exhaustive_sampler(const MultimediaWorkload& workload) {
  const MultimediaWorkload* w = &workload;
  return [w](Rng&) {
    std::vector<const PreparedScenario*> instances;
    for (const auto& task_scenarios : w->prepared)
      for (const PreparedScenario& prepared : task_scenarios)
        instances.push_back(&prepared);
    return instances;
  };
}

std::unique_ptr<PocketGlWorkload> make_pocket_gl_workload(
    const PlatformConfig& platform, const HybridDesignOptions& options) {
  auto workload = std::make_unique<PocketGlWorkload>();
  workload->app = make_pocket_gl(workload->configs);
  workload->prepared.resize(workload->app.tasks.size());
  for (std::size_t t = 0; t < workload->app.tasks.size(); ++t) {
    for (const SubtaskGraph& scenario : workload->app.tasks[t].scenarios)
      workload->prepared[t].push_back(
          prepare_scenario(scenario, platform.tiles, platform, options));
    harmonize_replacement_values(workload->prepared[t]);
  }
  workload->merged_frames.reserve(workload->app.combos.size());
  for (const auto& combo : workload->app.combos)
    workload->merged_frames.push_back(merge_frame(workload->app, combo));
  for (const SubtaskGraph& frame : workload->merged_frames)
    workload->prepared_frames.push_back(
        prepare_scenario(frame, platform.tiles, platform, options));
  return workload;
}

IterationSampler pocket_gl_task_sampler(const PocketGlWorkload& workload) {
  const PocketGlWorkload* w = &workload;
  return [w](Rng& rng) {
    std::vector<double> probs;
    probs.reserve(w->app.combos.size());
    for (const auto& combo : w->app.combos) probs.push_back(combo.probability);
    const std::size_t pick = draw_index(probs, rng);
    const auto& combo = w->app.combos[pick];

    std::vector<const PreparedScenario*> frame;
    for (std::size_t t = 0; t < w->app.tasks.size(); ++t)
      frame.push_back(
          &w->prepared[t][static_cast<std::size_t>(
              combo.scenario_of_task[t])]);
    return frame;
  };
}

IterationSampler pocket_gl_frame_sampler(const PocketGlWorkload& workload) {
  const PocketGlWorkload* w = &workload;
  return [w](Rng& rng) {
    std::vector<double> probs;
    probs.reserve(w->app.combos.size());
    for (const auto& combo : w->app.combos) probs.push_back(combo.probability);
    const std::size_t pick = draw_index(probs, rng);
    return std::vector<const PreparedScenario*>{&w->prepared_frames[pick]};
  };
}

}  // namespace drhw
