#include "wio/workload_build.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>

namespace drhw {

namespace {

/// Workload-file node names come from text; graph labels should stay
/// single-token so the round-trip through write_workload is stable.
std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (c == ' ' || c == '\t') c = '_';
  return out;
}

}  // namespace

std::unique_ptr<FileWorkload> build_file_workload(
    const WorkloadFile& file, const PlatformConfig& platform,
    const HybridDesignOptions& design) {
  auto workload = std::make_unique<FileWorkload>();
  workload->has_arrivals = file.has_arrivals;
  workload->arrivals = file.arrivals;

  // Auto-assigned configuration ids live above both the declared shared
  // space and every explicit id, and are drawn from one file-global
  // counter: per-graph assignment (finalize's fallback) would alias
  // distinct subtasks of different tasks onto one bitstream id.
  ConfigId next_auto = std::max(file.configs, 0);
  for (const WorkloadTask& task : file.tasks)
    for (const WorkloadVariant& variant : task.variants)
      for (const WorkloadNode& node : variant.nodes)
        next_auto = std::max(next_auto, node.config + 1);

  // Build every graph before preparing any: PreparedScenario keeps
  // pointers into `graphs`, which therefore must not reallocate later.
  workload->graphs.resize(file.tasks.size());
  for (std::size_t t = 0; t < file.tasks.size(); ++t) {
    const WorkloadTask& task = file.tasks[t];
    workload->task_names.push_back(task.name);
    workload->graphs[t].reserve(task.variants.size());
    for (const WorkloadVariant& variant : task.variants) {
      SubtaskGraph graph(task.name + "/" + variant.name);
      std::map<std::string, SubtaskId> ids;
      for (const WorkloadNode& node : variant.nodes) {
        Subtask subtask;
        subtask.name = node.name;
        subtask.exec_time = node.exec_us;
        subtask.resource = node.isp ? Resource::isp : Resource::drhw;
        subtask.config = node.config;
        if (!node.isp && node.config == k_no_config)
          subtask.config = next_auto++;
        subtask.exec_energy = node.energy;
        subtask.load_time = node.load_us;
        ids[node.name] = graph.add_subtask(std::move(subtask));
      }
      for (const WorkloadEdge& edge : variant.edges)
        graph.add_edge(ids.at(edge.from), ids.at(edge.to));
      graph.finalize();
      workload->graphs[t].push_back(std::move(graph));
    }
  }

  workload->prepared.resize(file.tasks.size());
  workload->probabilities.resize(file.tasks.size());
  for (std::size_t t = 0; t < file.tasks.size(); ++t) {
    const WorkloadTask& task = file.tasks[t];
    double total = 0.0;
    for (const WorkloadVariant& variant : task.variants)
      total += variant.probability;
    if (total <= 0.0)
      throw std::invalid_argument("workload task '" + task.name +
                                  "': variant probabilities sum to zero");
    for (std::size_t v = 0; v < task.variants.size(); ++v) {
      workload->probabilities[t].push_back(task.variants[v].probability /
                                           total);
      workload->prepared[t].push_back(prepare_scenario(
          workload->graphs[t][v], platform.tiles, platform, design));
      if (task.variants[v].has_rt)
        workload->prepared[t].back().rt = task.variants[v].rt;
    }
    harmonize_replacement_values(workload->prepared[t]);
  }

  // Effective per-task include probability: the mix-wide include_prob
  // scaled by the task's weight. Absent from a non-empty mix = never run.
  workload->task_include_prob.assign(file.tasks.size(),
                                     file.mix.empty() ? file.include_prob
                                                     : 0.0);
  for (const WorkloadMixEntry& entry : file.mix)
    for (std::size_t t = 0; t < file.tasks.size(); ++t)
      if (file.tasks[t].name == entry.task)
        workload->task_include_prob[t] = std::clamp(
            file.include_prob * entry.weight, 0.0, 1.0);
  return workload;
}

IterationSampler file_workload_sampler(const FileWorkload& workload) {
  const FileWorkload* w = &workload;
  // Mirrors multimedia_sampler's RNG-call structure exactly (shuffle,
  // one include draw per task in shuffled order, one variant draw per
  // included task, the at-least-one fallback) so a file with uniform
  // weight-1 mix entries reproduces the built-in mix draw-for-draw.
  return [w](Rng& rng) {
    std::vector<std::size_t> order(w->prepared.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    rng.shuffle(order);

    std::vector<const PreparedScenario*> instances;
    for (std::size_t t : order) {
      if (!rng.next_bool(w->task_include_prob[t])) continue;
      const std::size_t scenario = draw_index(w->probabilities[t], rng);
      instances.push_back(&w->prepared[t][scenario]);
    }
    if (instances.empty()) {
      const std::size_t t = rng.pick_index(w->prepared);
      const std::size_t scenario = draw_index(w->probabilities[t], rng);
      instances.push_back(&w->prepared[t][scenario]);
    }
    return instances;
  };
}

WorkloadFile workload_file_from_multimedia(const MultimediaWorkload& workload) {
  WorkloadFile file;
  // Post-finalize every DRHW subtask has a concrete config id; exporting
  // each one explicitly makes the rebuild reuse-identical to the in-code
  // workload no matter how the builder allocated the ids.
  int max_config = -1;
  for (const BenchmarkTask& task : workload.tasks)
    for (const SubtaskGraph& scenario : task.scenarios)
      for (std::size_t s = 0; s < scenario.size(); ++s)
        max_config = std::max<int>(
            max_config, scenario.subtask(static_cast<SubtaskId>(s)).config);
  file.configs = max_config + 1;

  for (const BenchmarkTask& task : workload.tasks) {
    WorkloadTask out_task;
    out_task.name = sanitize(task.name);
    for (std::size_t v = 0; v < task.scenarios.size(); ++v) {
      const SubtaskGraph& scenario = task.scenarios[v];
      WorkloadVariant variant;
      variant.name = "s" + std::to_string(v);
      variant.probability = task.scenario_probability[v];
      for (std::size_t s = 0; s < scenario.size(); ++s) {
        const Subtask& subtask = scenario.subtask(static_cast<SubtaskId>(s));
        WorkloadNode node;
        node.name = sanitize(subtask.name);
        node.exec_us = subtask.exec_time;
        node.isp = subtask.resource == Resource::isp;
        node.config = subtask.config;
        node.energy = subtask.exec_energy;
        node.load_us = subtask.load_time;
        variant.nodes.push_back(std::move(node));
      }
      for (std::size_t s = 0; s < scenario.size(); ++s)
        for (SubtaskId succ : scenario.successors(static_cast<SubtaskId>(s)))
          variant.edges.push_back(
              {variant.nodes[s].name,
               variant.nodes[static_cast<std::size_t>(succ)].name});
      out_task.variants.push_back(std::move(variant));
    }
    file.tasks.push_back(std::move(out_task));
  }
  return file;
}

}  // namespace drhw
