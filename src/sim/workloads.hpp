#pragma once

/// \file workloads.hpp
/// Prebuilt workloads for the paper's two experiments: the 4-task
/// multimedia set (Table 1 / Figure 6) and the Pocket GL renderer
/// (Figure 7). Each workload owns the graphs and the design-time
/// preparation results and exposes iteration samplers for run_simulation().

#include <memory>
#include <vector>

#include "apps/multimedia.hpp"
#include "apps/pocket_gl.hpp"
#include "sim/system_sim.hpp"

namespace drhw {

/// The 4 multimedia tasks prepared for one platform.
struct MultimediaWorkload {
  ConfigSpace configs;
  std::vector<BenchmarkTask> tasks;
  /// prepared[task][scenario], indices matching tasks[task].scenarios.
  std::vector<std::vector<PreparedScenario>> prepared;
};

/// Builds graphs and runs the design-time flow for `platform`.
/// `task_filter` restricts the set to the named tasks (jpeg_dec,
/// parallel_jpeg, mpeg_enc, pattern_rec) in filter order; empty keeps all
/// four. Throws std::invalid_argument on an unknown task name.
std::unique_ptr<MultimediaWorkload> make_multimedia_workload(
    const PlatformConfig& platform, const HybridDesignOptions& options = {},
    const std::vector<std::string>& task_filter = {});

/// Sampler modelling Section 7: "the applications executed during each
/// iteration vary randomly" — every iteration includes each task with
/// probability `include_prob` (at least one), shuffles the order, and draws
/// each included task's scenario from its scenario distribution.
IterationSampler multimedia_sampler(const MultimediaWorkload& workload,
                                    double include_prob = 0.8);

/// Deterministic sampler: every iteration emits each (task, scenario) pair
/// exactly once in declaration order. With one iteration and a reuse-free
/// approach this reproduces the deterministic Table 1 columns.
IterationSampler exhaustive_sampler(const MultimediaWorkload& workload);

/// The Pocket GL renderer prepared for one platform.
struct PocketGlWorkload {
  ConfigSpace configs;
  PocketGl app;
  /// prepared[task][scenario] for the per-task execution modes.
  std::vector<std::vector<PreparedScenario>> prepared;
  /// Merged whole-frame graphs (one per inter-task scenario) and their
  /// preparation, used by the frame-wide design-time prefetch baseline.
  std::vector<SubtaskGraph> merged_frames;
  std::vector<PreparedScenario> prepared_frames;
};

std::unique_ptr<PocketGlWorkload> make_pocket_gl_workload(
    const PlatformConfig& platform, const HybridDesignOptions& options = {});

/// One frame per iteration: draws an inter-task scenario and emits the six
/// tasks in pipeline order (for the run-time and hybrid approaches).
IterationSampler pocket_gl_task_sampler(const PocketGlWorkload& workload);

/// One merged frame graph per iteration (for the no-prefetch and
/// design-time baselines).
IterationSampler pocket_gl_frame_sampler(const PocketGlWorkload& workload);

/// Draws an index from a discrete distribution (used by the samplers and
/// exposed for tests).
std::size_t draw_index(const std::vector<double>& probabilities, Rng& rng);

}  // namespace drhw
