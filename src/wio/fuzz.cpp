#include "wio/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace drhw {

WorkloadFile fuzz_workload(const FuzzWorkloadOptions& options) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string("fuzz workload: ") + what);
  };
  if (options.tasks < 1) reject("tasks < 1");
  if (options.variants < 1) reject("variants < 1");
  if (options.configs < 1) reject("configs < 1");
  if (options.min_nodes < 1) reject("min_nodes < 1");
  if (options.max_nodes < options.min_nodes) reject("max_nodes < min_nodes");

  Rng rng(options.seed);
  WorkloadFile file;
  file.configs = options.configs;

  for (int t = 0; t < options.tasks; ++t) {
    WorkloadTask task;
    task.name = "task" + std::to_string(t);

    // Draw the task's structure once — node count, DRHW/ISP split,
    // config ids, base latencies, forward edges — then share it across
    // the variants with only latency jitter. Sharing keeps the variants
    // compatible with harmonize_replacement_values (same config ids) and
    // models the paper's per-scenario execution-time variation.
    const int nodes = static_cast<int>(
        rng.next_int(options.min_nodes, options.max_nodes));
    std::vector<bool> isp(static_cast<std::size_t>(nodes));
    std::vector<ConfigId> cfg(static_cast<std::size_t>(nodes), k_no_config);
    std::vector<time_us> base(static_cast<std::size_t>(nodes));
    std::vector<std::pair<int, int>> edges;
    for (int n = 0; n < nodes; ++n) {
      isp[static_cast<std::size_t>(n)] = rng.next_bool(options.isp_fraction);
      if (!isp[static_cast<std::size_t>(n)])
        cfg[static_cast<std::size_t>(n)] = static_cast<ConfigId>(
            rng.next_below(static_cast<std::uint64_t>(file.configs)));
      base[static_cast<std::size_t>(n)] =
          200 + static_cast<time_us>(rng.next_below(4000));
      if (n > 0) {
        // A parent edge keeps the graph connected; an optional extra
        // edge adds join structure. Both point at earlier nodes only,
        // so the graph is a DAG by construction.
        const int parent =
            static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
        edges.emplace_back(parent, n);
        if (n > 1 && rng.next_bool(0.3)) {
          const int extra =
              static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
          if (extra != parent) edges.emplace_back(extra, n);
        }
      }
    }

    double remaining = 1.0;
    for (int v = 0; v < options.variants; ++v) {
      WorkloadVariant variant;
      variant.name = "s" + std::to_string(v);
      if (v + 1 == options.variants) {
        variant.probability = remaining;
      } else {
        variant.probability =
            remaining * (0.2 + 0.6 * rng.next_double());
        remaining -= variant.probability;
      }
      for (int n = 0; n < nodes; ++n) {
        WorkloadNode node;
        node.name = "n" + std::to_string(n);
        const double jitter = 0.75 + 0.5 * rng.next_double();
        node.exec_us = std::max<time_us>(
            1, static_cast<time_us>(std::llround(
                   static_cast<double>(base[static_cast<std::size_t>(n)]) *
                   jitter)));
        node.isp = isp[static_cast<std::size_t>(n)];
        node.config = cfg[static_cast<std::size_t>(n)];
        variant.nodes.push_back(std::move(node));
      }
      for (const auto& [from, to] : edges)
        variant.edges.push_back({"n" + std::to_string(from),
                                 "n" + std::to_string(to)});
      task.variants.push_back(std::move(variant));
    }
    file.tasks.push_back(std::move(task));
  }
  return file;
}

std::string fuzz_workload_text(const FuzzWorkloadOptions& options) {
  return write_workload(fuzz_workload(options));
}

}  // namespace drhw
