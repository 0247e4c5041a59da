#pragma once

// Shared validity oracle for evaluated schedules: every invariant the
// execution model of DESIGN.md §3 demands. Used by the evaluator unit tests
// and the randomized property suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "platform/platform.hpp"
#include "prefetch/evaluator.hpp"
#include "schedule/placement.hpp"

namespace drhw::testing {

/// Asserts all structural invariants of an evaluation result.
inline void expect_valid_schedule(const SubtaskGraph& graph,
                                  const Placement& placement,
                                  const PlatformConfig& platform,
                                  const LoadPlan& plan, const EvalResult& r) {
  const std::size_t n = graph.size();
  ASSERT_EQ(r.exec_start.size(), n);

  // Everything executed, exactly as long as its exec_time.
  for (std::size_t s = 0; s < n; ++s) {
    ASSERT_NE(r.exec_start[s], k_no_time) << "subtask " << s << " never ran";
    EXPECT_EQ(r.exec_end[s] - r.exec_start[s],
              graph.subtask(static_cast<SubtaskId>(s)).exec_time);
    EXPECT_GE(r.exec_start[s], 0);
  }

  // Precedence.
  for (std::size_t v = 0; v < n; ++v)
    for (SubtaskId s : graph.successors(static_cast<SubtaskId>(v)))
      EXPECT_GE(r.exec_start[static_cast<std::size_t>(s)], r.exec_end[v])
          << v << " -> " << s;

  // Loads: exactly the planned ones, each lasting the subtask's
  // reconfiguration latency, completing before the execution, starting
  // after the previous execution on the same tile.
  for (std::size_t s = 0; s < n; ++s) {
    if (plan.needs_load[s]) {
      ASSERT_NE(r.load_start[s], k_no_time) << "missing load for " << s;
      const time_us own =
          graph.subtask(static_cast<SubtaskId>(s)).load_time;
      EXPECT_EQ(r.load_end[s] - r.load_start[s],
                own != k_no_time ? own : platform.reconfig_latency);
      EXPECT_LE(r.load_end[s], r.exec_start[s]);
      EXPECT_GE(r.load_start[s], 0);
      const SubtaskId prev = placement.prev_on_unit(static_cast<SubtaskId>(s));
      if (prev != k_no_subtask) {
        EXPECT_GE(r.load_start[s], r.exec_end[static_cast<std::size_t>(prev)]);
      }
    } else {
      EXPECT_EQ(r.load_start[s], k_no_time);
    }
  }

  // Port capacity: at no instant may more loads be in flight than the
  // platform has reconfiguration ports (sweep over start/end events).
  std::vector<std::pair<time_us, time_us>> intervals;
  for (std::size_t s = 0; s < n; ++s)
    if (r.load_start[s] != k_no_time)
      intervals.emplace_back(r.load_start[s], r.load_end[s]);
  std::sort(intervals.begin(), intervals.end());
  std::vector<std::pair<time_us, int>> events;
  for (const auto& [a, b] : intervals) {
    events.emplace_back(a, +1);
    events.emplace_back(b, -1);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& x, const auto& y) {
              if (x.first != y.first) return x.first < y.first;
              return x.second < y.second;  // ends before starts at ties
            });
  int in_flight = 0;
  for (const auto& [t, delta] : events) {
    in_flight += delta;
    EXPECT_LE(in_flight, platform.reconfig_ports)
        << "reconfiguration port over-subscribed at t=" << t;
  }

  // Unit exclusivity: executions on a unit follow the placement order and
  // do not overlap (loads are covered by the per-subtask checks above).
  auto check_sequences = [&](const std::vector<std::vector<SubtaskId>>& seqs) {
    for (const auto& seq : seqs)
      for (std::size_t i = 1; i < seq.size(); ++i)
        EXPECT_GE(r.exec_start[static_cast<std::size_t>(seq[i])],
                  r.exec_end[static_cast<std::size_t>(seq[i - 1])]);
  };
  check_sequences(placement.tile_sequence);
  check_sequences(placement.isp_sequence);

  // Makespan is the max execution end.
  time_us expected_makespan = 0;
  for (std::size_t s = 0; s < n; ++s)
    expected_makespan = std::max(expected_makespan, r.exec_end[s]);
  EXPECT_EQ(r.makespan, expected_makespan);

  // Load order bookkeeping matches the per-subtask times.
  EXPECT_EQ(static_cast<std::size_t>(r.loads), intervals.size());
  EXPECT_EQ(r.load_order.size(), intervals.size());
}

}  // namespace drhw::testing
