// Unit tests for the subtask-graph model and its analysis passes
// (ASAP times, critical path, ALAP weights).

#include <gtest/gtest.h>

#include <sstream>

#include "graph/algorithms.hpp"
#include "graph/dot.hpp"
#include "graph/subtask_graph.hpp"
#include "util/time.hpp"

namespace drhw {
namespace {

SubtaskGraph diamond() {
  // a -> {b, c} -> d with exec times 10, 20, 30, 5.
  SubtaskGraph g("diamond");
  const auto a = g.add_subtask({"a", 10, Resource::drhw, k_no_config, 0});
  const auto b = g.add_subtask({"b", 20, Resource::drhw, k_no_config, 0});
  const auto c = g.add_subtask({"c", 30, Resource::drhw, k_no_config, 0});
  const auto d = g.add_subtask({"d", 5, Resource::drhw, k_no_config, 0});
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  g.finalize();
  return g;
}

TEST(SubtaskGraph, BuildAndQuery) {
  const auto g = diamond();
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.drhw_count(), 4u);
  EXPECT_EQ(g.total_exec_time(), 65);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.sources(), std::vector<SubtaskId>{0});
  EXPECT_EQ(g.sinks(), std::vector<SubtaskId>{3});
  EXPECT_EQ(g.predecessors(3).size(), 2u);
  EXPECT_EQ(g.successors(0).size(), 2u);
}

TEST(SubtaskGraph, RejectsNonPositiveExecTime) {
  SubtaskGraph g;
  EXPECT_THROW(g.add_subtask({"bad", 0, Resource::drhw, k_no_config, 0}),
               std::invalid_argument);
  EXPECT_THROW(g.add_subtask({"bad", -5, Resource::drhw, k_no_config, 0}),
               std::invalid_argument);
}

TEST(SubtaskGraph, RejectsSelfLoopAndDuplicateEdges) {
  SubtaskGraph g;
  const auto a = g.add_subtask({"a", 1, Resource::drhw, k_no_config, 0});
  const auto b = g.add_subtask({"b", 1, Resource::drhw, k_no_config, 0});
  EXPECT_THROW(g.add_edge(a, a), std::invalid_argument);
  g.add_edge(a, b);
  EXPECT_THROW(g.add_edge(a, b), std::invalid_argument);
}

TEST(SubtaskGraph, RejectsOutOfRangeIds) {
  SubtaskGraph g;
  g.add_subtask({"a", 1, Resource::drhw, k_no_config, 0});
  EXPECT_THROW(g.add_edge(0, 5), std::invalid_argument);
  EXPECT_THROW(g.subtask(-1), std::invalid_argument);
}

TEST(SubtaskGraph, DetectsCycles) {
  SubtaskGraph g;
  const auto a = g.add_subtask({"a", 1, Resource::drhw, k_no_config, 0});
  const auto b = g.add_subtask({"b", 1, Resource::drhw, k_no_config, 0});
  const auto c = g.add_subtask({"c", 1, Resource::drhw, k_no_config, 0});
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, a);
  EXPECT_THROW(g.finalize(), std::invalid_argument);
}

TEST(SubtaskGraph, FrozenAfterFinalize) {
  auto g = diamond();
  EXPECT_THROW(g.add_subtask({"x", 1, Resource::drhw, k_no_config, 0}),
               std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 3), std::invalid_argument);
}

TEST(SubtaskGraph, TopologicalOrderRespectsEdges) {
  const auto g = diamond();
  const auto& topo = g.topological_order();
  ASSERT_EQ(topo.size(), g.size());
  std::vector<int> pos(g.size());
  for (std::size_t i = 0; i < topo.size(); ++i)
    pos[static_cast<std::size_t>(topo[i])] = static_cast<int>(i);
  for (std::size_t v = 0; v < g.size(); ++v)
    for (SubtaskId s : g.successors(static_cast<SubtaskId>(v)))
      EXPECT_LT(pos[v], pos[static_cast<std::size_t>(s)]);
}

TEST(SubtaskGraph, AssignsUniqueConfigIdsOnFinalize) {
  auto g = diamond();
  std::set<ConfigId> configs;
  for (std::size_t s = 0; s < g.size(); ++s) {
    const auto c = g.subtask(static_cast<SubtaskId>(s)).config;
    EXPECT_NE(c, k_no_config);
    configs.insert(c);
  }
  EXPECT_EQ(configs.size(), g.size());
}

TEST(SubtaskGraph, IspSubtasksGetNoConfig) {
  SubtaskGraph g;
  g.add_subtask({"cpu", 10, Resource::isp, k_no_config, 0});
  g.finalize();
  EXPECT_EQ(g.subtask(0).config, k_no_config);
  EXPECT_EQ(g.drhw_count(), 0u);
}

TEST(Algorithms, AsapTimesDiamond) {
  const auto g = diamond();
  const auto asap = asap_start_times(g);
  EXPECT_EQ(asap[0], 0);
  EXPECT_EQ(asap[1], 10);
  EXPECT_EQ(asap[2], 10);
  EXPECT_EQ(asap[3], 40);  // through the longer branch c
}

TEST(Algorithms, CriticalPathDiamond) {
  EXPECT_EQ(critical_path_length(diamond()), 45);  // a + c + d
}

TEST(Algorithms, WeightsAreAlapLongestPathToEnd) {
  const auto g = diamond();
  const auto w = subtask_weights(g);
  EXPECT_EQ(w[3], 5);
  EXPECT_EQ(w[1], 25);
  EXPECT_EQ(w[2], 35);
  EXPECT_EQ(w[0], 45);  // == critical path length at the source
}

TEST(Algorithms, WeightsMonotoneAlongEdges) {
  const auto g = diamond();
  const auto w = subtask_weights(g);
  for (std::size_t v = 0; v < g.size(); ++v)
    for (SubtaskId s : g.successors(static_cast<SubtaskId>(v)))
      EXPECT_GE(w[v], g.subtask(static_cast<SubtaskId>(v)).exec_time +
                          w[static_cast<std::size_t>(s)]);
}

TEST(Dot, EmitsAllNodesAndEdges) {
  const auto g = diamond();
  std::ostringstream os;
  write_dot(os, g);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  for (const char* name : {"a", "b", "c", "d"})
    EXPECT_NE(dot.find(name), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n2 -> n3"), std::string::npos);
}

}  // namespace
}  // namespace drhw
