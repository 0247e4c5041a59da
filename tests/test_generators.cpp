// Parameterized property tests for the random task-graph generators used by
// the scalability benchmarks and the property suites.

#include <gtest/gtest.h>

#include "fixtures.hpp"
#include "graph/generators.hpp"

namespace drhw {
namespace {

using testing::make_chain_graph;
using testing::make_fork_join_graph;

class LayeredGraphTest : public ::testing::TestWithParam<int> {};

TEST_P(LayeredGraphTest, SizeAndBounds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  LayeredGraphParams params;
  params.subtasks = GetParam();
  params.min_exec = ms(2);
  params.max_exec = ms(9);
  const auto g = make_layered_graph(params, rng);
  EXPECT_EQ(g.size(), static_cast<std::size_t>(GetParam()));
  EXPECT_TRUE(g.finalized());
  for (std::size_t s = 0; s < g.size(); ++s) {
    const auto& node = g.subtask(static_cast<SubtaskId>(s));
    EXPECT_GE(node.exec_time, ms(2));
    EXPECT_LE(node.exec_time, ms(9));
  }
}

TEST_P(LayeredGraphTest, EveryNonSourceHasPredecessor) {
  Rng rng(99 + static_cast<std::uint64_t>(GetParam()));
  LayeredGraphParams params;
  params.subtasks = GetParam();
  const auto g = make_layered_graph(params, rng);
  // Layer 0 nodes are sources; everything else must be connected backwards.
  std::size_t sources = g.sources().size();
  EXPECT_GE(sources, 1u);
  EXPECT_LE(sources, static_cast<std::size_t>(params.max_layer_width));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LayeredGraphTest,
                         ::testing::Values(1, 2, 7, 14, 50, 200));

TEST(Generators, LayeredDeterministicPerSeed) {
  LayeredGraphParams params;
  params.subtasks = 30;
  Rng a(5), b(5);
  const auto g1 = make_layered_graph(params, a);
  const auto g2 = make_layered_graph(params, b);
  ASSERT_EQ(g1.size(), g2.size());
  for (std::size_t s = 0; s < g1.size(); ++s) {
    EXPECT_EQ(g1.subtask(static_cast<SubtaskId>(s)).exec_time,
              g2.subtask(static_cast<SubtaskId>(s)).exec_time);
    EXPECT_EQ(g1.successors(static_cast<SubtaskId>(s)),
              g2.successors(static_cast<SubtaskId>(s)));
  }
}

TEST(Generators, LayeredIspFraction) {
  LayeredGraphParams params;
  params.subtasks = 400;
  params.isp_fraction = 0.5;
  Rng rng(17);
  const auto g = make_layered_graph(params, rng);
  const double drhw_frac =
      static_cast<double>(g.drhw_count()) / static_cast<double>(g.size());
  EXPECT_NEAR(drhw_frac, 0.5, 0.1);
}

TEST(Generators, ForkJoinShape) {
  Rng rng(3);
  const auto g = make_fork_join_graph(4, 2, ms(1), ms(5), rng);
  EXPECT_EQ(g.size(), 4u * 2u + 2u);
  EXPECT_EQ(g.sources().size(), 1u);
  EXPECT_EQ(g.sinks().size(), 1u);
  // Fork has `width` successors, join has `width` predecessors.
  EXPECT_EQ(g.successors(g.sources()[0]).size(), 4u);
  EXPECT_EQ(g.predecessors(g.sinks()[0]).size(), 4u);
}

TEST(Generators, ChainShape) {
  Rng rng(4);
  const auto g = make_chain_graph(6, ms(1), ms(1), rng);
  EXPECT_EQ(g.size(), 6u);
  EXPECT_EQ(g.sources().size(), 1u);
  EXPECT_EQ(g.sinks().size(), 1u);
  for (std::size_t s = 0; s + 1 < g.size(); ++s)
    EXPECT_EQ(g.successors(static_cast<SubtaskId>(s)).size(), 1u);
}

}  // namespace
}  // namespace drhw
