// Tests for the JSON serialisation layer used by the drhw_sched tool.

#include <gtest/gtest.h>

#include "apps/multimedia.hpp"
#include "graph/generators.hpp"
#include "graph/serialization.hpp"

namespace drhw {
namespace {

void expect_graphs_equal(const SubtaskGraph& a, const SubtaskGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.name(), b.name());
  for (std::size_t s = 0; s < a.size(); ++s) {
    const auto id = static_cast<SubtaskId>(s);
    EXPECT_EQ(a.subtask(id).name, b.subtask(id).name);
    EXPECT_EQ(a.subtask(id).exec_time, b.subtask(id).exec_time);
    EXPECT_EQ(a.subtask(id).resource, b.subtask(id).resource);
    EXPECT_EQ(a.subtask(id).config, b.subtask(id).config);
    EXPECT_EQ(a.subtask(id).load_time, b.subtask(id).load_time);
    EXPECT_DOUBLE_EQ(a.subtask(id).exec_energy, b.subtask(id).exec_energy);
    EXPECT_EQ(a.successors(id), b.successors(id));
  }
}

TEST(Serialization, RoundTripBenchmarkTasks) {
  ConfigSpace cs;
  for (const auto& task : make_multimedia_taskset(cs)) {
    for (const auto& g : task.scenarios) {
      const auto round = graph_from_json(graph_to_json(g));
      expect_graphs_equal(g, round);
    }
  }
}

TEST(Serialization, RoundTripRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    LayeredGraphParams params;
    params.subtasks = 20;
    params.isp_fraction = 0.3;
    const auto g = make_layered_graph(params, rng);
    expect_graphs_equal(g, graph_from_json(graph_to_json(g)));
  }
}

TEST(Serialization, PreservesLoadTimeOverride) {
  SubtaskGraph g("hetero");
  g.add_subtask({"fast", ms(2), Resource::drhw, 7, 1.25, us(500)});
  g.finalize();
  const auto round = graph_from_json(graph_to_json(g));
  EXPECT_EQ(round.subtask(0).load_time, us(500));
  EXPECT_EQ(round.subtask(0).config, 7);
}

TEST(Serialization, EscapesSpecialCharacters) {
  SubtaskGraph g("quo\"te\\path");
  g.add_subtask({"line\nbreak", ms(1), Resource::isp, k_no_config, 0});
  g.finalize();
  const auto round = graph_from_json(graph_to_json(g));
  EXPECT_EQ(round.name(), "quo\"te\\path");
  EXPECT_EQ(round.subtask(0).name, "line\nbreak");
}

TEST(Serialization, ParserAcceptsFlexibleWhitespace) {
  const std::string json = R"({ "name" : "t" ,
    "subtasks":[ {"name":"a","exec_us":1000,"resource":"drhw",
                  "config":-1,"energy":0,"load_us":-1} ],
    "edges" : [ ] })";
  const auto g = graph_from_json(json);
  EXPECT_EQ(g.size(), 1u);
  EXPECT_EQ(g.subtask(0).exec_time, 1000);
}

TEST(Serialization, OptionalFieldsDefault) {
  const std::string json =
      R"({"name":"t","subtasks":[{"name":"a","exec_us":500,"resource":"isp"}],"edges":[]})";
  const auto g = graph_from_json(json);
  EXPECT_EQ(g.subtask(0).resource, Resource::isp);
  EXPECT_EQ(g.subtask(0).load_time, k_no_time);
  EXPECT_DOUBLE_EQ(g.subtask(0).exec_energy, 0.0);
}

TEST(Serialization, RejectsMalformedInput) {
  EXPECT_THROW(graph_from_json(""), std::invalid_argument);
  EXPECT_THROW(graph_from_json("{"), std::invalid_argument);
  EXPECT_THROW(graph_from_json(R"({"bogus": 1})"), std::invalid_argument);
  EXPECT_THROW(
      graph_from_json(
          R"({"name":"t","subtasks":[{"name":"a","exec_us":1,"resource":"gpu"}],"edges":[]})"),
      std::invalid_argument);
  // Edge referencing a missing node.
  EXPECT_THROW(
      graph_from_json(
          R"({"name":"t","subtasks":[{"name":"a","exec_us":1,"resource":"isp"}],"edges":[[0,5]]})"),
      std::invalid_argument);
  // Cycle: finalize() must reject it.
  EXPECT_THROW(
      graph_from_json(
          R"({"name":"t","subtasks":[
               {"name":"a","exec_us":1,"resource":"drhw"},
               {"name":"b","exec_us":1,"resource":"drhw"}],
              "edges":[[0,1],[1,0]]})"),
      std::invalid_argument);
  // Trailing junk after the closing brace.
  EXPECT_THROW(
      graph_from_json(
          R"({"name":"t","subtasks":[{"name":"a","exec_us":1,"resource":"isp"}],"edges":[]} x)"),
      std::invalid_argument);
  // No subtasks, from an empty array or a missing key: nothing to schedule.
  for (const char* empty : {R"({"name":"t","subtasks":[],"edges":[]})",
                            R"({"name":"t","edges":[]})"}) {
    try {
      graph_from_json(empty);
      ADD_FAILURE() << "accepted " << empty;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("no subtasks"), std::string::npos)
          << e.what();
    }
  }
  // Numbers beyond double range parse as inf and must be rejected before
  // the cast to an integer time, not escape as std::out_of_range.
  EXPECT_THROW(
      graph_from_json(
          R"({"name":"t","subtasks":[{"name":"a","exec_us":1e999,"resource":"isp"}],"edges":[]})"),
      std::invalid_argument);
  // Finite but outside the integer target's range.
  EXPECT_THROW(
      graph_from_json(
          R"({"name":"t","subtasks":[{"name":"a","config":1e12,"resource":"isp"}],"edges":[]})"),
      std::invalid_argument);
  // A field of the wrong JSON kind, and a malformed number token.
  EXPECT_THROW(
      graph_from_json(
          R"({"name":"t","subtasks":[{"name":"a","exec_us":"10","resource":"isp"}],"edges":[]})"),
      std::invalid_argument);
  EXPECT_THROW(
      graph_from_json(
          R"({"name":"t","subtasks":[{"name":"a","exec_us":1-2,"resource":"isp"}],"edges":[]})"),
      std::invalid_argument);
}

}  // namespace
}  // namespace drhw
