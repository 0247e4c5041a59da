// Tests for the ASCII Gantt renderer used by the quickstart example.

#include <gtest/gtest.h>

#include "apps/multimedia.hpp"
#include "prefetch/load_plan.hpp"
#include "schedule/list_scheduler.hpp"
#include "sim/gantt.hpp"

namespace drhw {
namespace {

struct GanttFixture : ::testing::Test {
  void SetUp() override {
    ConfigSpace cs;
    auto task = make_jpeg_decoder(cs);
    graph = std::move(task.scenarios[0]);
    placement = list_schedule(graph, 4);
    platform = virtex2_platform(4);
  }
  SubtaskGraph graph;
  Placement placement;
  PlatformConfig platform = virtex2_platform(4);
};

TEST_F(GanttFixture, RendersPortAndTileRows) {
  const auto plan = on_demand_all(graph, placement);
  const auto r = evaluate(graph, placement, platform, plan);
  const auto text = render_gantt(graph, placement, r);
  EXPECT_NE(text.find("port"), std::string::npos);
  EXPECT_NE(text.find("tile0"), std::string::npos);
  EXPECT_NE(text.find("tile3"), std::string::npos);
  EXPECT_NE(text.find("scale"), std::string::npos);
  // Subtask labels appear.
  EXPECT_NE(text.find("idct"), std::string::npos);
}

TEST_F(GanttFixture, LoadMarkersPresentOnlyWhenLoading) {
  const LoadPlan none{LoadPolicy::explicit_order, {}};
  const auto ideal = evaluate(graph, placement, platform, none);
  auto text = render_gantt(graph, placement, ideal);
  text.erase(text.rfind("scale"));  // drop the legend line (mentions '#')
  EXPECT_EQ(text.find('#'), std::string::npos) << "no loads -> no # marks";

  const auto plan = on_demand_all(graph, placement);
  const auto loaded = evaluate(graph, placement, platform, plan);
  const auto with_loads = render_gantt(graph, placement, loaded);
  EXPECT_NE(with_loads.find('#'), std::string::npos);
}

TEST_F(GanttFixture, InitPhaseRendered) {
  LoadPlan plan{LoadPolicy::explicit_order, {0, 1, 2, 3}};
  plan.init_count = 1;
  const auto r = evaluate(graph, placement, platform, plan);
  GanttOptions options;
  options.init_loads = {0};
  const auto text = render_gantt(graph, placement, r, options);
  EXPECT_NE(text.find("I0"), std::string::npos);
}

TEST_F(GanttFixture, RowsHaveConsistentWidth) {
  const auto plan = on_demand_all(graph, placement);
  const auto r = evaluate(graph, placement, platform, plan);
  GanttOptions options;
  options.width = 60;
  const auto text = render_gantt(graph, placement, r, options);
  std::size_t first_width = 0;
  std::istringstream is(text);
  std::string line;
  int rows = 0;
  while (std::getline(is, line)) {
    if (line.find('|') == std::string::npos) continue;
    if (first_width == 0) first_width = line.size();
    EXPECT_EQ(line.size(), first_width);
    ++rows;
  }
  EXPECT_EQ(rows, 1 + placement.tiles_used);  // port + tiles
}

}  // namespace
}  // namespace drhw
