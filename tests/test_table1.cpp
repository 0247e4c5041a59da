// Integration test pinning the paper's Table 1: for each reconstructed
// multimedia task, the ideal execution time, the on-demand ("Overhead")
// column and the optimal-prefetch ("Prefetch") column must match the
// published numbers. These equalities are exact by calibration; any
// scheduler regression shows up here first.

#include <gtest/gtest.h>

#include "apps/multimedia.hpp"
#include "fixtures.hpp"
#include "platform/platform.hpp"
#include "prefetch/bnb.hpp"
#include "prefetch/load_plan.hpp"
#include "schedule/list_scheduler.hpp"

namespace drhw {
namespace {

using testing::coarse_grain_platform;

struct Columns {
  time_us ideal = 0;
  time_us on_demand_delay = 0;
  time_us optimal_delay = 0;
};

Columns measure(const SubtaskGraph& graph, const PlatformConfig& platform) {
  const auto placement = list_schedule(graph, platform.tiles);
  Columns c;
  c.ideal = placement.ideal_makespan;
  const auto od =
      evaluate(graph, placement, platform, on_demand_all(graph, placement));
  c.on_demand_delay = od.makespan - c.ideal;
  std::vector<bool> all(graph.size(), false);
  for (std::size_t s = 0; s < graph.size(); ++s)
    all[s] = placement.on_drhw(static_cast<SubtaskId>(s));
  const auto opt = optimal_prefetch(graph, placement, platform, all);
  c.optimal_delay = opt.eval.makespan - c.ideal;
  return c;
}

double pct(time_us delay, time_us ideal) {
  return 100.0 * static_cast<double>(delay) / static_cast<double>(ideal);
}

TEST(Table1, PatternRecognitionRow) {
  ConfigSpace cs;
  const auto task = make_pattern_recognition(cs);
  const auto c = measure(task.scenarios[0], virtex2_platform(8));
  EXPECT_EQ(c.ideal, ms(94));               // "Ideal ex time 94 ms"
  EXPECT_EQ(c.on_demand_delay, ms(16));     // +17%
  EXPECT_EQ(c.optimal_delay, ms(4));        // +4%
  EXPECT_NEAR(pct(c.on_demand_delay, c.ideal), 17.0, 0.1);
  EXPECT_NEAR(pct(c.optimal_delay, c.ideal), 4.3, 0.1);
}

TEST(Table1, JpegDecoderRow) {
  ConfigSpace cs;
  const auto task = make_jpeg_decoder(cs);
  const auto c = measure(task.scenarios[0], virtex2_platform(8));
  EXPECT_EQ(c.ideal, ms(81));               // "Ideal ex time 81 ms"
  EXPECT_EQ(c.on_demand_delay, ms(16));     // +20%
  EXPECT_EQ(c.optimal_delay, ms(4));        // +5%
  EXPECT_NEAR(pct(c.on_demand_delay, c.ideal), 19.8, 0.1);
  EXPECT_NEAR(pct(c.optimal_delay, c.ideal), 4.9, 0.1);
}

TEST(Table1, ParallelJpegRow) {
  ConfigSpace cs;
  const auto task = make_parallel_jpeg(cs);
  const auto c = measure(task.scenarios[0], virtex2_platform(8));
  EXPECT_EQ(c.ideal, ms(57));               // "Ideal ex time 57 ms"
  EXPECT_EQ(c.on_demand_delay, ms(20));     // +35%
  EXPECT_EQ(c.optimal_delay, ms(4));        // +7%
  EXPECT_NEAR(pct(c.on_demand_delay, c.ideal), 35.1, 0.1);
  EXPECT_NEAR(pct(c.optimal_delay, c.ideal), 7.0, 0.1);
}

TEST(Table1, MpegEncoderRowIsScenarioAverage) {
  ConfigSpace cs;
  const auto task = make_mpeg_encoder(cs);
  time_us ideal_sum = 0, od_sum = 0, opt_sum = 0;
  for (const auto& g : task.scenarios) {
    const auto c = measure(g, virtex2_platform(8));
    ideal_sum += c.ideal;
    od_sum += c.on_demand_delay;
    opt_sum += c.optimal_delay;
  }
  const auto n = static_cast<time_us>(task.scenarios.size());
  EXPECT_EQ(ideal_sum / n, ms(33));         // "Ideal ex time 33 ms"
  EXPECT_NEAR(pct(od_sum, ideal_sum), 56.6, 0.2);   // "+56%"
  EXPECT_NEAR(pct(opt_sum, ideal_sum), 18.2, 0.2);  // "+18%"
}

TEST(Table1, Section5Claim75PercentOfLoadsHidden) {
  // "assuming that there was no reuse ... our heuristic was able to hide at
  // least 75% of them": check the hidden-load fraction per task under the
  // optimal prefetch (delay expressed in whole loads).
  ConfigSpace cs;
  const auto platform = virtex2_platform(8);
  for (const auto& task : make_multimedia_taskset(cs)) {
    for (const auto& g : task.scenarios) {
      const auto c = measure(g, platform);
      const double loads = static_cast<double>(g.drhw_count());
      const double exposed = static_cast<double>(c.optimal_delay) /
                             static_cast<double>(platform.reconfig_latency);
      EXPECT_GE(1.0 - exposed / loads, 0.6) << g.name();
    }
  }
}

TEST(Table1, OverheadsScaleWithReconfigurationLatency) {
  // Sanity: a coarse-grain array (0.5 ms loads) shrinks both columns.
  ConfigSpace cs;
  const auto task = make_jpeg_decoder(cs);
  const auto fine = measure(task.scenarios[0], virtex2_platform(8));
  const auto coarse =
      measure(task.scenarios[0], coarse_grain_platform(8));
  EXPECT_LT(coarse.on_demand_delay, fine.on_demand_delay);
  EXPECT_LT(coarse.optimal_delay, fine.optimal_delay);
  EXPECT_EQ(coarse.optimal_delay, us(500));  // first load only
}

}  // namespace
}  // namespace drhw
