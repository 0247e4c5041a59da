// Golden-number regression test: pins the seeded Table 1 and Figure 6
// campaign outputs (exact doubles) so that refactors of the simulator,
// the workloads or the campaign engine cannot silently shift the
// paper-reproduction results. Every quantity below is deterministic by
// construction (integer simulated time, descriptor-seeded RNGs, fixed
// aggregation order), so the comparison is exact, not approximate.
//
// If a change legitimately alters these numbers (e.g. a modelling fix),
// regenerate them with the seeded campaign below and update the tables —
// and say so loudly in the commit message.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runner/campaign.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"

namespace drhw {
namespace {

constexpr int k_iterations = 60;
constexpr std::uint64_t k_seed = 2005;

std::vector<ScenarioResult> run_family(const std::string& family) {
  const auto registry = ScenarioRegistry::builtin(k_iterations, k_seed);
  CampaignOptions options;
  options.record_wall_time = false;
  return CampaignRunner(options).run(registry.match(family));
}

TEST(GoldenCampaign, Table1ColumnsAreExactlyPinned) {
  // name -> {makespan_ms, overhead_pct}. The deterministic Table 1 columns:
  // every (task, scenario) pair once, on-demand vs optimal prefetch.
  const std::map<std::string, std::array<double, 2>> golden = {
      {"table1/jpeg_dec/no-prefetch", {97, 19.753086419753085}},
      {"table1/jpeg_dec/design-time", {85, 4.9382716049382713}},
      {"table1/parallel_jpeg/no-prefetch", {77, 35.087719298245617}},
      {"table1/parallel_jpeg/design-time", {61, 7.0175438596491224}},
      {"table1/mpeg_enc/no-prefetch", {155, 56.565656565656568}},
      {"table1/mpeg_enc/design-time", {117, 18.181818181818183}},
      {"table1/pattern_rec/no-prefetch", {110, 17.021276595744681}},
      {"table1/pattern_rec/design-time", {98, 4.2553191489361701}},
  };
  const auto results = run_family("table1");
  ASSERT_EQ(results.size(), golden.size());
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok) << result.scenario.name << ": " << result.error;
    const auto it = golden.find(result.scenario.name);
    ASSERT_NE(it, golden.end()) << result.scenario.name;
    const auto metrics = deterministic_metrics(result);
    EXPECT_EQ(metrics.at("makespan_ms"), it->second[0])
        << result.scenario.name;
    EXPECT_EQ(metrics.at("overhead_pct"), it->second[1])
        << result.scenario.name;
  }
}

TEST(GoldenCampaign, Fig6ApproachMeansAreExactlyPinned) {
  // approach -> {mean makespan_ms, mean overhead_pct, mean reuse_pct} over
  // the tiles 8..16 grid, seeded multimedia mix, 60 iterations.
  const std::map<std::string, std::array<double, 3>> golden = {
      {"design-time", {13981, 6.8638691431628853, 0}},
      {"hybrid", {13273.666666666666, 1.4573619710056307, 41.571720712824998}},
      {"no-prefetch", {16583, 26.752273943285182, 0}},
      {"run-time", {13819.555555555555, 5.629867427620237,
                    27.948193592365374}},
      {"run-time+inter-task", {13225.333333333334, 1.0879258070269304,
                               64.319797448631817}},
  };
  const auto results = run_family("fig6");
  ASSERT_EQ(results.size(), 45u);  // tiles 8..16 x five approaches

  std::map<std::string, std::array<double, 4>> acc;  // sums + count
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok) << result.scenario.name << ": " << result.error;
    const auto metrics = deterministic_metrics(result);
    auto& a = acc[result.scenario.sim.policy.name];
    a[0] += metrics.at("makespan_ms");
    a[1] += metrics.at("overhead_pct");
    a[2] += metrics.at("reuse_pct");
    a[3] += 1.0;
  }
  ASSERT_EQ(acc.size(), golden.size());
  for (const auto& [approach, expected] : golden) {
    const auto it = acc.find(approach);
    ASSERT_NE(it, acc.end()) << approach;
    const auto& a = it->second;
    EXPECT_EQ(a[3], 9.0) << approach;  // one scenario per tile count
    EXPECT_EQ(a[0] / a[3], expected[0]) << approach << " makespan";
    EXPECT_EQ(a[1] / a[3], expected[1]) << approach << " overhead";
    EXPECT_EQ(a[2] / a[3], expected[2]) << approach << " reuse";
  }
}

TEST(GoldenCampaign, OnlinePoissonHybridIsExactlyPinned) {
  // Online results are regression-locked like Table 1 / Fig 6: the seeded
  // moderate-rate Poisson run of the hybrid approach (16 tiles, 1 port,
  // FIFO head-of-line admission) pins the simulated-time response mean and
  // the port utilisation exactly. Everything underneath is deterministic
  // (pre-drawn arrival gaps, integer simulated time, event-ordered
  // accounting), so a refactor of the kernel, the pool layer or the
  // campaign engine that shifts these doubles by one ULP is a behaviour
  // change, not noise.
  const auto results = run_family("online_poisson");
  bool found = false;
  for (const auto& result : results) {
    if (result.scenario.name != "online_poisson/r20/hybrid") continue;
    found = true;
    ASSERT_TRUE(result.ok) << result.error;
    const auto metrics = deterministic_metrics(result);
    EXPECT_EQ(metrics.at("response_ms"), 91.67269191919192);
    EXPECT_EQ(metrics.at("port_util_pct"), 34.3564425708599);
    // The default pool must stay the PR 2 head-of-line model.
    EXPECT_EQ(result.scenario.pool.admission, AdmissionPolicy::fifo_hol);
    EXPECT_EQ(metrics.at("queue_skips"), 0.0);
    EXPECT_EQ(metrics.at("defrag_moves"), 0.0);
  }
  EXPECT_TRUE(found);
}

/// What the design-time searches of one prepared workload produced.
struct DesignWitness {
  std::uint64_t graphs = 0;
  std::uint64_t searches = 0;  ///< design-order B&B searches
  std::uint64_t nodes = 0;     ///< their nodes_explored, summed
  std::uint64_t cs_nodes = 0;  ///< HybridSchedule::bnb_nodes, summed
  std::uint64_t cs_passes = 0;
  std::uint64_t budget_hits = 0;
  /// FNV-1a over every search's order and every hybrid schedule's
  /// critical set and stored order.
  std::uint64_t digest = 14695981039346656037ULL;

  void fold(std::int64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (static_cast<std::uint64_t>(word) >> (8 * byte)) & 0xffU;
      digest *= 1099511628211ULL;
    }
  }
  void fold(const std::vector<SubtaskId>& ids) {
    fold(static_cast<std::int64_t>(ids.size()));
    for (SubtaskId id : ids) fold(id);
  }

  void add(const PreparedScenario& p, const HybridDesignOptions& design) {
    ++graphs;
    int loads = 0;
    for (std::size_t s = 0; s < p.graph->size(); ++s)
      loads += p.placement.on_drhw(static_cast<SubtaskId>(s));
    if (loads <= design.bnb_load_threshold) {
      ++searches;
      nodes += p.design_bnb_nodes;
      budget_hits += static_cast<std::uint64_t>(p.design_bnb_budget_hits);
      fold(p.design_order);
    }
    cs_nodes += p.hybrid.bnb_nodes;
    cs_passes += static_cast<std::uint64_t>(p.hybrid.loop_iterations);
    budget_hits += static_cast<std::uint64_t>(p.hybrid.bnb_budget_hits);
    fold(p.hybrid.critical);
    fold(p.hybrid.stored_order);
  }
};

/// The witness over every distinct workload the scenarios matching `filter`
/// prepare, in catalogue order.
DesignWitness design_witness(const std::string& filter) {
  const auto registry = ScenarioRegistry::builtin(k_iterations, k_seed);
  WorkloadCache cache;
  std::vector<std::shared_ptr<const void>> seen;
  DesignWitness witness;
  for (const Scenario& s : registry.match(filter)) {
    std::shared_ptr<const void> owner;
    std::vector<const PreparedScenario*> preps;
    auto add_tasks =
        [&](const std::vector<std::vector<PreparedScenario>>& prepared) {
          for (const auto& task : prepared)
            for (const PreparedScenario& p : task) preps.push_back(&p);
        };
    switch (s.workload) {
      case WorkloadKind::multimedia: {
        const auto w = cache.multimedia(s);
        add_tasks(w->prepared);
        owner = w;
        break;
      }
      case WorkloadKind::pocket_gl:
      case WorkloadKind::pocket_gl_frames: {
        const auto w = cache.pocket_gl(s);
        add_tasks(w->prepared);
        for (const PreparedScenario& p : w->prepared_frames)
          preps.push_back(&p);
        owner = w;
        break;
      }
      case WorkloadKind::synthetic: {
        const auto w = cache.synthetic(s);
        for (const PreparedScenario& p : w->prepared) preps.push_back(&p);
        owner = w;
        break;
      }
      case WorkloadKind::file:
        ADD_FAILURE() << "no file workloads in the built-in catalogue";
        break;
    }
    if (!owner || std::find(seen.begin(), seen.end(), owner) != seen.end())
      continue;
    seen.push_back(owner);
    for (const PreparedScenario* p : preps) witness.add(*p, s.design);
  }
  return witness;
}

void expect_witness(const std::string& filter, const DesignWitness& expected) {
  SCOPED_TRACE(filter);
  const DesignWitness got = design_witness(filter);
  EXPECT_EQ(got.graphs, expected.graphs);
  EXPECT_EQ(got.searches, expected.searches);
  EXPECT_EQ(got.nodes, expected.nodes);
  EXPECT_EQ(got.cs_nodes, expected.cs_nodes);
  EXPECT_EQ(got.cs_passes, expected.cs_passes);
  EXPECT_EQ(got.budget_hits, 0u);
  EXPECT_EQ(got.digest, expected.digest);
}

TEST(GoldenCampaign, DesignTimeSearchIsExactlyPinned) {
  // Exactness witness for the branch & bound: the node counts and orders
  // of every design-time search behind three built-in workloads. The
  // digests prove that no schedule moved: they were pinned before the
  // search switched to the incremental prefix bound, and held when the
  // port-capacity completion bound cut the node counts. The node counts
  // pin the pruning itself; a change that moves them must keep every
  // digest, search and pass count.
  DesignWitness table1;
  table1.graphs = 6;
  table1.searches = 6;
  table1.nodes = 118;
  table1.cs_nodes = 224;
  table1.cs_passes = 15;
  table1.digest = 0xdc2b845014a6232bULL;
  expect_witness("table1", table1);

  DesignWitness fig7;
  fig7.graphs = 60;
  fig7.searches = 40;
  fig7.nodes = 162;
  fig7.cs_nodes = 2931;
  fig7.cs_passes = 182;
  fig7.digest = 0x649b414c1e7025c7ULL;
  expect_witness("fig7/tiles10/", fig7);

  // The longest single preparation of the catalogue without the completion
  // bound (3.5 M search nodes): six 14-subtask synthetic graphs (graph seed
  // 2005).
  DesignWitness multiport;
  multiport.graphs = 6;
  multiport.searches = 1;
  multiport.nodes = 49;
  multiport.cs_nodes = 980;
  multiport.cs_passes = 49;
  multiport.digest = 0x0e680655a44f8eadULL;
  expect_witness("online_multiport/t16/l4000/p1/", multiport);
}

}  // namespace
}  // namespace drhw
