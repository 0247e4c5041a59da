// Workload ingestion subsystem (src/wio): parser round trips and
// line/column diagnostics, canonical-writer stability, the committed
// multimedia mix file vs the in-code builder, sampler parity, the fuzz
// generator's determinism, and campaign bit-identity over a directory of
// fuzzed workloads at different thread counts and queue backends.

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "csv_rows.hpp"
#include "policy/names.hpp"
#include "runner/campaign.hpp"
#include "runner/report.hpp"
#include "sim/workloads.hpp"
#include "util/json.hpp"
#include "wio/fuzz.hpp"
#include "wio/workload_build.hpp"
#include "wio/workload_format.hpp"

namespace drhw {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << text;
}

const char* k_small_workload =
    "drhw-workload-v1\n"
    "configs 4\n"
    "arrivals bursty\n"
    "  rate 10\n"
    "  burst 3\n"
    "end\n"
    "mix\n"
    "  include_prob 0.5\n"
    "  use alpha 1\n"
    "end\n"
    "task alpha\n"
    "  variant main 1\n"
    "    rt 9000 0 1\n"
    "    node a 1000 drhw cfg 0\n"
    "    node b 2000 drhw cfg 1 energy 2.5\n"
    "    node c 500 isp\n"
    "    edge a b\n"
    "    edge b c\n"
    "  end\n"
    "end\n";

TEST(WorkloadFormat, ParsesTheGrammar) {
  const WorkloadFile file = parse_workload(k_small_workload);
  EXPECT_EQ(file.configs, 4);
  ASSERT_TRUE(file.has_arrivals);
  EXPECT_EQ(file.arrivals.kind, ArrivalProcess::Kind::bursty);
  EXPECT_DOUBLE_EQ(file.arrivals.rate_per_s, 10.0);
  EXPECT_EQ(file.arrivals.burst_size, 3);
  EXPECT_DOUBLE_EQ(file.include_prob, 0.5);
  ASSERT_EQ(file.mix.size(), 1u);
  EXPECT_EQ(file.mix[0].task, "alpha");
  ASSERT_EQ(file.tasks.size(), 1u);
  const WorkloadTask& task = file.tasks[0];
  EXPECT_EQ(task.name, "alpha");
  ASSERT_EQ(task.variants.size(), 1u);
  const WorkloadVariant& variant = task.variants[0];
  EXPECT_TRUE(variant.has_rt);
  EXPECT_EQ(variant.rt.relative_deadline_us, 9000);
  EXPECT_EQ(variant.rt.criticality, 1);
  ASSERT_EQ(variant.nodes.size(), 3u);
  EXPECT_EQ(variant.nodes[0].config, 0);
  EXPECT_DOUBLE_EQ(variant.nodes[1].energy, 2.5);
  EXPECT_TRUE(variant.nodes[2].isp);
  EXPECT_EQ(variant.nodes[2].config, k_no_config);
  ASSERT_EQ(variant.edges.size(), 2u);
  EXPECT_EQ(variant.edges[1].from, "b");
}

TEST(WorkloadFormat, WriterIsCanonicalAndStable) {
  const WorkloadFile file = parse_workload(k_small_workload);
  const std::string once = write_workload(file);
  // write(parse(write(x))) == write(x): the canonical form is a fixed
  // point of the round trip.
  EXPECT_EQ(write_workload(parse_workload(once)), once);
}

// --- satellite: parser error paths, each with line/column ---------------

TEST(WorkloadFormat, RejectsUnknownTopLevelKey) {
  try {
    parse_workload("drhw-workload-v1\nbogus 1\n");
    FAIL() << "expected WioParseError";
  } catch (const WioParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 1);
    EXPECT_NE(std::string(e.what()).find("unknown key 'bogus'"),
              std::string::npos);
  }
}

TEST(WorkloadFormat, RejectsUnknownKeyInsideBlocks) {
  const char* text =
      "drhw-workload-v1\n"
      "task t\n"
      "  variant s 1\n"
      "    node a 100 drhw\n"
      "    frobnicate 3\n";
  try {
    parse_workload(text);
    FAIL() << "expected WioParseError";
  } catch (const WioParseError& e) {
    EXPECT_EQ(e.line(), 5);
    EXPECT_EQ(e.column(), 5);
    EXPECT_NE(std::string(e.what()).find("unknown key 'frobnicate'"),
              std::string::npos);
  }
}

TEST(WorkloadFormat, RejectsDuplicateNodeId) {
  const char* text =
      "drhw-workload-v1\n"
      "task t\n"
      "  variant s 1\n"
      "    node a 100 drhw\n"
      "    node a 200 drhw\n"
      "  end\n"
      "end\n";
  try {
    parse_workload(text);
    FAIL() << "expected WioParseError";
  } catch (const WioParseError& e) {
    EXPECT_EQ(e.line(), 5);
    EXPECT_EQ(e.column(), 10);
    EXPECT_NE(std::string(e.what()).find("duplicate node 'a'"),
              std::string::npos);
  }
}

TEST(WorkloadFormat, RejectsDanglingConfigReference) {
  // cfg used without any `configs` declaration...
  try {
    parse_workload(
        "drhw-workload-v1\n"
        "task t\n"
        "  variant s 1\n"
        "    node a 100 drhw cfg 3\n"
        "  end\n"
        "end\n");
    FAIL() << "expected WioParseError";
  } catch (const WioParseError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_NE(std::string(e.what()).find("dangling config reference"),
              std::string::npos);
  }
  // ... and cfg outside the declared space.
  try {
    parse_workload(
        "drhw-workload-v1\n"
        "configs 2\n"
        "task t\n"
        "  variant s 1\n"
        "    node a 100 drhw cfg 2\n"
        "  end\n"
        "end\n");
    FAIL() << "expected WioParseError";
  } catch (const WioParseError& e) {
    EXPECT_EQ(e.line(), 5);
    EXPECT_NE(std::string(e.what()).find("dangling config reference"),
              std::string::npos);
  }
}

TEST(WorkloadFormat, RejectsDagCycle) {
  const char* text =
      "drhw-workload-v1\n"
      "task t\n"
      "  variant s 1\n"
      "    node a 100 drhw\n"
      "    node b 100 drhw\n"
      "    edge a b\n"
      "    edge b a\n"
      "  end\n"
      "end\n";
  try {
    parse_workload(text);
    FAIL() << "expected WioParseError";
  } catch (const WioParseError& e) {
    EXPECT_EQ(e.line(), 3);  // reported at the variant opening
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos);
  }
}

TEST(WorkloadFormat, RejectsDanglingEdgeEndpoint) {
  const char* text =
      "drhw-workload-v1\n"
      "task t\n"
      "  variant s 1\n"
      "    node a 100 drhw\n"
      "    edge a z\n"
      "  end\n"
      "end\n";
  try {
    parse_workload(text);
    FAIL() << "expected WioParseError";
  } catch (const WioParseError& e) {
    EXPECT_EQ(e.line(), 5);
    EXPECT_NE(std::string(e.what()).find("unknown node 'z'"),
              std::string::npos);
  }
}

TEST(WorkloadFormat, RejectsTruncatedFile) {
  const char* text =
      "drhw-workload-v1\n"
      "task t\n"
      "  variant s 1\n"
      "    node a 100 drhw\n";
  try {
    parse_workload(text);
    FAIL() << "expected WioParseError";
  } catch (const WioParseError& e) {
    EXPECT_EQ(e.line(), 5);
    EXPECT_EQ(e.column(), 1);
    EXPECT_NE(std::string(e.what()).find("unexpected end of file"),
              std::string::npos);
  }
}

TEST(WorkloadFormat, RejectsMixReferencingUnknownTask) {
  const char* text =
      "drhw-workload-v1\n"
      "mix\n"
      "  use ghost 1\n"
      "end\n"
      "task t\n"
      "  variant s 1\n"
      "    node a 100 drhw\n"
      "  end\n"
      "end\n";
  try {
    parse_workload(text);
    FAIL() << "expected WioParseError";
  } catch (const WioParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("unknown task 'ghost'"),
              std::string::npos);
  }
}

TEST(WorkloadFormat, LoadPrefixesThePath) {
  const std::string path =
      ::testing::TempDir() + "/wio_bad_workload.dwl";
  write_file(path, "drhw-workload-v1\nbogus 1\n");
  try {
    load_workload_file(path);
    FAIL() << "expected WioParseError";
  } catch (const WioParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find(path + ":2:1:"), std::string::npos);
  }
}

// --- committed multimedia mix file vs the in-code builder ---------------

TEST(WorkloadExport, CommittedMultimediaMixMatchesTheBuilder) {
  const auto platform = virtex2_platform(8);
  const auto workload = make_multimedia_workload(platform);
  const std::string expected =
      write_workload(workload_file_from_multimedia(*workload));
  const std::string committed = read_file(
      std::string(DRHW_SOURCE_DIR) + "/examples/workloads/multimedia_mix.dwl");
  // Byte-for-byte: regenerate with the exporter if the builder changes.
  EXPECT_EQ(committed, expected);
}

TEST(WorkloadBuild, FileSamplerReproducesTheMultimediaMix) {
  const auto platform = virtex2_platform(8);
  const auto in_code = make_multimedia_workload(platform);
  const WorkloadFile exported = parse_workload(
      write_workload(workload_file_from_multimedia(*in_code)));
  const auto from_file = build_file_workload(exported, platform);

  // Same RNG-call structure + same graphs => bit-identical reports.
  for (const std::string& policy :
       {std::string(policy_names::no_prefetch),
        std::string(policy_names::hybrid)}) {
    SimOptions options;
    options.platform = platform;
    options.policy = policy;
    options.seed = 77;
    options.iterations = 300;
    const SimReport a =
        run_simulation(options, multimedia_sampler(*in_code, 0.8));
    const SimReport b =
        run_simulation(options, file_workload_sampler(*from_file));
    EXPECT_EQ(a.total_actual, b.total_actual) << policy;
    EXPECT_EQ(a.loads, b.loads) << policy;
    EXPECT_EQ(a.reused_subtasks, b.reused_subtasks) << policy;
    EXPECT_EQ(a.intertask_prefetches, b.intertask_prefetches) << policy;
    EXPECT_DOUBLE_EQ(a.overhead_pct, b.overhead_pct) << policy;
    EXPECT_DOUBLE_EQ(a.energy, b.energy) << policy;
  }
}

// --- fuzz generator ------------------------------------------------------

TEST(WorkloadFuzz, SameSeedSameBytes) {
  FuzzWorkloadOptions options;
  options.seed = 42;
  const std::string a = fuzz_workload_text(options);
  const std::string b = fuzz_workload_text(options);
  EXPECT_EQ(a, b);
  options.seed = 43;
  EXPECT_NE(fuzz_workload_text(options), a);
}

TEST(WorkloadFuzz, GeneratedWorkloadsParseAndBuild) {
  const auto platform = virtex2_platform(8);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    FuzzWorkloadOptions options;
    options.seed = seed;
    const std::string text = fuzz_workload_text(options);
    const WorkloadFile file = parse_workload(text);
    EXPECT_EQ(write_workload(file), text) << "seed " << seed;
    const auto workload = build_file_workload(file, platform);
    EXPECT_EQ(workload->prepared.size(), file.tasks.size());
  }
}

// --- satellite: fuzzed campaign determinism ------------------------------

std::vector<Scenario> fuzz_campaign_scenarios(const std::string& dir,
                                              QueueBackend backend) {
  std::vector<Scenario> scenarios;
  for (int i = 0; i < 50; ++i) {
    FuzzWorkloadOptions options;
    options.seed = 100 + static_cast<std::uint64_t>(i);
    const std::string path =
        dir + "/fuzz" + std::to_string(options.seed) + ".dwl";
    write_file(path, fuzz_workload_text(options));
    Scenario s;
    s.name = "file/fuzz" + std::to_string(options.seed) + "/hybrid";
    s.family = "file/fuzz" + std::to_string(options.seed);
    s.workload = WorkloadKind::file;
    s.workload_file = path;
    s.mode = ScenarioMode::online;
    s.sim.policy = PolicySpec{std::string(policy_names::hybrid)};
    s.sim.seed = 7;
    s.sim.iterations = 25;
    s.queue_backend = backend;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

TEST(WorkloadFuzz, FiftyWorkloadCampaignIsThreadCountInvariant) {
  const std::string dir = ::testing::TempDir() + "/wio_fuzz_campaign";
  std::filesystem::create_directories(dir);
  const auto scenarios =
      fuzz_campaign_scenarios(dir, QueueBackend::calendar);

  CampaignOptions serial_options;
  serial_options.threads = 1;
  serial_options.record_wall_time = false;
  CampaignOptions parallel_options;
  parallel_options.threads = 8;
  parallel_options.record_wall_time = false;

  const auto serial = CampaignRunner(serial_options).run(scenarios);
  const auto parallel = CampaignRunner(parallel_options).run(scenarios);
  for (const auto& result : serial) ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(campaign_to_csv(serial), campaign_to_csv(parallel));
}

TEST(WorkloadFuzz, FiftyWorkloadCampaignIsQueueBackendInvariant) {
  const std::string dir = ::testing::TempDir() + "/wio_fuzz_backends";
  std::filesystem::create_directories(dir);
  CampaignOptions options;
  options.record_wall_time = false;
  const auto calendar = CampaignRunner(options).run(
      fuzz_campaign_scenarios(dir, QueueBackend::calendar));
  const auto heap = CampaignRunner(options).run(
      fuzz_campaign_scenarios(dir, QueueBackend::heap));
  ASSERT_EQ(calendar.size(), heap.size());
  for (std::size_t i = 0; i < calendar.size(); ++i) {
    const ScenarioResult& a = calendar[i];
    const ScenarioResult& b = heap[i];
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    // Every simulated-time metric must match bit-for-bit; only the
    // descriptor (queue_backend) and the kernel perf counters may differ.
    EXPECT_EQ(a.report.total_actual, b.report.total_actual) << a.scenario.name;
    EXPECT_EQ(a.report.loads, b.report.loads) << a.scenario.name;
    EXPECT_EQ(a.report.reused_subtasks, b.report.reused_subtasks);
    EXPECT_DOUBLE_EQ(a.report.energy, b.report.energy);
    EXPECT_DOUBLE_EQ(a.mean_response_ms, b.mean_response_ms)
        << a.scenario.name;
    EXPECT_DOUBLE_EQ(a.max_response_ms, b.max_response_ms);
    EXPECT_DOUBLE_EQ(a.mean_queueing_ms, b.mean_queueing_ms);
    EXPECT_DOUBLE_EQ(a.port_utilisation_pct, b.port_utilisation_pct);
    EXPECT_DOUBLE_EQ(a.horizon_ms, b.horizon_ms);
    EXPECT_DOUBLE_EQ(a.response_p99_ms, b.response_p99_ms);
    EXPECT_DOUBLE_EQ(a.frag_pct, b.frag_pct);
    EXPECT_EQ(a.queue_skips, b.queue_skips);
  }
}

// --- registry / report integration --------------------------------------

TEST(WorkloadScenario, ValidateEnforcesFileFields) {
  Scenario s;
  s.name = "x";
  s.family = "x";
  s.workload = WorkloadKind::file;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.workload_file = "w.dwl";
  EXPECT_NO_THROW(s.validate());
  s.workload = WorkloadKind::multimedia;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(WorkloadScenario, ReportRoundTripsWorkloadFileAndQueueBackend) {
  const std::string dir = ::testing::TempDir() + "/wio_report";
  std::filesystem::create_directories(dir);
  FuzzWorkloadOptions options;
  options.seed = 5;
  const std::string path = dir + "/w.dwl";
  write_file(path, fuzz_workload_text(options));

  Scenario s;
  s.name = "file/w/hybrid";
  s.family = "file/w";
  s.workload = WorkloadKind::file;
  s.workload_file = path;
  s.mode = ScenarioMode::online;
  s.sim.policy = PolicySpec{std::string(policy_names::hybrid)};
  s.sim.iterations = 10;
  s.queue_backend = QueueBackend::heap;
  const ScenarioResult result = run_scenario(s, /*record_wall_time=*/false);
  ASSERT_TRUE(result.ok) << result.error;

  StatsAggregator aggregator;
  aggregator.add({result});
  const auto items =
      json::parse(campaign_to_json({result}, aggregator), "campaign JSON")
          .at("scenarios")
          .items;
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].at("workload").text, "file");
  EXPECT_EQ(items[0].at("workload_file").text, path);
  EXPECT_EQ(items[0].at("queue_backend").text, "heap");

  const auto rows = testing::csv_rows(campaign_to_csv({result}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("workload_file"), path);
  EXPECT_EQ(rows[0].at("queue_backend"), "heap");
}

}  // namespace
}  // namespace drhw
