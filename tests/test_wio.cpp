// Workload ingestion subsystem (src/wio): parser round trips and
// line/column diagnostics, canonical-writer stability, the committed
// multimedia mix file vs the in-code builder, sampler parity, the fuzz
// generator's determinism, and campaign bit-identity over a directory of
// fuzzed workloads at different thread counts, with every scenario's
// metrics pinned.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include <gtest/gtest.h>

#include "csv_rows.hpp"
#include "digest.hpp"
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

std::vector<Scenario> fuzz_campaign_scenarios(const std::string& dir) {
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
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

TEST(WorkloadFuzz, FiftyWorkloadCampaignIsThreadCountInvariant) {
  const std::string dir = ::testing::TempDir() + "/wio_fuzz_campaign";
  std::filesystem::create_directories(dir);
  const auto scenarios = fuzz_campaign_scenarios(dir);

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

/// FNV-1a over one result's deterministic metrics (names and round-trip
/// values, kernel perf counters included).
std::uint64_t metrics_digest(const ScenarioResult& result) {
  std::string text;
  char value[32];
  for (const auto& [name, v] : deterministic_metrics(result)) {
    std::snprintf(value, sizeof(value), "%.17g", v);
    text += name + "=" + value + ";";
  }
  return testing::fnv1a(text);
}

TEST(WorkloadFuzz, FiftyWorkloadCampaignMatchesPinnedDigests) {
  // Every metric of every fuzzed scenario, pinned. The digests were
  // recorded where a binary heap with the whole arrival stream pushed up
  // front matched the calendar queue on every simulated-time metric.
  const std::uint64_t expected[] = {
      0x9e119bd519140ee1ULL, 0xdb9d016c04b4145cULL, 0x9173332fe03dc66eULL,
      0x0740d14b2e025069ULL, 0x13eb00a3ab8fb311ULL, 0xaffd0b77a908e8f6ULL,
      0x3c0b3c4d2c23393fULL, 0x85187cf7ee5faa95ULL, 0x23d868f0c79900cfULL,
      0x67d89a6790525e95ULL, 0xe14881250953b539ULL, 0x0f6bd6c8429c23cdULL,
      0x30a00d3d0ddfe95cULL, 0x5f1ee616d52bff36ULL, 0x14f7d4d54531e4cbULL,
      0x815543e675b5843dULL, 0xbdbb0d9b9fe37debULL, 0xd8e2e8159c51ab99ULL,
      0xb8dd961ed3789246ULL, 0xfa5271c27508869eULL, 0xfe9a215dc2c96d18ULL,
      0xf3a828e2002b5933ULL, 0x4a13a7afac5d4dabULL, 0x0cea1595b2855332ULL,
      0xe6bac290010e3b05ULL, 0xc1bbeb987c5e639fULL, 0xab7da2c75450868bULL,
      0xc352426096705ffdULL, 0x74e0415fd03e07f4ULL, 0x3641264a7f720d6cULL,
      0xa3c5cfdabb3fd542ULL, 0x8676ff529b27ae2aULL, 0x56861e9c05276e5bULL,
      0x958ecf617d9b1ddbULL, 0x1e37cf64f90bca1eULL, 0xb84a6c50a618eee2ULL,
      0x09a0fcafbbd0db30ULL, 0x110129baf5b234b9ULL, 0x0277c0806f4f1f56ULL,
      0x646d59b501a92d03ULL, 0x3cc4bc62d9588b5cULL, 0x4225508e9e2eb86fULL,
      0xc894a188d0bfe847ULL, 0x0e3efff29358b01eULL, 0x5f8437db75630c4fULL,
      0x3e11290a6768a17eULL, 0x3c09feee655950daULL, 0x1730eaef02070f8cULL,
      0xc91bad0343efcdfcULL, 0xa33710c94636e69aULL,
  };
  const std::string dir = ::testing::TempDir() + "/wio_fuzz_digests";
  std::filesystem::create_directories(dir);
  CampaignOptions options;
  options.record_wall_time = false;
  const auto results = CampaignRunner(options).run(
      fuzz_campaign_scenarios(dir));
  ASSERT_EQ(results.size(), std::size(expected));
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].error;
    EXPECT_EQ(metrics_digest(results[i]), expected[i])
        << results[i].scenario.name;
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

TEST(WorkloadScenario, ReportRoundTripsWorkloadFile) {
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

  const auto rows = testing::csv_rows(campaign_to_csv({result}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("workload_file"), path);
}

}  // namespace
}  // namespace drhw
