// Trace subsystem (src/trace): recorder round trips in both encodings,
// replay verification against the live report (the subsystem's core
// contract), encoding equivalence, forward-compat reader behaviour, and
// renderer smoke checks. The contended scenario deliberately turns on
// every accounting feature — defragmentation, shared ISPs, deadlines,
// preemptive checkpointing — so every event kind is exercised, and it is
// recorded and verified under every registered policy.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "policy/registry.hpp"
#include "sim/workloads.hpp"
#include "trace/trace.hpp"
#include "util/json.hpp"

namespace drhw {
namespace {

// An online run contended enough to emit every event kind: bursty
// arrivals over a small tile pool with contiguous placement + defrag,
// shared ISPs, deadlines tight enough to miss, and preemption on.
OnlineSimOptions contended_options(const PlatformConfig& platform,
                                   const std::string& policy) {
  OnlineSimOptions options;
  options.platform = platform;
  options.policy = PolicySpec(policy);
  options.arrivals.kind = ArrivalProcess::Kind::bursty;
  options.arrivals.rate_per_s = 120.0;
  options.arrivals.burst_size = 4;
  options.pool.contiguous = true;
  options.pool.defrag = true;
  options.shared_isps = true;
  options.deadline_scale = 1.05;
  options.preempt = true;
  options.seed = 11;
  options.iterations = 120;
  return options;
}

struct TracedRun {
  OnlineReport live;
  TraceData trace;
};

TracedRun record_run(const std::string& path, TraceFormat format,
                     const std::string& policy = "hybrid") {
  const auto platform = virtex2_platform(4);
  const auto workload = make_multimedia_workload(platform);
  OnlineSimOptions options = contended_options(platform, policy);
  TraceRecorder recorder(path, format, options);
  options.trace = &recorder;
  const OnlineReport live =
      run_online_simulation(options, multimedia_sampler(*workload, 0.8));
  recorder.finish(live);
  return {live, read_trace(path)};
}

TEST(Trace, JsonlRoundTripVerifies) {
  const std::string path = testing::TempDir() + "/trace_roundtrip.jsonl";
  const TracedRun run = record_run(path, TraceFormat::jsonl);
  ASSERT_TRUE(run.trace.has_live);
  EXPECT_EQ(run.trace.header.schema, k_trace_schema);
  EXPECT_EQ(run.trace.header.policy, "hybrid");
  EXPECT_EQ(run.trace.header.queue_backend, "calendar");
  EXPECT_FALSE(run.trace.events.empty());
  EXPECT_EQ(run.trace.events.back().kind, TraceEvent::Kind::run_end);
  const auto mismatches = verify_trace(run.trace);
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " mismatch(es), first: " << mismatches.front();
}

TEST(Trace, BinaryRoundTripVerifies) {
  const std::string path = testing::TempDir() + "/trace_roundtrip.bin";
  const TracedRun run = record_run(path, TraceFormat::binary);
  ASSERT_TRUE(run.trace.has_live);
  const auto mismatches = verify_trace(run.trace);
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " mismatch(es), first: " << mismatches.front();
}

TEST(Trace, EveryPolicyVerifiesInBothEncodings) {
  const auto policies = PolicyRegistry::instance().names();
  ASSERT_FALSE(policies.empty());
  for (const std::string& policy : policies)
    for (const TraceFormat format : {TraceFormat::jsonl, TraceFormat::binary}) {
      const std::string path = testing::TempDir() + "/trace_policy_" +
                               policy + "." + to_string(format);
      const TracedRun run = record_run(path, format, policy);
      ASSERT_TRUE(run.trace.has_live) << policy;
      EXPECT_EQ(run.trace.header.policy, policy);
      const auto mismatches = verify_trace(run.trace);
      EXPECT_TRUE(mismatches.empty())
          << policy << " (" << to_string(format) << "): "
          << mismatches.size() << " mismatch(es), first: "
          << mismatches.front();
    }
}

TEST(Trace, ReplayRejectsEventsTheHeaderCannotExplain) {
  const std::string path = testing::TempDir() + "/trace_reject.jsonl";
  const TracedRun run = record_run(path, TraceFormat::jsonl);

  TraceData no_preps = run.trace;
  no_preps.header.preps.clear();
  EXPECT_THROW(replay_trace(no_preps), std::invalid_argument);

  TraceData bad_port = run.trace;
  const auto load = std::find_if(
      bad_port.events.begin(), bad_port.events.end(), [](const TraceEvent& ev) {
        return ev.kind == TraceEvent::Kind::load_start;
      });
  ASSERT_NE(load, bad_port.events.end());
  load->unit = bad_port.header.reconfig_ports;
  EXPECT_THROW(replay_trace(bad_port), std::invalid_argument);
}

TEST(Trace, EncodingsCarryTheSameStream) {
  const std::string jsonl_path = testing::TempDir() + "/trace_eq.jsonl";
  const std::string binary_path = testing::TempDir() + "/trace_eq.bin";
  const TracedRun a = record_run(jsonl_path, TraceFormat::jsonl);
  const TracedRun b = record_run(binary_path, TraceFormat::binary);
  ASSERT_EQ(a.trace.events.size(), b.trace.events.size());
  // Same run, two encodings: the replayed reports must agree bitwise.
  EXPECT_EQ(online_report_to_json(replay_trace(a.trace)),
            online_report_to_json(replay_trace(b.trace)));
  EXPECT_EQ(online_report_to_json(a.trace.live),
            online_report_to_json(b.trace.live));
}

std::vector<std::vector<PhysTileId>> admit_tiles(const TraceData& trace) {
  std::vector<std::vector<PhysTileId>> lists;
  for (const TraceEvent& ev : trace.events)
    if (ev.kind == TraceEvent::Kind::admit)
      lists.emplace_back(ev.tiles, ev.tiles + ev.tile_count);
  return lists;
}

// An admit event only views its tile list; a read trace keeps the lists in
// its shared tile store, so both encodings read back the same lists and a
// copy of the trace keeps them after the original is gone.
TEST(Trace, AdmitTilesReadBackInBothEncodingsAndOutliveTheOriginal) {
  const std::string jsonl_path = testing::TempDir() + "/trace_tiles.jsonl";
  const std::string binary_path = testing::TempDir() + "/trace_tiles.bin";
  const TracedRun a = record_run(jsonl_path, TraceFormat::jsonl);
  const TracedRun b = record_run(binary_path, TraceFormat::binary);
  const auto lists = admit_tiles(a.trace);
  ASSERT_FALSE(lists.empty());
  for (const auto& list : lists) {
    ASSERT_FALSE(list.empty());
    for (const PhysTileId tile : list) {
      EXPECT_GE(tile, 0);
      EXPECT_LT(tile, a.trace.header.tiles);
    }
  }
  EXPECT_EQ(admit_tiles(b.trace), lists);

  TraceData copy;
  {
    const TraceData original = read_trace(binary_path);
    copy = original;
  }
  EXPECT_EQ(admit_tiles(copy), lists);
}

TEST(Trace, ContendedRunEmitsTheFullEventVocabulary) {
  const std::string path = testing::TempDir() + "/trace_vocab.jsonl";
  const TracedRun run = record_run(path, TraceFormat::jsonl);
  bool seen[19] = {};
  for (const TraceEvent& ev : run.trace.events)
    seen[static_cast<int>(ev.kind)] = true;
  for (const TraceEvent::Kind kind :
       {TraceEvent::Kind::arrival, TraceEvent::Kind::admit,
        TraceEvent::Kind::load_start, TraceEvent::Kind::load_done,
        TraceEvent::Kind::exec_start, TraceEvent::Kind::exec_done,
        TraceEvent::Kind::retire, TraceEvent::Kind::frag,
        TraceEvent::Kind::run_end})
    EXPECT_TRUE(seen[static_cast<int>(kind)]) << to_string(kind);
}

TEST(Trace, BacklogPrefetchesAreTracedAsStartAndDoneInBothEncodings) {
  // The contended scenario above keeps its small pool busy, so the backlog
  // prefetch never finds an idle tile. A roomy pool under steady pressure
  // does prefetch for queued instances; every prefetch the report counts
  // must appear as one prefetch_start and one prefetch_done, and the replay
  // must still verify.
  const auto platform = virtex2_platform(16);
  const auto workload = make_multimedia_workload(platform);
  for (const TraceFormat format : {TraceFormat::jsonl, TraceFormat::binary}) {
    SCOPED_TRACE(to_string(format));
    const std::string path = testing::TempDir() + "/trace_prefetch." +
                             to_string(format);
    OnlineSimOptions options;
    options.platform = platform;
    options.policy = PolicySpec("hybrid");
    options.arrivals.rate_per_s = 60.0;
    options.seed = 7;
    options.iterations = 60;
    TraceRecorder recorder(path, format, options);
    options.trace = &recorder;
    const OnlineReport live =
        run_online_simulation(options, multimedia_sampler(*workload));
    recorder.finish(live);
    const TraceData trace = read_trace(path);

    long starts = 0, dones = 0;
    for (const TraceEvent& ev : trace.events) {
      starts += ev.kind == TraceEvent::Kind::prefetch_start;
      dones += ev.kind == TraceEvent::Kind::prefetch_done;
    }
    ASSERT_GT(live.sim.intertask_prefetches, 0);
    EXPECT_EQ(starts, live.sim.intertask_prefetches);
    EXPECT_EQ(dones, live.sim.intertask_prefetches);
    const auto mismatches = verify_trace(trace);
    EXPECT_TRUE(mismatches.empty())
        << mismatches.size() << " mismatch(es), first: "
        << mismatches.front();
  }
}

TEST(Trace, TruncatedTraceHasNoFooterAndVerifyThrows) {
  const std::string path = testing::TempDir() + "/trace_full.jsonl";
  record_run(path, TraceFormat::jsonl);
  // Chop the footer (the last line) off.
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const auto cut = text.rfind("\n{", text.size() - 2);
  ASSERT_NE(cut, std::string::npos);
  const std::string truncated_path = testing::TempDir() + "/trace_cut.jsonl";
  std::ofstream out(truncated_path, std::ios::trunc);
  out << text.substr(0, cut + 1);
  out.close();

  const TraceData trace = read_trace(truncated_path);
  EXPECT_FALSE(trace.has_live);
  EXPECT_FALSE(trace.events.empty());
  EXPECT_THROW(verify_trace(trace), std::invalid_argument);
}

TEST(Trace, ReaderSkipsUnknownJsonlEventKinds) {
  const std::string path = testing::TempDir() + "/trace_fwd.jsonl";
  const TracedRun run = record_run(path, TraceFormat::jsonl);
  // Splice a from-the-future event after the header line; the reader must
  // ignore it (extension policy: unknown kinds skip, not fail).
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const auto first_newline = text.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  std::string spliced = text.substr(0, first_newline + 1) +
                        "{\"ev\":\"quantum_teleport\",\"t\":1}\n" +
                        text.substr(first_newline + 1);
  const std::string spliced_path = testing::TempDir() + "/trace_fwd2.jsonl";
  std::ofstream out(spliced_path, std::ios::trunc);
  out << spliced;
  out.close();

  const TraceData trace = read_trace(spliced_path);
  EXPECT_EQ(trace.events.size(), run.trace.events.size());
  EXPECT_TRUE(verify_trace(trace).empty());
}

TEST(Trace, RenderersProduceOutput) {
  const std::string path = testing::TempDir() + "/trace_render.jsonl";
  const TracedRun run = record_run(path, TraceFormat::jsonl);

  const std::string ascii = render_trace_ascii(run.trace);
  EXPECT_NE(ascii.find("P0"), std::string::npos);  // a port lane
  EXPECT_NE(ascii.find("T0"), std::string::npos);  // a tile lane
  EXPECT_NE(ascii.find('#'), std::string::npos);   // at least one load box

  const std::string svg = render_trace_svg(run.trace);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);

  // Windowed render stays well-formed.
  TraceRenderOptions window;
  window.width = 40;
  window.from = run.trace.events.back().t / 4;
  window.until = run.trace.events.back().t / 2;
  EXPECT_FALSE(render_trace_ascii(run.trace, window).empty());
}

TEST(Trace, ReportJsonRoundTripIsBitExact) {
  const std::string path = testing::TempDir() + "/trace_json.jsonl";
  const TracedRun run = record_run(path, TraceFormat::jsonl);
  const std::string json = online_report_to_json(run.live);
  EXPECT_EQ(online_report_to_json(online_report_from_json(json::parse(json))),
            json);
}

// Moves a field off its recorded value: scalars by one, vectors by one
// extra element (a size mismatch).
template <typename T>
void perturb(T& value) {
  value += 1;
}

template <typename T>
void perturb(std::vector<T>& values) {
  values.push_back(T{});
}

TEST(Trace, VerifyReportsEachPerturbedFieldByName) {
  const std::string path = testing::TempDir() + "/trace_perturb.jsonl";
  const TracedRun run = record_run(path, TraceFormat::jsonl);
  ASSERT_TRUE(verify_trace(run.trace).empty());
  std::size_t fields = 0;
  visit_report_fields([&](const char*, const auto&) { ++fields; },
                      run.trace.live);
  for (std::size_t k = 0; k < fields; ++k) {
    TraceData trace = run.trace;
    std::string name;
    std::size_t at = 0;
    visit_report_fields(
        [&](const char* field, auto& value) {
          if (at++ != k) return;
          name = field;
          perturb(value);
        },
        trace.live);
    const auto mismatches = verify_trace(trace);
    ASSERT_EQ(mismatches.size(), 1u) << name;
    const std::string named = mismatches[0].substr(0, mismatches[0].find(':'));
    EXPECT_TRUE(named == name || named == name + ".size") << mismatches[0];
  }
}

TEST(Trace, FooterReaderRejectsWrongKindsAndKeepsDefaultsForMissingKeys) {
  for (const auto& [text, key] :
       {std::pair<const char*, const char*>{R"({"horizon":"x"})", "horizon"},
        {R"({"mean_response_ms":true})", "mean_response_ms"},
        {R"({"queue_skips":1.5})", "queue_skips"},
        {R"({"spans":{}})", "spans"},
        {R"({"port_utilisation_per_port_pct":["a"]})",
         "port_utilisation_per_port_pct"},
        {R"({"sim":3})", "sim"},
        {R"({"sim":{"loads":[1]}})", "sim.loads"}}) {
    try {
      online_report_from_json(json::parse(text));
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // An older footer without most fields reads with the defaults; null is
  // the writer's spelling of a non-finite double.
  const OnlineReport report = online_report_from_json(json::parse(
      R"({"sim":{"loads":7},"horizon":5,"mean_response_ms":null})"));
  EXPECT_EQ(report.sim.loads, 7);
  EXPECT_EQ(report.horizon, 5);
  EXPECT_TRUE(std::isnan(report.mean_response_ms));
  EXPECT_EQ(report.preemptions, 0);
  EXPECT_TRUE(report.spans.empty());
}

}  // namespace
}  // namespace drhw
