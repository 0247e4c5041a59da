// Trace subsystem (src/trace): recorder round trips in both encodings,
// replay verification against the live report (the subsystem's core
// contract), encoding equivalence, forward-compat reader behaviour, and
// renderer smoke checks. The contended scenario deliberately turns on
// every accounting feature — defragmentation, shared ISPs, deadlines,
// preemptive checkpointing — so every event kind is exercised, and it is
// recorded and verified under every registered policy.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "policy/registry.hpp"
#include "sim/workloads.hpp"
#include "trace/trace.hpp"
#include "trace/trace_detail.hpp"
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
  // And every event reads back the same, field by field over the one
  // field list both encodings are written from (doubles bitwise).
  for (std::size_t i = 0; i < a.trace.events.size(); ++i) {
    const TraceEvent& jsonl = a.trace.events[i];
    const TraceEvent& binary = b.trace.events[i];
    ASSERT_EQ(jsonl.kind, binary.kind) << "event " << i;
    trace_detail::visit_event_fields(
        [&](const char* key, auto, const auto& x, const auto& y) {
          EXPECT_EQ(std::memcmp(&x, &y, sizeof(x)), 0)
              << "event " << i << " " << key << ": " << x << " vs " << y;
        },
        jsonl, binary);
    EXPECT_EQ(std::vector<PhysTileId>(jsonl.tiles,
                                      jsonl.tiles + jsonl.tile_count),
              std::vector<PhysTileId>(binary.tiles,
                                      binary.tiles + binary.tile_count))
        << "event " << i;
  }
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

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// "0a ff" -> "\x0a\xff" (spaces ignored).
std::string hex(const std::string& text) {
  std::string bytes;
  std::string digits;
  for (const char c : text) {
    if (c == ' ') continue;
    digits.push_back(c);
    if (digits.size() == 2) {
      bytes.push_back(static_cast<char>(std::stoi(digits, nullptr, 16)));
      digits.clear();
    }
  }
  return bytes;
}

/// A binary trace with a minimal header, then `records` (hex).
std::string binary_trace(const std::string& records,
                         const char* magic = "DRHWTRC2",
                         const std::string& schema = k_trace_schema) {
  const std::string header = "{\"schema\":\"" + schema + "\"}";
  std::string bytes = magic;
  trace_detail::put_le(bytes, static_cast<std::uint32_t>(header.size()));
  return bytes + header + hex(records);
}

TEST(Trace, ReaderSkipsUnknownBinaryRecordKinds) {
  const std::string path = testing::TempDir() + "/trace_fwd.bin";
  const TracedRun run = record_run(path, TraceFormat::binary);
  // Splice two records of a kind from the future after the header: each
  // opens with a presence mask and a `t` delta (+7, then -7) and carries a
  // payload this reader cannot decode. The reader skips both by their
  // frames and keeps its running time, so every event reads back.
  const std::string text = read_bytes(path);
  const std::size_t header_end =
      12 + trace_detail::get_le<std::uint32_t>(
               reinterpret_cast<const unsigned char*>(text.data()) + 8);
  const std::string spliced = text.substr(0, header_end) +
                              hex("40 05  ff01 0e ffff  41 03  00 0d 2a") +
                              text.substr(header_end);
  const std::string spliced_path = testing::TempDir() + "/trace_fwd2.bin";
  write_bytes(spliced_path, spliced);

  const TraceData trace = read_trace(spliced_path);
  ASSERT_EQ(trace.events.size(), run.trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i)
    ASSERT_EQ(trace.events[i].t, run.trace.events[i].t) << "event " << i;
  EXPECT_TRUE(verify_trace(trace).empty());

  // A skipped record's delta (+7) still moves the time the next event's
  // delta (+3) starts from.
  const std::string small_path = testing::TempDir() + "/trace_fwd3.bin";
  write_bytes(small_path, binary_trace("40 03  00 0e 2a  00 02  00 06"));
  const TraceData small = read_trace(small_path);
  ASSERT_EQ(small.events.size(), 1u);
  EXPECT_EQ(small.events[0].t, 10);
}

// Each malformed binary input is rejected with std::invalid_argument and a
// message that names what is wrong.
TEST(Trace, BinaryReaderNamesEachMalformedRecord) {
  const std::string path = testing::TempDir() + "/trace_bad.bin";
  for (const auto& [bytes, message] :
       {std::pair<std::string, const char*>{
            binary_trace("00 0b  80808080808080808080 00"),
            "varint longer than 10 bytes"},
        {binary_trace("00 0b  ffffffffffffffffff02 00"),
         "varint overflows 64 bits"},
        {binary_trace("00 04  808001 00"), "mask names a field past the list"},
        {binary_trace("00 05  00 00"), "binary record truncated"},
        {binary_trace("00 80"), "binary record frame truncated"},
        {binary_trace("00 02  01 00"), "binary event field truncated"},
        {binary_trace("00 05  8020 00 0000"), "binary event field truncated"},
        {binary_trace("00 07  01 00 8080808010"), "field out of range"},
        {binary_trace("00 04  8040 00 05"), "binary event field truncated"},
        {binary_trace("00 03  00 00 00"), "payload has trailing bytes"},
        {binary_trace("", "DRHWTRC1", "drhw-trace-v1"),
         "schema 'drhw-trace-v1' is not drhw-trace-v2"},
        {binary_trace("", "DRHWTRC7"), "magic does not match"},
        {std::string("DRHWTRC2") + hex("0a00"), "header frame truncated"},
        {std::string("DRHWTRC2") + hex("0a000000") + "{}",
         "binary header truncated"}}) {
    write_bytes(path, bytes);
    try {
      read_trace(path);
      ADD_FAILURE() << "accepted, expected: " << message;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what() << " (expected: " << message << ")";
    }
  }
}

// A 20,000-tile admit needs a payload longer than 65,535 bytes, and the
// extremes of every field type read back bit for bit: the 64-bit limits,
// k_no_time, a `t` that goes back in time by the whole range, NaN and
// -0.0.
TEST(Trace, BinaryRoundTripsLargeAdmitsAndExtremeValues) {
  constexpr std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  std::vector<PhysTileId> tiles(20000);
  for (std::size_t i = 0; i < tiles.size(); ++i)
    tiles[i] = static_cast<PhysTileId>(i * 104729 % 70001) - 35000;
  TraceEvent admit(TraceEvent::Kind::admit, 1000, 5);
  admit.tiles = tiles.data();
  admit.tile_count = static_cast<std::uint32_t>(tiles.size());
  TraceEvent low(TraceEvent::Kind::retire, 999, 6);
  low.config = lo;
  low.loads = lo;
  low.aux = lo;
  low.init = lo;
  low.deadline = k_no_time;
  low.value = std::numeric_limits<double>::quiet_NaN();
  TraceEvent high(TraceEvent::Kind::preempt, lo,
                  std::numeric_limits<std::int32_t>::min());
  high.config = hi;
  high.loads = hi;
  high.aux = hi;
  high.init = hi;
  high.unit = std::numeric_limits<std::int32_t>::max();
  high.value = -0.0;
  TraceEvent last(TraceEvent::Kind::run_end, hi);
  last.deadline = lo;
  const std::vector<TraceEvent> events = {admit, low, high, last};

  const std::string path = testing::TempDir() + "/trace_extremes.bin";
  {
    TraceRecorder recorder(path, TraceFormat::binary, OnlineSimOptions{});
    for (const TraceEvent& ev : events) recorder.record(ev);
    recorder.finish(OnlineReport{});
  }
  const TraceData trace = read_trace(path);
  ASSERT_EQ(trace.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& read = trace.events[i];
    ASSERT_EQ(read.kind, events[i].kind) << "event " << i;
    trace_detail::visit_event_fields(
        [&](const char* key, auto, const auto& x, const auto& y) {
          EXPECT_EQ(std::memcmp(&x, &y, sizeof(x)), 0)
              << "event " << i << " " << key << ": " << x << " vs " << y;
        },
        read, events[i]);
    EXPECT_EQ(std::vector<PhysTileId>(read.tiles,
                                      read.tiles + read.tile_count),
              std::vector<PhysTileId>(events[i].tiles,
                                      events[i].tiles + events[i].tile_count))
        << "event " << i;
  }
}

// Both writers omit a field by one bitwise rule, so a JSONL `val` of -0.0
// is written ("-0") and reads back with its sign.
TEST(Trace, JsonlKeepsTheSignOfANegativeZeroValue) {
  TraceEvent frag(TraceEvent::Kind::frag, 250, -1);
  frag.value = -0.0;
  const std::string path = testing::TempDir() + "/trace_negzero.jsonl";
  {
    TraceRecorder recorder(path, TraceFormat::jsonl, OnlineSimOptions{});
    recorder.record(frag);
    recorder.finish(OnlineReport{});
  }
  const TraceData trace = read_trace(path);
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].kind, TraceEvent::Kind::frag);
  EXPECT_EQ(trace.events[0].value, 0.0);
  EXPECT_TRUE(std::signbit(trace.events[0].value));
}

// Writes `lines` (one per line) as a JSONL trace and expects read_trace()
// to reject it with a message naming `key`.
void expect_jsonl_rejected(const std::string& lines, const char* key) {
  const std::string path = testing::TempDir() + "/trace_bad.jsonl";
  std::ofstream(path, std::ios::trunc) << lines;
  try {
    read_trace(path);
    ADD_FAILURE() << "accepted " << lines;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
              std::string::npos)
        << e.what();
  }
}

// Integers are read exactly from the number's text at the field's own
// width and signedness: a string, an exponent, a fraction or an
// out-of-range value is an error naming the key, never a cast double.
TEST(Trace, JsonlReaderRejectsWrongKindsAndOutOfRangeNumbers) {
  const std::string header = "{\"schema\":\"drhw-trace-v2\"}\n";
  for (const auto& [event, key] :
       {std::pair<const char*, const char*>{
            R"({"ev":"arrival","t":"5"})", "t"},
        {R"({"ev":"arrival","t":1e30})", "t"},
        {R"({"ev":"arrival","t":0,"job":2147483648})", "job"},
        {R"({"ev":"arrival","t":0,"sub":1.5})", "sub"},
        {R"({"ev":"arrival","t":0,"dl":null})", "dl"},
        {R"({"ev":"frag","t":0,"val":"x"})", "val"},
        {R"({"ev":"admit","t":0,"tiles":[1,"2"]})", "tiles"},
        {R"({"ev":"admit","t":0,"tiles":3})", "tiles"}})
    expect_jsonl_rejected(header + event + "\n", key);
  for (const auto& [fields, key] :
       {std::pair<const char*, const char*>{R"("seed":-1)", "seed"},
        {R"("seed":18446744073709551616)", "seed"},
        {R"("seed":1e30)", "seed"},
        {R"("tiles":"8")", "tiles"},
        {R"("shared_isps":1)", "shared_isps"},
        {R"("policy":3)", "policy"},
        {R"("preps":[{"ideal":-0.5}])", "ideal"}})
    expect_jsonl_rejected(
        std::string("{\"schema\":\"drhw-trace-v2\",") + fields + "}\n", key);
}

// The largest seed `online --seed` accepts reads back exactly in both
// encodings, and so does every other header field: the read header writes
// the recorded header line again.
TEST(Trace, HeaderRoundTripsTheLargestSeedInBothEncodings) {
  OnlineSimOptions options;
  options.seed = std::numeric_limits<std::uint64_t>::max();
  for (const TraceFormat format : {TraceFormat::jsonl, TraceFormat::binary}) {
    const std::string path =
        testing::TempDir() + "/trace_seed." + to_string(format);
    {
      TraceRecorder recorder(path, format, options);
      recorder.on_preps({TracePrep{"p", 1000, 2, 0.5, 3}});
      recorder.finish(OnlineReport{});
    }
    const TraceData trace = read_trace(path);
    EXPECT_EQ(trace.header.seed, std::numeric_limits<std::uint64_t>::max())
        << to_string(format);
    const std::string json = trace_detail::header_to_json(trace.header);
    EXPECT_NE(json.find("\"seed\":18446744073709551615,"), std::string::npos)
        << json;
    std::ifstream in(path, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find(json), std::string::npos) << to_string(format);
  }
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
