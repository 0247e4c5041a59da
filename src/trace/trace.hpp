#pragma once

/// \file trace.hpp
/// Structured event traces of online runs — schema `drhw-trace-v2`.
///
/// A trace is the full observable history of one online simulation: a
/// header (platform constants, policy, per-preparation retire constants), a
/// stream of timed events — the events the kernel and the tile pool fold
/// into their report (sim/trace_hook.hpp) — and a footer carrying the live
/// OnlineReport. Two encodings share the schema: JSONL (one object per
/// line — greppable, diffable, the bless format) and a compact binary for
/// long runs: length-framed records whose payload carries only the fields
/// off their defaults, as varints, with `t` delta-coded (trace_detail.hpp).
/// The reader sniffs the magic, so every consumer takes either.
///
/// The subsystem's contract is *replay verification*: replay_trace()
/// re-derives the entire OnlineReport from the event stream alone, by
/// feeding the recorded events to a fresh OnlineAccounting — the same fold
/// (sim/online_accounting.hpp) that produced the live report — and
/// verify_trace() demands bit-identity against the recorded live report.
/// The kernel has no other way to reach its report, so every accounting
/// input is an event by construction; what verification still catches is a
/// stream damaged between recording and replay (a dropped, reordered or
/// altered event, a lossy encoding) and a footer that does not match. The
/// one exclusion is OnlineReport::perf: wall-clock phase timers and
/// queue-internal counters are not simulation state and are not serialised.
///
/// Extension policy: a field is one line in its list in trace_detail.hpp
/// (visit_event_fields(), visit_header_fields(), visit_prep_fields()), which
/// both encodings' writers and readers loop over. Adding event kinds, header
/// fields or JSONL keys is backward-compatible — readers ignore unknown
/// JSONL keys and skip unknown framed binary records (a record of any kind
/// but the footer opens with the presence mask and the `t` delta, so a
/// skipped event still advances the reader's running time). A new event
/// field takes a new binary mask bit, which a reader of the older schema
/// rejects, so it bumps the schema id, as removing or renaming an event
/// field, or changing an emission site, does. A header key may be dropped
/// without a bump: the header reader (read_object() in trace_detail.hpp)
/// leaves a missing key at its default and skips unknown ones, so readers
/// on either side of the drop read both kinds of header.
/// Rendering: render_trace_ascii()/render_trace_svg() draw a per-port +
/// per-tile (+ ISP) timeline — `drhw_sched trace render`.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_sim.hpp"
#include "sim/trace_hook.hpp"

namespace drhw {

namespace json {
struct Value;  // util/json.hpp
}  // namespace json

inline constexpr const char* k_trace_schema = "drhw-trace-v2";

enum class TraceFormat { jsonl, binary };

const char* to_string(TraceFormat format);
TraceFormat trace_format_from_string(const std::string& text);

const char* to_string(TraceEvent::Kind kind);

struct TraceHeader {
  std::string schema = k_trace_schema;
  std::string policy;    ///< PolicySpec string form
  std::string arrivals;  ///< arrival kind name (provenance)
  std::uint64_t seed = 0;
  int iterations = 0;
  int tiles = 0;
  int reconfig_ports = 1;
  int isps = 1;
  time_us reconfig_latency = 0;
  double reconfig_energy = 0.0;
  double deadline_scale = 0.0;  ///< > 0: real-time accounting was on
  bool shared_isps = false;
  bool record_spans = false;
  std::vector<TracePrep> preps;
};

/// A fully-read trace.
struct TraceData {
  TraceHeader header;
  std::vector<TraceEvent> events;
  /// Owns the admit events' tile lists (TraceEvent::tiles points into it).
  /// Shared, so a copy of the trace keeps its events' views valid.
  std::shared_ptr<const std::vector<PhysTileId>> tile_store;
  OnlineReport live;      ///< footer: the report the run produced
  bool has_live = false;  ///< false on a truncated trace (no footer)
};

/// Records a run to `path` while acting as its TraceSink: construct, run
/// the simulation with OnlineSimOptions::trace pointing here, then call
/// finish() with the returned report. Events are encoded into one buffer
/// that goes to the file each time it passes 64 KiB and at finish(), so
/// recording allocates nothing per event.
class TraceRecorder final : public TraceSink {
 public:
  /// Throws std::runtime_error when `path` cannot be opened for writing.
  TraceRecorder(const std::string& path, TraceFormat format,
                const OnlineSimOptions& options);
  ~TraceRecorder() override;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Writes the footer (the live report) and closes the file. Throws
  /// std::runtime_error when the stream failed.
  void finish(const OnlineReport& live);

  // TraceSink: the prep table goes into the header, each event is encoded
  // as it arrives.
  void on_preps(const std::vector<TracePrep>& preps) override;
  void record(const TraceEvent& ev) override;

 private:
  void append_header();
  void write_buffer();

  std::string path_;
  TraceFormat format_;
  TraceHeader header_;
  bool header_written_ = false;
  bool finished_ = false;
  time_us last_t_ = 0;  ///< the binary encoding's delta base
  std::string buffer_;  ///< encoded bytes not yet written to out_
  std::unique_ptr<std::ofstream> out_;
};

/// Reads a trace in either encoding (sniffs the binary magic). Throws
/// std::invalid_argument on malformed input, std::runtime_error on I/O
/// failure. A missing footer is not an error: has_live stays false.
TraceData read_trace(const std::string& path);

/// Re-derives the OnlineReport from the event stream alone: a fresh
/// OnlineAccounting seeded from the header's run constants (platform shape,
/// per-prep retire constants, the real-time flag) folds the recorded
/// events. Bit-identical to the live report of the traced run;
/// OnlineReport::perf stays default. Throws std::invalid_argument on an
/// event naming a negative job, a port the header does not have or a port
/// still busy with an earlier load, or a retire whose preparation is
/// missing from the header.
OnlineReport replay_trace(const TraceData& trace);

/// Replays and compares against the recorded live report over every
/// visit_report_fields() field: doubles bitwise, vectors by size and then
/// element by element. Returns one "field: live=... replay=..." line per
/// mismatch; empty = verified. Throws std::invalid_argument when the trace has no
/// footer to compare against.
std::vector<std::string> verify_trace(const TraceData& trace);

/// Serialises every OnlineReport field except `perf` as a JSON object
/// (shortest-round-trip doubles, so parsing back is bit-exact).
std::string online_report_to_json(const OnlineReport& report);
/// Reads a parsed footer object back. Missing keys keep their defaults;
/// a present key of the wrong JSON kind throws std::invalid_argument
/// naming the key.
OnlineReport online_report_from_json(const json::Value& root);

struct TraceRenderOptions {
  int width = 96;        ///< time-axis extent (characters / pixels per lane)
  time_us from = 0;      ///< window start
  time_us until = k_no_time;  ///< window end; k_no_time = the run horizon
};

/// ASCII timeline: one lane per reconfiguration port (loads `#`, prefetches
/// `p`, migrations `m`, checkpoints `c`), one per physical tile (executions
/// `=`), one per ISP. Grows the sim/gantt.cpp renderer to trace scale.
std::string render_trace_ascii(const TraceData& trace,
                               const TraceRenderOptions& options = {});

/// The same timeline as a standalone SVG document.
std::string render_trace_svg(const TraceData& trace,
                             const TraceRenderOptions& options = {});

}  // namespace drhw
