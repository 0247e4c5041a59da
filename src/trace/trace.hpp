#pragma once

/// \file trace.hpp
/// Structured event traces of online runs — schema `drhw-trace-v1`.
///
/// A trace is the full observable history of one online simulation: a
/// header (platform constants, policy, per-preparation retire constants), a
/// stream of timed events emitted by the kernel at every accounting site
/// (sim/trace_hook.hpp), and a footer carrying the live OnlineReport. Two
/// encodings share the schema: JSONL (one object per line — greppable,
/// diffable, the bless format) and a compact length-framed binary for long
/// runs. The reader sniffs the magic, so every consumer takes either.
///
/// The subsystem's contract is *replay verification*: replay_trace()
/// re-derives the entire OnlineReport from the event stream alone —
/// repeating the identical integer and floating-point accumulations in the
/// identical order the kernel performed them — and verify_trace() demands
/// bit-identity against the recorded live report. A trace that verifies is
/// a proof that the schema captures everything the report claims; a schema
/// regression (dropped event, reordered emission, changed field) fails CI
/// instead of silently rotting the observability layer. The one exclusion
/// is OnlineReport::perf: wall-clock phase timers and queue-internal
/// counters are not simulation state and are not serialised.
///
/// Extension policy (mirrors the campaign report readers): adding event
/// kinds or fields is backward-compatible — readers ignore unknown JSONL
/// keys and skip unknown framed binary records; removing or renaming
/// anything, or changing an emission site, requires bumping the schema id.
/// Rendering: render_trace_ascii()/render_trace_svg() draw a per-port +
/// per-tile (+ ISP) timeline — `drhw_sched trace render`.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_sim.hpp"
#include "sim/trace_hook.hpp"

namespace drhw {

namespace json {
struct Value;  // util/json.hpp
}  // namespace json

inline constexpr const char* k_trace_schema = "drhw-trace-v1";

enum class TraceFormat { jsonl, binary };

const char* to_string(TraceFormat format);
TraceFormat trace_format_from_string(const std::string& text);

/// One recorded event. A field is only meaningful for the kinds listed in
/// its comment; everything else keeps the default.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    arrival = 0,
    admit = 1,
    sched_done = 2,
    load_start = 3,
    load_done = 4,
    prefetch_start = 5,
    prefetch_done = 6,
    migration_start = 7,
    migration_done = 8,
    remap = 9,
    checkpoint_start = 10,
    preempt = 11,
    exec_start = 12,
    exec_done = 13,
    retire = 14,
    deadline_miss = 15,
    queue_skip = 16,
    frag = 17,
    run_end = 18,
  };
  Kind kind = Kind::arrival;
  time_us t = 0;              ///< event instant; run_end: the horizon
  std::int32_t job = -1;      ///< job; preempt: victim; remap/migration: owner
  std::int32_t subtask = -1;  ///< load_*/exec_*: subtask id
  std::int32_t prep = -1;     ///< arrival: preparation index
  std::int64_t config = -1;   ///< load_start/prefetch_*: configuration id
  std::int32_t unit = -1;     ///< port (load/prefetch/migration/checkpoint
                              ///< start) or execution unit (exec_start)
  time_us duration = 0;       ///< port/execution occupancy started here
  std::int32_t src = -1;      ///< target tile; migration/remap: source tile
  std::int32_t dst = -1;      ///< migration/remap: destination tile
  std::int64_t loads = 0;     ///< retire/preempt: port loads; admit: reused
  std::int64_t aux = 0;       ///< admit: cancelled; arrival: criticality;
                              ///< exec_start: 1 = ISP; migration_done:
                              ///< 1 = ownership transferred
  std::int64_t init = 0;      ///< admit/retire/preempt: init-phase loads
  time_us deadline = k_no_time;  ///< arrival: absolute deadline;
                                 ///< deadline_miss: lateness
  double value = 0.0;            ///< frag/run_end: fragmentation pct
  std::vector<PhysTileId> tiles;  ///< admit: occupied physical tiles
};

const char* to_string(TraceEvent::Kind kind);

/// Per-preparation constants the retire accounting folds in.
struct TracePrep {
  std::string name;
  time_us ideal = 0;
  long drhw_subtasks = 0;
  double exec_energy = 0.0;
  std::size_t subtasks = 0;
};

struct TraceHeader {
  std::string schema = k_trace_schema;
  std::string policy;         ///< PolicySpec string form
  std::string arrivals;       ///< arrival kind name (provenance)
  std::string queue_backend;  ///< provenance; replay is backend-agnostic
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
  OnlineReport live;      ///< footer: the report the run produced
  bool has_live = false;  ///< false on a truncated trace (no footer)
};

/// Records a run to `path` while acting as its TraceSink: construct, run
/// the simulation with OnlineSimOptions::trace pointing here, then call
/// finish() with the returned report. Streaming — events are written as
/// they happen, nothing is buffered past the header.
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

  // TraceSink implementation --------------------------------------------
  void on_prep(int prep, const char* name, time_us ideal, long drhw_subtasks,
               double exec_energy, std::size_t subtasks) override;
  void on_arrival(time_us t, std::int32_t job, int prep, time_us deadline,
                  int crit) override;
  void on_admit(time_us t, std::int32_t job, long reused, long cancelled,
                std::size_t init_count,
                const std::vector<PhysTileId>& tiles) override;
  void on_sched_done(time_us t, std::int32_t job) override;
  void on_retire(time_us t, std::int32_t job, long loads,
                 std::size_t init_count) override;
  void on_deadline_miss(time_us t, std::int32_t job,
                        time_us lateness) override;
  void on_load_start(time_us t, std::int32_t job, SubtaskId subtask,
                     ConfigId config, std::size_t port, time_us duration,
                     PhysTileId tile) override;
  void on_load_done(time_us t, std::int32_t job, SubtaskId subtask,
                    PhysTileId tile) override;
  void on_prefetch_start(time_us t, std::int32_t queued_job, ConfigId config,
                         std::size_t port, time_us duration,
                         PhysTileId tile) override;
  void on_prefetch_done(time_us t, PhysTileId tile, ConfigId config) override;
  void on_migration_start(time_us t, std::size_t port, time_us duration,
                          PhysTileId src, PhysTileId dst,
                          std::int32_t owner) override;
  void on_migration_done(time_us t, PhysTileId src, PhysTileId dst,
                         bool transferred) override;
  void on_remap(time_us t, PhysTileId src, PhysTileId dst,
                std::int32_t owner) override;
  void on_checkpoint_start(time_us t, std::size_t port, time_us duration,
                           std::int32_t victim) override;
  void on_preempt(time_us t, std::int32_t victim, long loads,
                  std::size_t init_count) override;
  void on_exec_start(time_us t, std::int32_t job, SubtaskId subtask,
                     time_us duration, std::int64_t unit, bool isp) override;
  void on_exec_done(time_us t, std::int32_t job, SubtaskId subtask) override;
  void on_queue_skip(time_us t) override;
  void on_frag_sample(time_us t, double frag_pct) override;
  void on_run_end(time_us horizon, double final_frag_pct) override;

 private:
  void record(const TraceEvent& ev);
  void flush_header();

  std::string path_;
  TraceFormat format_;
  TraceHeader header_;
  bool header_written_ = false;
  bool finished_ = false;
  void* out_ = nullptr;  ///< std::ofstream, kept out of this header
};

/// Reads a trace in either encoding (sniffs the binary magic). Throws
/// std::invalid_argument on malformed input, std::runtime_error on I/O
/// failure. A missing footer is not an error: has_live stays false.
TraceData read_trace(const std::string& path);

/// Re-derives the OnlineReport from the event stream alone (the header
/// contributes only run constants: platform shape, per-prep retire
/// constants, the real-time flag). Bit-identical to the live report of the
/// traced run; OnlineReport::perf stays default.
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
