#pragma once

/// \file trace_hook.hpp
/// The event vocabulary of an online run and its observer interface.
///
/// The kernel (sim/event_sim.cpp) and the tile pool (pool/tile_pool.cpp)
/// describe every accounting site as one TraceEvent, in dispatch order.
/// OnlineAccounting (sim/online_accounting.hpp) is the one fold that turns
/// that stream into an OnlineReport: the kernel computes its live report by
/// handing the fold each event, and trace replay computes its report by
/// handing a fresh fold the recorded events. Both reports come out of the
/// same code on the same inputs, so a recorded trace always replays into
/// the live report bit for bit (the wall-clock `perf` counters are the one
/// documented exclusion).
///
/// The types live here — not under src/trace/ — so the kernel depends only
/// on this leaf header and never on the trace subsystem's I/O code.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/ids.hpp"
#include "util/time.hpp"

namespace drhw {

/// One event of an online run. A field is only meaningful for the kinds
/// listed in its comment; everything else keeps the default.
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

  TraceEvent() = default;
  TraceEvent(Kind event_kind, time_us at, std::int32_t job_id = -1)
      : kind(event_kind), t(at), job(job_id) {}

  Kind kind = Kind::arrival;
  time_us t = 0;              ///< event instant; run_end: the horizon
  std::int32_t job = -1;      ///< job; preempt: victim; remap/migration
                              ///< start: owner
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
  time_us deadline = k_no_time;  ///< arrival: absolute deadline (k_no_time
                                 ///< in best-effort runs); deadline_miss:
                                 ///< lateness
  double value = 0.0;            ///< frag: fragmentation pct held over the
                                 ///< interval ending at t; run_end: the
                                 ///< pool's final fragmentation pct
  /// admit: the occupied physical tiles, set only when the run is traced.
  /// A view, valid for the duration of the TraceSink::record() call; the
  /// event itself owns nothing, so building one costs a few stores.
  const PhysTileId* tiles = nullptr;
  std::uint32_t tile_count = 0;
};

/// Per-preparation constants the retire accounting folds in: the ideal
/// makespan, the DRHW subtask count and the summed execution energy of one
/// instance of the preparation.
struct TracePrep {
  std::string name;
  time_us ideal = 0;
  long drhw_subtasks = 0;
  double exec_energy = 0.0;
  std::size_t subtasks = 0;
};

/// Observer of an online run's event stream. The kernel holds a nullable
/// pointer (OnlineSimOptions::trace); an untraced run forwards nothing.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// The run's preparation table (index = TraceEvent::prep), once, before
  /// the first event.
  virtual void on_preps(const std::vector<TracePrep>& /*preps*/) {}
  virtual void record(const TraceEvent& ev) = 0;
};

}  // namespace drhw
