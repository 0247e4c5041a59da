#pragma once

/// \file online_accounting.hpp
/// The one fold from an online run's event stream to its OnlineReport.
///
/// Every OnlineReport metric is accumulated here and nowhere else. The
/// kernel (sim/event_sim.cpp) and the tile pool describe each accounting
/// site as a TraceEvent and hand it to the fold, which is itself the
/// kernel's trace sink: it folds the event, then forwards it to the user's
/// TraceSink when one is set. Trace replay (trace/replay.cpp) seeds a fresh
/// fold from the trace header and feeds it the recorded events. An event
/// that reaches the report therefore always reaches the trace, and a replay
/// re-runs the live arithmetic on the same inputs in the same order.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_sim.hpp"
#include "sim/port_set.hpp"
#include "sim/trace_hook.hpp"
#include "util/p2_quantile.hpp"

namespace drhw {

/// Run constants the fold reads besides the events.
struct AccountingConstants {
  int reconfig_ports = 1;
  int isps = 1;
  double reconfig_energy = 0.0;  ///< energy of one port load
  bool deadlines = false;        ///< real-time accounting (deadline_scale > 0)
  bool record_spans = false;     ///< fill OnlineReport::spans
};

class OnlineAccounting final : public TraceSink {
 public:
  /// `forward`, when set, receives every prep table and event after the
  /// fold has taken it.
  explicit OnlineAccounting(const AccountingConstants& constants,
                            TraceSink* forward = nullptr);

  /// Sizes the per-job state for jobs [0, jobs) up front, so that folding
  /// a run of that many instances never allocates. Optional: the state
  /// also grows on demand.
  void reserve_jobs(std::size_t jobs);

  void on_preps(const std::vector<TracePrep>& preps) override;
  /// Throws std::invalid_argument on a negative job, a port outside
  /// [0, reconfig_ports) or still busy at the event's instant, or a retire
  /// whose preparation is missing from the prep table.
  void record(const TraceEvent& ev) override;

  /// Latest retire (or run_end) instant folded so far.
  time_us horizon() const { return horizon_; }
  /// The port occupancy and ISP busy total the events describe, for the
  /// kernel's cross-checks against the resources it actually dispatched.
  const PortSet& ports() const { return ports_; }
  time_us isp_busy() const { return isp_busy_; }

  /// The report of everything folded so far; `perf` stays default. Does not
  /// change the fold, so it may be called again after more events.
  OnlineReport finish() const;

 private:
  /// What the arrival and admit events leave for later events of the job.
  struct Job {
    time_us arrival = k_no_time;
    time_us admit = k_no_time;
    time_us deadline = k_no_time;
    std::int32_t prep = -1;
    std::int32_t crit = 0;
  };

  Job& job_at(std::int32_t job);
  void dispatch_port(const TraceEvent& ev);
  /// One port load that is not an instance's own (prefetch, migration,
  /// checkpoint writeout).
  void charge_port_load();
  void retire(const TraceEvent& ev);

  AccountingConstants constants_;
  TraceSink* forward_ = nullptr;
  std::vector<TracePrep> preps_;
  std::vector<Job> jobs_;
  long arrivals_ = 0;

  OnlineReport report_;  ///< the counters and sums; finish() derives the rest
  double queue_sum_ = 0.0;
  time_us queue_max_ = 0;
  double response_sum_ = 0.0;
  time_us response_max_ = 0;
  QuantileSketch response_sketch_;
  time_us horizon_ = 0;
  double lateness_sum_ = 0.0;  ///< signed, microseconds
  time_us max_tardiness_ = 0;
  long migrations_in_flight_ = 0;
  long peak_migrations_ = 0;
  time_us isp_busy_ = 0;  ///< total ISP execution time, shared or not
  PortSet ports_;
  double frag_integral_ = 0.0;  ///< fragmentation pct x time, up to frag_last_
  time_us frag_last_ = 0;
  double final_frag_ = 0.0;
};

}  // namespace drhw
