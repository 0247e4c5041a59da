/// \file replay.cpp
/// Re-derives an OnlineReport from a trace's event stream. The whole point
/// is *bit*-identity with the live run, so every accumulation below mirrors
/// the kernel's accounting site for that event verbatim — same expression
/// grouping, same floating-point accumulation order (the event stream is in
/// dispatch order, which is the order the kernel performed these updates).
/// When the kernel's accounting changes, the mirrored site here must change
/// with it — tests/test_trace.cpp and the CI replay gate fail otherwise.

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "trace/trace.hpp"
#include "util/p2_quantile.hpp"

namespace drhw {

namespace {

/// Grows `v` so that `index` is addressable, filling with `fill`.
template <typename T>
T& slot_at(std::vector<T>& v, std::int32_t index, T fill) {
  const auto at = static_cast<std::size_t>(index);
  if (v.size() <= at) v.resize(at + 1, fill);
  return v[at];
}

}  // namespace

OnlineReport replay_trace(const TraceData& trace) {
  const TraceHeader& header = trace.header;
  const double reconfig_energy = header.reconfig_energy;
  const bool rt = header.deadline_scale > 0.0;
  const auto ports = static_cast<std::size_t>(
      header.reconfig_ports > 0 ? header.reconfig_ports : 1);

  OnlineReport report;
  // Mirrors of the kernel's scalar accumulators (same names, same types).
  double queue_sum = 0.0;
  time_us queue_max = 0;
  double response_sum = 0.0;
  time_us response_max = 0;
  QuantileSketch response_sketch;
  time_us horizon = 0;
  double lateness_sum = 0.0;
  time_us max_tardiness = 0;
  long migrations_in_flight = 0;
  long peak_migrations = 0;
  time_us isp_busy = 0;
  // Port mirror (PortSet): never-dispatched ports stay free at 0.
  std::vector<time_us> port_free(ports, 0);
  std::vector<time_us> port_busy(ports, 0);
  time_us total_busy = 0;
  // Pool fragmentation mirror (TilePoolManager::touch / mean_...):
  double frag_integral = 0.0;
  time_us frag_last = 0;
  double final_frag = 0.0;
  // Per-job state captured from arrival/admit, consumed at retire.
  std::vector<time_us> arrival_of;
  std::vector<time_us> admit_of;
  std::vector<time_us> deadline_of;
  std::vector<std::int32_t> crit_of;
  std::vector<std::int32_t> prep_of;
  long total_jobs = 0;

  auto dispatch_port = [&](const TraceEvent& ev) {
    if (ev.unit < 0 || static_cast<std::size_t>(ev.unit) >= ports)
      throw std::invalid_argument("trace replay: port " +
                                  std::to_string(ev.unit) + " out of range");
    const auto port = static_cast<std::size_t>(ev.unit);
    port_free[port] = ev.t + ev.duration;
    port_busy[port] += ev.duration;
    total_busy += ev.duration;
  };

  for (const TraceEvent& ev : trace.events) {
    switch (ev.kind) {
      case TraceEvent::Kind::arrival:
        ++total_jobs;
        slot_at(arrival_of, ev.job, k_no_time) = ev.t;
        slot_at(deadline_of, ev.job, k_no_time) = ev.deadline;
        slot_at(crit_of, ev.job, std::int32_t{0}) =
            static_cast<std::int32_t>(ev.aux);
        slot_at(prep_of, ev.job, std::int32_t{-1}) = ev.prep;
        break;
      case TraceEvent::Kind::admit: {
        // OnlineSim::admit(): reuse + queueing accounting. cancelled_loads
        // lands in build_plan, but integer sums are order-free.
        report.sim.reused_subtasks += ev.loads;
        report.sim.cancelled_loads += ev.aux;
        const time_us arrival = slot_at(arrival_of, ev.job, k_no_time);
        queue_sum += static_cast<double>(ev.t - arrival);
        queue_max = std::max(queue_max, ev.t - arrival);
        slot_at(admit_of, ev.job, k_no_time) = ev.t;
        break;
      }
      case TraceEvent::Kind::load_start:
        // start_job_load(): the load count lands at retire (slot.loads);
        // here only the port dispatch is mirrored.
        dispatch_port(ev);
        break;
      case TraceEvent::Kind::prefetch_start:
        // start_backlog_prefetch().
        dispatch_port(ev);
        ++report.sim.intertask_prefetches;
        ++report.sim.loads;
        report.sim.energy += reconfig_energy;
        break;
      case TraceEvent::Kind::migration_start:
        // start_defrag(), port-migration branch.
        dispatch_port(ev);
        ++report.sim.loads;
        report.sim.energy += reconfig_energy;
        ++migrations_in_flight;
        peak_migrations = std::max(peak_migrations, migrations_in_flight);
        break;
      case TraceEvent::Kind::migration_done:
        // TilePoolManager::finish_migration().
        --migrations_in_flight;
        ++report.defrag_moves;
        break;
      case TraceEvent::Kind::remap:
        // TilePoolManager::apply_remap().
        ++report.defrag_moves;
        break;
      case TraceEvent::Kind::checkpoint_start:
        // start_checkpoint().
        dispatch_port(ev);
        ++report.sim.loads;
        report.sim.energy += reconfig_energy;
        break;
      case TraceEvent::Kind::preempt: {
        // finish_preempt(): the victim's work-so-far is written back.
        report.sim.loads += ev.loads;
        report.sim.init_loads += static_cast<long>(ev.init);
        report.sim.energy += reconfig_energy * static_cast<double>(ev.loads);
        report.sim.energy_saved -=
            reconfig_energy * static_cast<double>(ev.loads);
        const time_us arrival = slot_at(arrival_of, ev.job, k_no_time);
        queue_sum -= static_cast<double>(ev.t - arrival);
        ++report.preemptions;
        break;
      }
      case TraceEvent::Kind::exec_start:
        if (ev.aux != 0) isp_busy += ev.duration;
        break;
      case TraceEvent::Kind::queue_skip:
        ++report.queue_skips;
        break;
      case TraceEvent::Kind::frag:
        // TilePoolManager::touch(): `value` held over (frag_last, t].
        frag_integral += ev.value * static_cast<double>(ev.t - frag_last);
        frag_last = ev.t;
        break;
      case TraceEvent::Kind::run_end:
        final_frag = ev.value;
        break;
      case TraceEvent::Kind::retire: {
        // OnlineSim::retire(), identical expression grouping.
        const auto prep_index =
            static_cast<std::size_t>(slot_at(prep_of, ev.job, std::int32_t{-1}));
        if (prep_index >= header.preps.size())
          throw std::invalid_argument(
              "trace replay: retire references preparation " +
              std::to_string(prep_index) + " missing from the header");
        const TracePrep& prep = header.preps[prep_index];
        const time_us admit = slot_at(admit_of, ev.job, k_no_time);
        const time_us span = ev.t - admit;
        if (header.record_spans)
          slot_at(report.spans, ev.job, time_us{0}) = span;
        report.sim.total_ideal += prep.ideal;
        report.sim.total_actual += span;
        ++report.sim.instances;
        const long drhw = prep.drhw_subtasks;
        report.sim.drhw_subtask_instances += drhw;
        report.sim.loads += ev.loads;
        report.sim.init_loads += static_cast<long>(ev.init);
        report.sim.energy +=
            prep.exec_energy +
            reconfig_energy * static_cast<double>(ev.loads);
        report.sim.energy_saved +=
            reconfig_energy * static_cast<double>(drhw - ev.loads);
        const time_us arrival = slot_at(arrival_of, ev.job, k_no_time);
        response_sum += static_cast<double>(ev.t - arrival);
        response_max = std::max(response_max, ev.t - arrival);
        response_sketch.add(to_ms(ev.t - arrival));
        horizon = std::max(horizon, ev.t);
        if (rt) {
          const time_us deadline = slot_at(deadline_of, ev.job, k_no_time);
          const time_us lateness = ev.t - deadline;
          ++report.deadline_jobs;
          lateness_sum += static_cast<double>(lateness);
          if (lateness > 0) {
            ++report.deadline_misses;
            max_tardiness = std::max(max_tardiness, lateness);
          }
          if (slot_at(crit_of, ev.job, std::int32_t{0}) != 0) {
            ++report.high_crit_jobs;
            if (lateness > 0) ++report.high_crit_misses;
          }
        }
        break;
      }
      // Completion / bookkeeping events carry no report state; they exist
      // for rendering and cross-checking.
      case TraceEvent::Kind::sched_done:
      case TraceEvent::Kind::load_done:
      case TraceEvent::Kind::prefetch_done:
      case TraceEvent::Kind::exec_done:
      case TraceEvent::Kind::deadline_miss:
        break;
    }
  }

  // --- OnlineSim::finalize(), mirrored ------------------------------------
  if (report.sim.total_ideal > 0)
    report.sim.overhead_pct =
        100.0 *
        static_cast<double>(report.sim.total_actual -
                            report.sim.total_ideal) /
        static_cast<double>(report.sim.total_ideal);
  if (report.sim.drhw_subtask_instances > 0)
    report.sim.reuse_pct =
        100.0 * static_cast<double>(report.sim.reused_subtasks) /
        static_cast<double>(report.sim.drhw_subtask_instances);
  report.horizon = horizon;
  const auto n = static_cast<double>(total_jobs);
  if (total_jobs > 0) {
    report.mean_response_ms = response_sum / n / 1000.0;
    report.mean_queueing_ms = queue_sum / n / 1000.0;
  }
  report.max_response_ms = to_ms(response_max);
  report.max_queueing_ms = to_ms(queue_max);
  report.response_p50_ms = response_sketch.p50();
  report.response_p95_ms = response_sketch.p95();
  report.response_p99_ms = response_sketch.p99();
  {
    // TilePoolManager::mean_fragmentation_pct(horizon): the tail after the
    // last occupancy change holds the final fragmentation value.
    const time_us end = std::max(horizon, frag_last);
    if (end > 0) {
      double integral = frag_integral;
      if (end > frag_last)
        integral += final_frag * static_cast<double>(end - frag_last);
      report.mean_frag_pct = integral / static_cast<double>(end);
    }
  }
  if (report.deadline_jobs > 0) {
    report.deadline_miss_pct =
        100.0 * static_cast<double>(report.deadline_misses) /
        static_cast<double>(report.deadline_jobs);
    report.mean_lateness_ms =
        lateness_sum / static_cast<double>(report.deadline_jobs) / 1000.0;
  }
  if (report.high_crit_jobs > 0)
    report.high_crit_miss_pct =
        100.0 * static_cast<double>(report.high_crit_misses) /
        static_cast<double>(report.high_crit_jobs);
  report.max_tardiness_ms = to_ms(max_tardiness);
  report.peak_concurrent_migrations = peak_migrations;
  time_us latest_free = 0;
  for (time_us f : port_free) latest_free = std::max(latest_free, f);
  const time_us busy_horizon = std::max(horizon, latest_free);
  report.port_utilisation_per_port_pct.assign(ports, 0.0);
  if (busy_horizon > 0) {
    report.port_utilisation_pct =
        100.0 * static_cast<double>(total_busy) /
        (static_cast<double>(busy_horizon) * static_cast<double>(ports));
    for (std::size_t p = 0; p < ports; ++p)
      report.port_utilisation_per_port_pct[p] =
          100.0 * static_cast<double>(port_busy[p]) /
          static_cast<double>(busy_horizon);
    const int isps = std::max(header.isps, 1);
    report.isp_utilisation_pct =
        100.0 * static_cast<double>(isp_busy) /
        (static_cast<double>(busy_horizon) * static_cast<double>(isps));
  }
  if (header.record_spans)
    report.spans.resize(static_cast<std::size_t>(total_jobs), 0);
  return report;
}

namespace {

/// Doubles compare bitwise: replay must reproduce the kernel's exact
/// floating-point accumulation, not a value merely close to it.
template <typename T>
bool same(const T& live, const T& replay) {
  if constexpr (std::is_floating_point_v<T>)
    return std::memcmp(&live, &replay, sizeof(T)) == 0;
  else
    return live == replay;
}

template <typename T>
void compare(std::vector<std::string>& out, const std::string& name,
             const T& live, const T& replay) {
  if (same(live, replay)) return;
  std::ostringstream msg;
  msg.precision(17);
  msg << name << ": live=" << live << " replay=" << replay;
  if constexpr (std::is_floating_point_v<T>) msg << " (bitwise compare)";
  out.push_back(msg.str());
}

template <typename T>
void compare(std::vector<std::string>& out, const std::string& name,
             const std::vector<T>& live, const std::vector<T>& replay) {
  compare(out, name + ".size", live.size(), replay.size());
  if (live.size() != replay.size()) return;
  for (std::size_t i = 0; i < live.size(); ++i)
    if (!same(live[i], replay[i]))
      compare(out, name + "[" + std::to_string(i) + "]", live[i], replay[i]);
}

}  // namespace

std::vector<std::string> verify_trace(const TraceData& trace) {
  if (!trace.has_live)
    throw std::invalid_argument(
        "trace verify: no recorded report (truncated trace?)");
  const OnlineReport replay = replay_trace(trace);
  std::vector<std::string> out;
  visit_report_fields(
      [&out](const char* name, const auto& live, const auto& replayed) {
        compare(out, name, live, replayed);
      },
      trace.live, replay);
  return out;
}

}  // namespace drhw
