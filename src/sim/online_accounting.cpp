#include "sim/online_accounting.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace drhw {

OnlineAccounting::OnlineAccounting(const AccountingConstants& constants,
                                   TraceSink* forward)
    : constants_(constants),
      forward_(forward),
      ports_(std::max(constants.reconfig_ports, 1)) {}

void OnlineAccounting::reserve_jobs(std::size_t jobs) {
  if (jobs_.size() < jobs) jobs_.resize(jobs);
  if (constants_.record_spans && report_.spans.size() < jobs)
    report_.spans.resize(jobs, 0);
}

void OnlineAccounting::on_preps(const std::vector<TracePrep>& preps) {
  preps_ = preps;
  if (forward_) forward_->on_preps(preps);
}

OnlineAccounting::Job& OnlineAccounting::job_at(std::int32_t job) {
  if (job < 0)
    throw std::invalid_argument("event stream: job " + std::to_string(job) +
                                " out of range");
  const auto at = static_cast<std::size_t>(job);
  if (jobs_.size() <= at) jobs_.resize(at + 1);
  return jobs_[at];
}

void OnlineAccounting::dispatch_port(const TraceEvent& ev) {
  if (ev.unit < 0 || static_cast<std::size_t>(ev.unit) >= ports_.size())
    throw std::invalid_argument("event stream: port " +
                                std::to_string(ev.unit) + " out of range");
  const auto port = static_cast<std::size_t>(ev.unit);
  if (!ports_.idle_at(port, ev.t))
    throw std::invalid_argument("event stream: port " +
                                std::to_string(ev.unit) + " busy at " +
                                std::to_string(ev.t));
  ports_.dispatch(port, ev.t, ev.duration);
}

void OnlineAccounting::charge_port_load() {
  ++report_.sim.loads;
  report_.sim.energy += constants_.reconfig_energy;
}

void OnlineAccounting::record(const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceEvent::Kind::arrival: {
      ++arrivals_;
      Job& job = job_at(ev.job);
      job.arrival = ev.t;
      job.deadline = ev.deadline;
      job.crit = static_cast<std::int32_t>(ev.aux);
      job.prep = ev.prep;
      break;
    }
    case TraceEvent::Kind::admit: {
      report_.sim.reused_subtasks += ev.loads;
      report_.sim.cancelled_loads += ev.aux;
      Job& job = job_at(ev.job);
      queue_sum_ += static_cast<double>(ev.t - job.arrival);
      queue_max_ = std::max(queue_max_, ev.t - job.arrival);
      job.admit = ev.t;
      break;
    }
    case TraceEvent::Kind::load_start:
      // An instance's own load is counted at retire (or preempt), with the
      // rest of its stint.
      dispatch_port(ev);
      break;
    case TraceEvent::Kind::prefetch_start:
      dispatch_port(ev);
      ++report_.sim.intertask_prefetches;
      charge_port_load();
      break;
    case TraceEvent::Kind::migration_start:
      dispatch_port(ev);
      charge_port_load();
      ++migrations_in_flight_;
      peak_migrations_ = std::max(peak_migrations_, migrations_in_flight_);
      break;
    case TraceEvent::Kind::migration_done:
      --migrations_in_flight_;
      ++report_.defrag_moves;
      break;
    case TraceEvent::Kind::remap:
      ++report_.defrag_moves;
      break;
    case TraceEvent::Kind::checkpoint_start:
      dispatch_port(ev);
      charge_port_load();
      break;
    case TraceEvent::Kind::preempt: {
      const Job& job = job_at(ev.job);
      // The victim's dropped stint happened on the timeline: its loads
      // count now (retire only sees the resumed stint), and they were real
      // reconfigurations, so the energy-saved credit shrinks with them.
      report_.sim.loads += ev.loads;
      report_.sim.init_loads += static_cast<long>(ev.init);
      report_.sim.energy +=
          constants_.reconfig_energy * static_cast<double>(ev.loads);
      report_.sim.energy_saved -=
          constants_.reconfig_energy * static_cast<double>(ev.loads);
      // Queueing credit: the re-admission charges (re-admit - arrival)
      // again, so the interval up to now is given back once — the net
      // queueing is the first wait plus the post-preemption wait.
      queue_sum_ -= static_cast<double>(ev.t - job.arrival);
      ++report_.preemptions;
      break;
    }
    case TraceEvent::Kind::exec_start:
      if (ev.aux != 0) isp_busy_ += ev.duration;  // offered ISP load
      break;
    case TraceEvent::Kind::queue_skip:
      ++report_.queue_skips;
      break;
    case TraceEvent::Kind::frag:
      frag_integral_ += ev.value * static_cast<double>(ev.t - frag_last_);
      frag_last_ = ev.t;
      break;
    case TraceEvent::Kind::run_end:
      final_frag_ = ev.value;
      horizon_ = std::max(horizon_, ev.t);
      break;
    case TraceEvent::Kind::retire:
      retire(ev);
      break;
    // Completion events carry no report state; they exist for rendering.
    case TraceEvent::Kind::sched_done:
    case TraceEvent::Kind::load_done:
    case TraceEvent::Kind::prefetch_done:
    case TraceEvent::Kind::exec_done:
    case TraceEvent::Kind::deadline_miss:
      break;
  }
  if (forward_) forward_->record(ev);
}

void OnlineAccounting::retire(const TraceEvent& ev) {
  const Job& job = job_at(ev.job);
  const auto prep_index = static_cast<std::size_t>(job.prep);
  if (prep_index >= preps_.size())
    throw std::invalid_argument(
        "event stream: retire of job " + std::to_string(ev.job) +
        " references preparation " + std::to_string(job.prep) +
        " missing from the prep table");
  const TracePrep& prep = preps_[prep_index];
  const time_us span = ev.t - job.admit;
  if (constants_.record_spans) {
    const auto at = static_cast<std::size_t>(ev.job);
    if (report_.spans.size() <= at) report_.spans.resize(at + 1, 0);
    report_.spans[at] = span;  // arrival order
  }
  report_.sim.account_instance(prep, span, static_cast<long>(ev.loads),
                               static_cast<long>(ev.init),
                               constants_.reconfig_energy);
  const time_us response = ev.t - job.arrival;
  response_sum_ += static_cast<double>(response);
  response_max_ = std::max(response_max_, response);
  response_sketch_.add(to_ms(response));
  horizon_ = std::max(horizon_, ev.t);
  if (!constants_.deadlines) return;
  // Miss = retired strictly after the absolute deadline; lateness is signed
  // (early retires pull the mean down), tardiness clamps at 0.
  const time_us lateness = ev.t - job.deadline;
  ++report_.deadline_jobs;
  lateness_sum_ += static_cast<double>(lateness);
  if (lateness > 0) {
    ++report_.deadline_misses;
    max_tardiness_ = std::max(max_tardiness_, lateness);
  }
  if (job.crit != 0) {
    ++report_.high_crit_jobs;
    if (lateness > 0) ++report_.high_crit_misses;
  }
}

OnlineReport OnlineAccounting::finish() const {
  OnlineReport report = report_;
  report.sim.finish();
  report.horizon = horizon_;
  if (arrivals_ > 0) {
    const auto n = static_cast<double>(arrivals_);
    report.mean_response_ms = response_sum_ / n / 1000.0;
    report.mean_queueing_ms = queue_sum_ / n / 1000.0;
  }
  report.max_response_ms = to_ms(response_max_);
  report.max_queueing_ms = to_ms(queue_max_);
  report.response_p50_ms = response_sketch_.p50();
  report.response_p95_ms = response_sketch_.p95();
  report.response_p99_ms = response_sketch_.p99();
  // Time-weighted mean fragmentation. Pool events (e.g. a prefetch landing
  // after the last retire) may pass the horizon, so the mean covers the
  // full observed span; the tail after the last sample holds the pool's
  // final fragmentation.
  const time_us frag_end = std::max(horizon_, frag_last_);
  if (frag_end > 0) {
    double integral = frag_integral_;
    if (frag_end > frag_last_)
      integral += final_frag_ * static_cast<double>(frag_end - frag_last_);
    report.mean_frag_pct = integral / static_cast<double>(frag_end);
  }
  if (report.deadline_jobs > 0) {
    report.deadline_miss_pct = 100.0 *
                               static_cast<double>(report.deadline_misses) /
                               static_cast<double>(report.deadline_jobs);
    report.mean_lateness_ms =
        lateness_sum_ / static_cast<double>(report.deadline_jobs) / 1000.0;
  }
  if (report.high_crit_jobs > 0)
    report.high_crit_miss_pct = 100.0 *
                                static_cast<double>(report.high_crit_misses) /
                                static_cast<double>(report.high_crit_jobs);
  report.max_tardiness_ms = to_ms(max_tardiness_);
  report.peak_concurrent_migrations = peak_migrations_;
  // Utilisation over the busy horizon: the run horizon extended to the last
  // port-free instant when a trailing prefetch or migration outlives the
  // last retire. The total is normalised by the port count (a saturated
  // 2-port platform reports 100%, not 200%); the per-port shares use the
  // same horizon, so they sum back to the total times the port count.
  const time_us busy_horizon = std::max(horizon_, ports_.latest_free());
  const std::size_t ports = ports_.size();
  report.port_utilisation_per_port_pct.assign(ports, 0.0);
  if (busy_horizon > 0) {
    report.port_utilisation_pct =
        100.0 * static_cast<double>(ports_.total_busy()) /
        (static_cast<double>(busy_horizon) * static_cast<double>(ports));
    for (std::size_t p = 0; p < ports; ++p)
      report.port_utilisation_per_port_pct[p] =
          100.0 * static_cast<double>(ports_.busy(p)) /
          static_cast<double>(busy_horizon);
    const int isps = std::max(constants_.isps, 1);
    report.isp_utilisation_pct =
        100.0 * static_cast<double>(isp_busy_) /
        (static_cast<double>(busy_horizon) * static_cast<double>(isps));
  }
  if (constants_.record_spans)
    report.spans.resize(static_cast<std::size_t>(arrivals_), 0);
  return report;
}

}  // namespace drhw
