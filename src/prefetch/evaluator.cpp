#include "prefetch/evaluator.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <vector>

#include "sim/port_set.hpp"
#include "util/check.hpp"

namespace drhw {

namespace {

enum class EventKind : int { load_done = 0, comm_arrival = 1, exec_done = 2 };

struct Event {
  time_us time = 0;
  EventKind kind = EventKind::load_done;
  SubtaskId subtask = 0;
  // Later events compare greater (min-heap via std::greater). Load
  // completions are processed before execution completions at equal times so
  // a just-loaded configuration is visible to a subtask becoming ready at
  // the same instant; id breaks remaining ties deterministically.
  friend bool operator>(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.subtask > b.subtask;
  }
};

/// Min-heap entry for the on-demand policy (FIFO by request time).
struct RequestEntry {
  time_us requested_at = 0;
  SubtaskId subtask = 0;
  friend bool operator>(const RequestEntry& a, const RequestEntry& b) {
    if (a.requested_at != b.requested_at)
      return a.requested_at > b.requested_at;
    return a.subtask > b.subtask;
  }
};

class Simulation {
 public:
  Simulation(const SubtaskGraph& graph, const Placement& placement,
             const PlatformConfig& platform, const LoadPlan& plan)
      : graph_(graph),
        placement_(placement),
        platform_(platform),
        plan_(plan),
        ports_(platform.reconfig_ports) {}

  EvalResult run() {
    validate_plan();
    init_state();
    init_result();

    // Initial enables at t = 0; the ports start idle.
    for (std::size_t s = 0; s < n_; ++s) {
      const auto id = static_cast<SubtaskId>(s);
      if (placement_.position_of[s] == 0) mark_arrival(id, 0);
      if (graph_.predecessors(id).empty()) mark_dag_ready(id, 0);
    }
    try_port(0);

    while (!events_.empty()) {
      const Event ev = events_.top();
      events_.pop();
      switch (ev.kind) {
        case EventKind::load_done:
          on_load_done(ev.subtask, ev.time);
          break;
        case EventKind::comm_arrival:
          on_comm_arrival(ev.subtask, ev.time);
          break;
        case EventKind::exec_done:
          on_exec_done(ev.subtask, ev.time);
          break;
      }
    }

    for (std::size_t s = 0; s < n_; ++s) {
      if (!finished_[s]) {
        // Only a user-supplied explicit order can wedge the port; the
        // dynamic policies always make progress.
        if (plan_.policy == LoadPolicy::explicit_order)
          throw std::invalid_argument(
              "explicit load order is infeasible for this placement "
              "(head-of-line deadlock)");
        DRHW_CHECK_MSG(false, "evaluator stalled with a dynamic load policy");
      }
    }
    finalize_result();
    return std::move(result_);
  }

 private:
  /// Checks every load id and records its position in the plan.
  void validate_plan() {
    load_rank_.assign(n_, k_not_loaded);
    for (std::size_t i = 0; i < plan_.loads.size(); ++i) {
      const SubtaskId s = plan_.loads[i];
      if (s < 0 || static_cast<std::size_t>(s) >= n_)
        throw std::invalid_argument("plan load id out of range");
      if (!placement_.on_drhw(s))
        throw std::invalid_argument("plan loads a non-DRHW subtask");
      std::size_t& rank = load_rank_[static_cast<std::size_t>(s)];
      if (rank != k_not_loaded)
        throw std::invalid_argument("plan loads a subtask twice");
      rank = i;
    }
  }

  bool planned(std::size_t idx) const {
    return load_rank_[idx] != k_not_loaded;
  }

  void init_state() {
    preds_left_.assign(n_, 0);
    dag_ready_.assign(n_, k_no_time);
    arrival_.assign(n_, k_no_time);
    started_.assign(n_, 0);
    finished_.assign(n_, 0);
    load_started_.assign(n_, 0);
    config_done_.assign(n_, 0);
    for (std::size_t s = 0; s < n_; ++s)
      preds_left_[s] = static_cast<int>(
          graph_.predecessors(static_cast<SubtaskId>(s)).size());
  }

  void init_result() {
    result_.exec_start.assign(n_, k_no_time);
    result_.exec_end.assign(n_, k_no_time);
    result_.load_start.assign(n_, k_no_time);
    result_.load_end.assign(n_, k_no_time);
    result_.delayed_by_load.assign(n_, false);
    result_.tile_last_exec_end.assign(
        static_cast<std::size_t>(placement_.tiles_used), 0);
  }

  // -- state transitions -----------------------------------------------

  void mark_arrival(SubtaskId s, time_us t) {
    const auto idx = static_cast<std::size_t>(s);
    DRHW_CHECK(arrival_[idx] == k_no_time);
    arrival_[idx] = t;
    if (planned(idx)) {
      if (plan_.policy == LoadPolicy::priority)
        eligible_.push(load_rank_[idx]);
      else if (plan_.policy == LoadPolicy::on_demand &&
               dag_ready_[idx] != k_no_time)
        requests_.push({dag_ready_[idx], s});
      try_port(t);
    } else {
      try_exec(s, t);
    }
  }

  void mark_dag_ready(SubtaskId s, time_us t) {
    const auto idx = static_cast<std::size_t>(s);
    DRHW_CHECK(dag_ready_[idx] == k_no_time);
    dag_ready_[idx] = t;
    if (planned(idx) && plan_.policy == LoadPolicy::on_demand &&
        arrival_[idx] != k_no_time) {
      requests_.push({t, s});
      try_port(t);
    }
    try_exec(s, t);
  }

  void try_exec(SubtaskId s, time_us t) {
    const auto idx = static_cast<std::size_t>(s);
    if (started_[idx]) return;
    if (dag_ready_[idx] == k_no_time || arrival_[idx] == k_no_time) return;
    if (planned(idx) && !config_done_[idx]) return;
    started_[idx] = 1;
    result_.exec_start[idx] = t;
    result_.exec_end[idx] = t + graph_.subtask(s).exec_time;
    events_.push({result_.exec_end[idx], EventKind::exec_done, s});
  }

  /// Reconfiguration latency of one subtask (per-bitstream override or the
  /// platform default).
  time_us load_duration(SubtaskId s) const {
    const time_us own = graph_.subtask(s).load_time;
    return own != k_no_time ? own : platform_.reconfig_latency;
  }

  /// Starts loads on every free port while loads are serviceable under the
  /// plan's policy.
  void try_port(time_us t) {
    for (;;) {
      // Earliest-free port, lowest index on ties — the same PortSet scan
      // the online kernel uses, so the design-time estimate and the
      // run-time kernel never diverge over a tie-break.
      const std::size_t port = ports_.earliest();
      if (!ports_.idle_at(port, t)) return;  // LoadDone will retrigger us
      const SubtaskId s = select_load(t);
      if (s == k_no_subtask) return;
      const auto idx = static_cast<std::size_t>(s);
      load_started_[idx] = 1;
      result_.load_start[idx] = t;
      result_.load_end[idx] = ports_.dispatch(port, t, load_duration(s));
      result_.load_order.push_back(s);
      ++result_.loads;
      events_.push({result_.load_end[idx], EventKind::load_done, s});
    }
  }

  SubtaskId select_load(time_us) {
    switch (plan_.policy) {
      case LoadPolicy::explicit_order: {
        if (next_explicit_ == plan_.loads.size()) return k_no_subtask;
        const SubtaskId s = plan_.loads[next_explicit_];
        if (arrival_[static_cast<std::size_t>(s)] == k_no_time)
          return k_no_subtask;  // head-of-line block
        ++next_explicit_;
        return s;
      }
      case LoadPolicy::priority: {
        // The arrived load earliest in the plan's order; each subtask
        // arrives once, so each plan position is pushed once.
        if (eligible_.empty()) return k_no_subtask;
        const std::size_t rank = eligible_.top();
        eligible_.pop();
        return plan_.loads[rank];
      }
      case LoadPolicy::on_demand: {
        while (!requests_.empty()) {
          const SubtaskId s = requests_.top().subtask;
          if (load_started_[static_cast<std::size_t>(s)]) {
            requests_.pop();
            continue;
          }
          requests_.pop();
          return s;
        }
        return k_no_subtask;
      }
    }
    return k_no_subtask;
  }

  // -- event handlers ----------------------------------------------------

  void on_load_done(SubtaskId s, time_us t) {
    config_done_[static_cast<std::size_t>(s)] = 1;
    try_exec(s, t);
    try_port(t);
  }

  void on_exec_done(SubtaskId s, time_us t) {
    const auto idx = static_cast<std::size_t>(s);
    finished_[idx] = 1;

    // Advance the unit: the next subtask in sequence arrives.
    const TileId tile = placement_.tile_of[idx];
    const auto& seq =
        tile != k_no_tile
            ? placement_.tile_sequence[static_cast<std::size_t>(tile)]
            : placement_
                  .isp_sequence[static_cast<std::size_t>(placement_.isp_of[idx])];
    const auto pos = static_cast<std::size_t>(placement_.position_of[idx]);
    if (pos + 1 < seq.size()) mark_arrival(seq[pos + 1], t);
    if (tile != k_no_tile)
      result_.tile_last_exec_end[static_cast<std::size_t>(tile)] = std::max(
          result_.tile_last_exec_end[static_cast<std::size_t>(tile)], t);

    // Wake successors: data travels over the ICN, so a successor learns of
    // the completion only after the communication latency.
    for (SubtaskId succ : graph_.successors(s)) {
      const time_us comm = edge_comm(s, succ);
      if (comm == 0) {
        if (--preds_left_[static_cast<std::size_t>(succ)] == 0)
          mark_dag_ready(succ, t);
      } else {
        events_.push({t + comm, EventKind::comm_arrival, succ});
      }
    }
    try_port(t);
  }

  void on_comm_arrival(SubtaskId succ, time_us t) {
    if (--preds_left_[static_cast<std::size_t>(succ)] == 0)
      mark_dag_ready(succ, t);
  }

  /// ICN latency of the edge from -> to under the placement.
  time_us edge_comm(SubtaskId from, SubtaskId to) const {
    const auto f = static_cast<std::size_t>(from);
    const auto g = static_cast<std::size_t>(to);
    const bool from_isp = placement_.tile_of[f] == k_no_tile;
    const bool to_isp = placement_.tile_of[g] == k_no_tile;
    return icn_comm_latency(
        platform_, from_isp ? placement_.isp_of[f] : placement_.tile_of[f],
        from_isp, to_isp ? placement_.isp_of[g] : placement_.tile_of[g],
        to_isp);
  }

  void finalize_result() {
    result_.makespan = 0;
    result_.last_load_end = k_no_time;
    for (std::size_t s = 0; s < n_; ++s) {
      result_.makespan = std::max(result_.makespan, result_.exec_end[s]);
      if (result_.load_end[s] != k_no_time) {
        result_.last_load_end =
            std::max(result_.last_load_end, result_.load_end[s]);
        const time_us other =
            std::max(dag_ready_[s], arrival_[s]);
        result_.delayed_by_load[s] =
            result_.exec_start[s] == result_.load_end[s] &&
            result_.load_end[s] > other;
      }
    }
  }

  const SubtaskGraph& graph_;
  const Placement& placement_;
  const PlatformConfig& platform_;
  const LoadPlan& plan_;
  const std::size_t n_ = graph_.size();

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  /// priority policy: plan positions of the arrived loads, earliest first.
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>>
      eligible_;
  std::priority_queue<RequestEntry, std::vector<RequestEntry>, std::greater<>>
      requests_;
  static constexpr std::size_t k_not_loaded = static_cast<std::size_t>(-1);
  /// Position of each subtask in plan_.loads, k_not_loaded if not loaded.
  std::vector<std::size_t> load_rank_;
  std::vector<int> preds_left_;
  std::vector<time_us> dag_ready_;
  std::vector<time_us> arrival_;
  std::vector<char> started_, finished_, load_started_, config_done_;
  PortSet ports_;
  std::size_t next_explicit_ = 0;
  EvalResult result_;
};

}  // namespace

EvalResult evaluate(const SubtaskGraph& graph, const Placement& placement,
                    const PlatformConfig& platform, const LoadPlan& plan) {
  platform.validate();
  return Simulation(graph, placement, platform, plan).run();
}

time_us ideal_makespan(const SubtaskGraph& graph, const Placement& placement,
                       const PlatformConfig& platform) {
  return evaluate(graph, placement, platform,
                  LoadPlan{LoadPolicy::explicit_order, {}})
      .makespan;
}

}  // namespace drhw
