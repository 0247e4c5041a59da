#include "prefetch/evaluator.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "util/check.hpp"

namespace drhw {

namespace {
constexpr std::size_t k_not_loaded = static_cast<std::size_t>(-1);
}  // namespace

/// One evaluation over an EvalWorkspace's storage, writing into a
/// caller-owned EvalResult.
class EvalRun {
 public:
  EvalRun(const SubtaskGraph& graph, const Placement& placement,
          const PlatformConfig& platform, const LoadPlan& plan,
          EvalWorkspace& ws, EvalResult& result)
      : graph_(graph),
        placement_(placement),
        platform_(platform),
        plan_(plan),
        ws_(ws),
        result_(result) {}

  void run() {
    validate_plan();
    init_state();
    init_result();

    // The ports start idle at t = 0. An initialization phase holds the
    // instance back until its last load completes (on_load_done()).
    if (plan_.init_count == 0)
      release(0);
    else
      try_port(0);

    while (!ws_.events_.empty()) {
      const Event ev = ws_.events_.front();
      heap_pop(ws_.events_);
      switch (ev.kind) {
        case EventKind::load_done:
          on_load_done(ev.subtask, ev.time);
          break;
        case EventKind::exec_done:
          on_exec_done(ev.subtask, ev.time);
          break;
      }
    }

    for (std::size_t s = 0; s < n_; ++s) {
      if (!ws_.finished_[s]) {
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
  }

 private:
  using Event = EvalWorkspace::Event;
  using EventKind = EvalWorkspace::EventKind;

  template <class T>
  static void heap_push(std::vector<T>& heap, const T& entry) {
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  }
  template <class T>
  static void heap_pop(std::vector<T>& heap) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    heap.pop_back();
  }

  /// Checks the plan and every load id, and records each load's position
  /// in the plan.
  void validate_plan() {
    check_load_plan(plan_);
    ws_.load_rank_.assign(n_, k_not_loaded);
    for (std::size_t i = 0; i < plan_.loads.size(); ++i) {
      const SubtaskId s = plan_.loads[i];
      if (s < 0 || static_cast<std::size_t>(s) >= n_)
        throw std::invalid_argument("plan load id out of range");
      if (!placement_.on_drhw(s))
        throw std::invalid_argument("plan loads a non-DRHW subtask");
      std::size_t& rank = ws_.load_rank_[static_cast<std::size_t>(s)];
      if (rank != k_not_loaded)
        throw std::invalid_argument("plan loads a subtask twice");
      rank = i;
    }
  }

  bool planned(std::size_t idx) const {
    return ws_.load_rank_[idx] != k_not_loaded;
  }

  void init_state() {
    ws_.events_.clear();
    ws_.eligible_.clear();
    ws_.requests_.clear();
    ws_.preds_left_.assign(n_, 0);
    ws_.dag_ready_.assign(n_, k_no_time);
    ws_.arrival_.assign(n_, k_no_time);
    ws_.started_.assign(n_, 0);
    ws_.finished_.assign(n_, 0);
    ws_.load_started_.assign(n_, 0);
    ws_.config_done_.assign(n_, 0);
    ws_.ports_.reset(platform_.reconfig_ports);
    for (std::size_t s = 0; s < n_; ++s)
      ws_.preds_left_[s] = static_cast<int>(
          graph_.predecessors(static_cast<SubtaskId>(s)).size());
  }

  void init_result() {
    result_.makespan = 0;
    result_.exec_start.assign(n_, k_no_time);
    result_.exec_end.assign(n_, k_no_time);
    result_.load_start.assign(n_, k_no_time);
    result_.load_end.assign(n_, k_no_time);
    result_.delayed_by_load.assign(n_, false);
    result_.load_order.clear();
    result_.last_load_end = k_no_time;
    result_.tile_last_exec_end.assign(
        static_cast<std::size_t>(placement_.tiles_used), 0);
    result_.loads = 0;
  }

  // -- state transitions -----------------------------------------------

  /// Starts the instance proper at `t`: the first subtask of every unit
  /// arrives and every source is ready. Nothing arrives earlier, so until
  /// then no load after the initialization prefix passes the head-of-line
  /// gate and no execution starts — which is how every load and execution
  /// waits for the initialization phase.
  void release(time_us t) {
    for (std::size_t s = 0; s < n_; ++s) {
      const auto id = static_cast<SubtaskId>(s);
      if (placement_.position_of[s] == 0) mark_arrival(id, t);
      if (graph_.predecessors(id).empty()) mark_dag_ready(id, t);
    }
    try_port(t);
  }

  void mark_arrival(SubtaskId s, time_us t) {
    const auto idx = static_cast<std::size_t>(s);
    DRHW_CHECK(ws_.arrival_[idx] == k_no_time);
    ws_.arrival_[idx] = t;
    // An initialization load's configuration is in place before its
    // subtask arrives: it executes like a resident one.
    if (planned(idx) && !ws_.config_done_[idx]) {
      if (plan_.policy == LoadPolicy::priority)
        heap_push(ws_.eligible_, ws_.load_rank_[idx]);
      else if (plan_.policy == LoadPolicy::on_demand &&
               ws_.dag_ready_[idx] != k_no_time)
        heap_push(ws_.requests_, {ws_.dag_ready_[idx], s});
      try_port(t);
    } else {
      try_exec(s, t);
    }
  }

  void mark_dag_ready(SubtaskId s, time_us t) {
    const auto idx = static_cast<std::size_t>(s);
    DRHW_CHECK(ws_.dag_ready_[idx] == k_no_time);
    ws_.dag_ready_[idx] = t;
    if (planned(idx) && plan_.policy == LoadPolicy::on_demand &&
        ws_.arrival_[idx] != k_no_time) {
      heap_push(ws_.requests_, {t, s});
      try_port(t);
    }
    try_exec(s, t);
  }

  void try_exec(SubtaskId s, time_us t) {
    const auto idx = static_cast<std::size_t>(s);
    if (ws_.started_[idx]) return;
    if (ws_.dag_ready_[idx] == k_no_time || ws_.arrival_[idx] == k_no_time)
      return;
    if (planned(idx) && !ws_.config_done_[idx]) return;
    ws_.started_[idx] = 1;
    result_.exec_start[idx] = t;
    result_.exec_end[idx] = t + graph_.subtask(s).exec_time;
    heap_push(ws_.events_,
              Event{result_.exec_end[idx], EventKind::exec_done, s});
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
    PortSet& ports = ws_.ports_;
    for (;;) {
      // Earliest-free port, lowest index on ties — the same PortSet scan
      // the online kernel uses, so the design-time estimate and the
      // run-time kernel never diverge over a tie-break.
      const std::size_t port = ports.earliest();
      if (!ports.idle_at(port, t)) return;  // LoadDone will retrigger us
      const SubtaskId s = select_load();
      if (s == k_no_subtask) return;
      const auto idx = static_cast<std::size_t>(s);
      ws_.load_started_[idx] = 1;
      result_.load_start[idx] = t;
      result_.load_end[idx] = ports.dispatch(port, t, load_duration(s));
      result_.load_order.push_back(s);
      ++result_.loads;
      heap_push(ws_.events_,
                Event{result_.load_end[idx], EventKind::load_done, s});
    }
  }

  SubtaskId select_load() {
    switch (plan_.policy) {
      case LoadPolicy::explicit_order: {
        if (next_explicit_ == plan_.loads.size()) return k_no_subtask;
        const SubtaskId s = plan_.loads[next_explicit_];
        // The initialization prefix is exempt from the unit-order gate.
        if (next_explicit_ >= plan_.init_count &&
            ws_.arrival_[static_cast<std::size_t>(s)] == k_no_time)
          return k_no_subtask;  // head-of-line block
        ++next_explicit_;
        return s;
      }
      case LoadPolicy::priority: {
        // The arrived load earliest in the plan's order; each subtask
        // arrives once, so each plan position is pushed once.
        if (ws_.eligible_.empty()) return k_no_subtask;
        const std::size_t rank = ws_.eligible_.front();
        heap_pop(ws_.eligible_);
        return plan_.loads[rank];
      }
      case LoadPolicy::on_demand: {
        while (!ws_.requests_.empty()) {
          const SubtaskId s = ws_.requests_.front().subtask;
          heap_pop(ws_.requests_);
          if (ws_.load_started_[static_cast<std::size_t>(s)]) continue;
          return s;
        }
        return k_no_subtask;
      }
    }
    return k_no_subtask;
  }

  // -- event handlers ----------------------------------------------------

  void on_load_done(SubtaskId s, time_us t) {
    const auto idx = static_cast<std::size_t>(s);
    ws_.config_done_[idx] = 1;
    try_exec(s, t);
    try_port(t);
    if (ws_.load_rank_[idx] < plan_.init_count &&
        ++init_loads_done_ == plan_.init_count)
      release(t);
  }

  void on_exec_done(SubtaskId s, time_us t) {
    const auto idx = static_cast<std::size_t>(s);
    ws_.finished_[idx] = 1;

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

    for (SubtaskId succ : graph_.successors(s))
      if (--ws_.preds_left_[static_cast<std::size_t>(succ)] == 0)
        mark_dag_ready(succ, t);
    try_port(t);
  }

  void finalize_result() {
    for (std::size_t s = 0; s < n_; ++s) {
      result_.makespan = std::max(result_.makespan, result_.exec_end[s]);
      if (result_.load_end[s] != k_no_time) {
        result_.last_load_end =
            std::max(result_.last_load_end, result_.load_end[s]);
        // Neither is earlier than the end of the initialization phase.
        const time_us other = std::max(ws_.dag_ready_[s], ws_.arrival_[s]);
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
  EvalWorkspace& ws_;
  EvalResult& result_;
  const std::size_t n_ = graph_.size();
  std::size_t next_explicit_ = 0;
  std::size_t init_loads_done_ = 0;
};

void EvalWorkspace::evaluate(const SubtaskGraph& graph,
                             const Placement& placement,
                             const PlatformConfig& platform,
                             const LoadPlan& plan, EvalResult& out) {
  platform.validate();
  EvalRun(graph, placement, platform, plan, *this, out).run();
}

EvalResult evaluate(const SubtaskGraph& graph, const Placement& placement,
                    const PlatformConfig& platform, const LoadPlan& plan) {
  EvalWorkspace workspace;
  EvalResult result;
  workspace.evaluate(graph, placement, platform, plan, result);
  return result;
}

time_us ideal_makespan(const SubtaskGraph& graph, const Placement& placement,
                       const PlatformConfig& platform) {
  return evaluate(graph, placement, platform,
                  LoadPlan{LoadPolicy::explicit_order, {}})
      .makespan;
}

}  // namespace drhw
