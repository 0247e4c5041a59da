#pragma once

/// \file evaluator.hpp
/// The timing engine shared by every prefetch scheduler: an event-driven
/// simulation of one task instance executing on the placed units while the
/// serialised reconfiguration port pushes configuration loads.
///
/// Semantics (Section 3 of DESIGN.md):
///  * a tile holds one configuration; the load of subtask `s` may start only
///    after the previous subtask on s's tile finished executing;
///  * the port performs one load at a time (latency platform.reconfig_latency);
///  * execution of `s` starts when its predecessors finished, its
///    configuration is present, and the previous subtask on its unit is done;
///  * executions on one unit follow the placement order strictly;
///  * a plan's initialization prefix (LoadPlan::init_count) dispatches
///    first, in order on the earliest-free port with no head-of-line gate,
///    and every other load and every execution (ISP executions included)
///    waits until its last load has completed — the rule the online
///    kernel applies to the same plan.

#include <vector>

#include "platform/platform.hpp"
#include "prefetch/load_plan.hpp"
#include "schedule/placement.hpp"
#include "sim/port_set.hpp"

namespace drhw {

/// Timing of one evaluated task instance, the initialization phase
/// included. All times are relative to the instance's own start (t = 0);
/// the caller offsets into global time.
struct EvalResult {
  time_us makespan = 0;
  std::vector<time_us> exec_start;
  std::vector<time_us> exec_end;
  /// k_no_time when the subtask was not loaded (resident or ISP).
  std::vector<time_us> load_start;
  std::vector<time_us> load_end;
  /// True iff the subtask's own load completion was the strict binding
  /// constraint on its execution start — the paper's "generates a delay due
  /// to its reconfiguration" test used by the critical-subtask loop. The
  /// end of the initialization phase counts among the other constraints.
  std::vector<bool> delayed_by_load;
  /// Loads in the order the port actually served them (the
  /// initialization prefix first).
  std::vector<SubtaskId> load_order;
  /// Completion time of the last load, or k_no_time when nothing was loaded.
  /// The window [last_load_end, makespan] is the "final idle period of the
  /// reconfiguration circuitry" exploited by the inter-task optimisation.
  time_us last_load_end = k_no_time;
  /// Last execution end per virtual tile (size = placement.tiles_used);
  /// after this instant a tile may be reconfigured for a future task.
  std::vector<time_us> tile_last_exec_end;
  int loads = 0;
};

/// Reusable storage of the evaluator. One evaluation needs a dozen
/// per-subtask vectors, three heaps and a port set; a caller timing one
/// instance after another (the Section 7 rig times every instance of its
/// stream) keeps one workspace and evaluates into one EvalResult, so once
/// the largest graph has been seen an evaluation allocates nothing. The
/// heaps are vectors driven by std::push_heap/std::pop_heap under
/// std::greater, which is what std::priority_queue does, so the pop order —
/// and every timing — equals a fresh evaluate()'s.
///
/// Not thread-safe: one workspace per thread of evaluation.
class EvalWorkspace {
 public:
  /// Simulates one task instance into `out`, whose vectors are re-assigned
  /// (keeping their capacity) and whose scalars are reset. Same semantics
  /// and exceptions as evaluate(); after a throw `out` is unspecified and
  /// the workspace stays usable.
  void evaluate(const SubtaskGraph& graph, const Placement& placement,
                const PlatformConfig& platform, const LoadPlan& plan,
                EvalResult& out);

 private:
  friend class EvalRun;  // evaluator.cpp: one evaluation over this storage

  enum class EventKind : int { load_done = 0, exec_done = 1 };
  struct Event {
    time_us time = 0;
    EventKind kind = EventKind::load_done;
    SubtaskId subtask = 0;
    // Later events compare greater (a min-heap under std::greater). Load
    // completions are processed before execution completions at equal
    // times so a just-loaded configuration is visible to a subtask becoming
    // ready at the same instant; id breaks remaining ties deterministically.
    friend bool operator>(const Event& a, const Event& b) {
      if (a.time != b.time) return a.time > b.time;
      if (a.kind != b.kind) return a.kind > b.kind;
      return a.subtask > b.subtask;
    }
  };
  /// Min-heap entry for the on-demand policy (FIFO by request time).
  struct Request {
    time_us requested_at = 0;
    SubtaskId subtask = 0;
    friend bool operator>(const Request& a, const Request& b) {
      if (a.requested_at != b.requested_at)
        return a.requested_at > b.requested_at;
      return a.subtask > b.subtask;
    }
  };

  std::vector<Event> events_;
  /// priority policy: plan positions of the arrived loads, earliest first.
  std::vector<std::size_t> eligible_;
  std::vector<Request> requests_;
  /// Position of each subtask in the plan's loads, or k_not_loaded.
  std::vector<std::size_t> load_rank_;
  std::vector<int> preds_left_;
  std::vector<time_us> dag_ready_;
  std::vector<time_us> arrival_;
  std::vector<char> started_, finished_, load_started_, config_done_;
  PortSet ports_{1};
};

/// Simulates one task instance; the reconfiguration ports are free at its
/// start. A thin wrapper over a fresh EvalWorkspace, for one-off callers
/// (design-time tools, examples, tests).
///
/// \throws std::invalid_argument if the plan is malformed (a load id out
///         of range, a load for an ISP subtask, or the same subtask loaded
///         twice) or if an explicit order is infeasible (head-of-line
///         deadlock against the unit orders).
/// \throws InternalError if the plan breaks check_load_plan().
EvalResult evaluate(const SubtaskGraph& graph, const Placement& placement,
                    const PlatformConfig& platform, const LoadPlan& plan);

/// Ideal makespan: evaluate with no loads at all. Equals
/// placement.ideal_makespan for placements built by list_schedule.
time_us ideal_makespan(const SubtaskGraph& graph, const Placement& placement,
                       const PlatformConfig& platform);

}  // namespace drhw
