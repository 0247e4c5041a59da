#pragma once

/// \file critical_subtasks.hpp
/// The design-time phase of the hybrid heuristic (paper Sections 4-5).
///
/// For one scenario's schedule it computes:
///  * the Critical Subtask (CS) subset — iteratively, per Figure 4: run the
///    prefetch scheduler assuming the CS members are reused and everything
///    else is loaded; while the makespan penalty is non-zero, move the
///    delayed subtask with the greatest ALAP weight into CS;
///  * the stored load order for the non-critical subtasks, which by
///    construction hides all of their latency (zero penalty);
///  * the CS initialization order (descending weight), used by the run-time
///    initialization phase and by the inter-task optimisation.
///
/// Each pass runs the B&B up to bnb_load_threshold pending loads and the
/// list heuristic of ref. [7] above ("for large graphs we keep the heuristic
/// presented in [7]"); the threshold is the only scheduler knob. The first
/// pass loads every DRHW subtask, so its order is the design-time order.

#include <cstdint>
#include <vector>

#include "platform/platform.hpp"
#include "prefetch/evaluator.hpp"

namespace drhw {

/// Everything the run-time phase needs, produced once at design time.
struct HybridSchedule {
  /// Critical subtasks ordered by descending weight — the loading order of
  /// the initialization phase ("the subtask with the greatest weight is
  /// loaded first").
  std::vector<SubtaskId> critical;
  /// Stored design-time load order for the non-critical DRHW subtasks.
  /// Under the CS-reused assumption this order hides every load completely.
  std::vector<SubtaskId> stored_order;
  time_us ideal_makespan = 0;
  int loop_iterations = 0;  ///< CS-loop passes (reporting/benchmarks)
  /// Branch & bound statistics summed over the CS-loop passes that ran the
  /// B&B: nodes explored, and passes that hit the node budget (their order
  /// is the best found, not a proven optimum).
  std::uint64_t bnb_nodes = 0;
  int bnb_budget_hits = 0;
};

/// The CS loop's first pass: its load order and B&B statistics (zero when
/// the list heuristic ran).
struct FirstPass {
  std::vector<SubtaskId> order;
  std::uint64_t bnb_nodes = 0;
  int bnb_budget_hits = 0;
};

struct HybridDesignOptions {
  /// B&B while at most this many loads are pending, list heuristic above.
  int bnb_load_threshold = 9;
  /// Compute the initial placement with the communication-aware list
  /// scheduler (list_schedule_icn) instead of the default one-subtask-per-
  /// tile scheduler. Only relevant under a non-ideal ICN model.
  bool comm_aware_placement = false;
};

/// Runs the Figure 4 loop. Postcondition (checked): evaluating the stored
/// order with the CS subset resident yields exactly the ideal makespan.
/// When `first_pass` is given it receives the loop's first pass.
HybridSchedule compute_hybrid_schedule(const SubtaskGraph& graph,
                                       const Placement& placement,
                                       const PlatformConfig& platform,
                                       const HybridDesignOptions& options = {},
                                       FirstPass* first_pass = nullptr);

}  // namespace drhw
