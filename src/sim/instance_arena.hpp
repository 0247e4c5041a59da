#pragma once

/// \file instance_arena.hpp
/// Arena-allocated per-instance state of the online kernel, with free-list
/// recycling of retired slots and SoA hot paths.
///
/// PR 2..5 sized every per-subtask state array by the *sum* of all graph
/// sizes in the arrival stream and kept a heavyweight Job struct (three
/// vectors each) per instance for the whole run — at million-instance
/// horizons that is gigabytes of cold memory for state that only a handful
/// of concurrently-live instances ever touch. This arena keeps exactly the
/// live working set: a retired instance's slot returns to a free list and
/// the next admission reuses it, vectors keeping their capacity, so the
/// steady state performs zero heap allocation (tracked through
/// util/perf_stats.hpp).
///
/// Layout: per-slot bookkeeping lives in an InstanceSlot struct (one per
/// live instance); the per-subtask scheduling state that the event
/// handlers hammer — predecessor counts, readiness times, phase flags —
/// lives in structure-of-arrays vectors indexed `slot * stride + subtask`,
/// where stride is the maximum graph size of the stream. Slots are
/// identity-free: nothing in the kernel orders decisions by slot id, so
/// LIFO recycling (best cache behaviour) cannot perturb determinism.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "prefetch/load_plan.hpp"
#include "util/ids.hpp"
#include "util/perf_stats.hpp"
#include "util/time.hpp"

namespace drhw {

/// Per-instance bookkeeping of one admitted, not-yet-retired instance.
/// The vectors are assign()ed on reuse and keep their capacity.
struct InstanceSlot {
  std::int32_t job = -1;  ///< arrival-stream index owning the slot
  time_us admit = k_no_time;
  /// Run-time scheduling decision charged on the timeline: loads and
  /// executions wait for it (true immediately when the cost is 0).
  bool sched_done = true;
  bool init_done = true;
  LoadPolicy policy = LoadPolicy::on_demand;
  /// The plan's loads in port order (LoadPlan::loads) for an explicit
  /// plan (init prefix first) or a priority plan; empty for on_demand.
  std::vector<SubtaskId> order;
  /// Cursor into `order`: every entry before it has started loading.
  std::size_t next_explicit = 0;
  std::size_t init_count = 0;  ///< leading entries of `order` that are
                               ///< initialization-phase loads
  int init_pending = 0;
  std::vector<PhysTileId> phys_of_tile;
  int reused = 0;
  int cancelled = 0;
  long loads = 0;
  std::size_t finished_count = 0;
  /// Configuration loads dispatched for this instance whose load_done has
  /// not landed yet. Preemption only picks victims with none in flight.
  int pending_loads = 0;
  // Real-time attributes (only meaningful when the kernel runs with
  // OnlineSimOptions::deadline_scale > 0; neutral defaults otherwise).
  time_us deadline = k_no_time;  ///< absolute deadline of the instance
  int criticality = 0;           ///< > 0: high-criticality instance
};

/// Slot allocator + the per-subtask SoA state arrays.
class InstanceArena {
 public:
  /// `stride` = maximum graph size over the stream; `perf` (optional)
  /// receives allocation counts when the arena grows.
  void configure(std::size_t stride, PerfCounters* perf);

  std::size_t stride() const { return stride_; }
  std::size_t capacity() const { return slots_.size(); }
  std::size_t live() const { return live_; }

  /// Claims a slot (recycling the most recently freed one) and resets its
  /// bookkeeping plus the first `graph_size` entries of every per-subtask
  /// array. Grows the arena when the free list is empty (tracked).
  std::int32_t acquire(std::int32_t job, std::size_t graph_size);

  /// Returns a retired instance's slot to the free list.
  void release(std::int32_t slot);

  InstanceSlot& slot(std::int32_t s) {
    return slots_[static_cast<std::size_t>(s)];
  }
  const InstanceSlot& slot(std::int32_t s) const {
    return slots_[static_cast<std::size_t>(s)];
  }

  /// Base offset of slot `s` into the per-subtask arrays.
  std::size_t base(std::int32_t s) const {
    return static_cast<std::size_t>(s) * stride_;
  }

  // Per-subtask SoA state, indexed base(slot) + subtask id. Only the
  // first graph_size entries of a slot's range are meaningful.
  std::vector<int> preds_left;
  std::vector<time_us> dag_ready, arrived;
  std::vector<char> started, finished, load_started, config_done, needs,
      init_load, isp_queued;

 private:
  std::size_t stride_ = 0;
  std::size_t live_ = 0;
  PerfCounters* perf_ = nullptr;
  std::vector<InstanceSlot> slots_;
  std::vector<std::int32_t> free_;  ///< LIFO free list of slot ids
};

}  // namespace drhw
