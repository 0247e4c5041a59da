#include "sim/instance_arena.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace drhw {

void InstanceArena::configure(std::size_t stride, PerfCounters* perf) {
  stride_ = stride;
  perf_ = perf;
  live_ = 0;
  slots_.clear();
  free_.clear();
  preds_left.clear();
  dag_ready.clear();
  arrived.clear();
  started.clear();
  finished.clear();
  load_started.clear();
  config_done.clear();
  needs.clear();
  init_load.clear();
  isp_queued.clear();
}

std::int32_t InstanceArena::acquire(std::int32_t job, std::size_t graph_size) {
  DRHW_CHECK_LE_MSG(graph_size, stride_,
                    "instance graph larger than the arena stride");
  std::int32_t s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
  } else {
    s = static_cast<std::int32_t>(slots_.size());
    slots_.emplace_back();
    const std::size_t total = slots_.size() * stride_;
    preds_left.resize(total, 0);
    dag_ready.resize(total, k_no_time);
    arrived.resize(total, k_no_time);
    started.resize(total, 0);
    finished.resize(total, 0);
    load_started.resize(total, 0);
    config_done.resize(total, 0);
    needs.resize(total, 0);
    init_load.resize(total, 0);
    isp_queued.resize(total, 0);
    if (perf_) {
      perf_->note_alloc();
      ++perf_->arena_slots_created;
    }
  }
  ++live_;
  if (perf_ && live_ > perf_->arena_slots_peak)
    perf_->arena_slots_peak = live_;

  InstanceSlot& slot = slots_[static_cast<std::size_t>(s)];
  slot.job = job;
  slot.admit = k_no_time;
  slot.sched_done = true;
  slot.init_done = true;
  slot.policy = LoadPolicy::on_demand;
  slot.order.clear();
  slot.next_explicit = 0;
  slot.init_count = 0;
  slot.init_pending = 0;
  slot.phys_of_tile.clear();
  slot.reused = 0;
  slot.cancelled = 0;
  slot.loads = 0;
  slot.finished_count = 0;
  slot.pending_loads = 0;
  slot.deadline = k_no_time;
  slot.criticality = 0;

  const std::size_t b = base(s);
  std::fill_n(preds_left.begin() + b, graph_size, 0);
  std::fill_n(dag_ready.begin() + b, graph_size, k_no_time);
  std::fill_n(arrived.begin() + b, graph_size, k_no_time);
  std::fill_n(started.begin() + b, graph_size, 0);
  std::fill_n(finished.begin() + b, graph_size, 0);
  std::fill_n(load_started.begin() + b, graph_size, 0);
  std::fill_n(config_done.begin() + b, graph_size, 0);
  std::fill_n(needs.begin() + b, graph_size, 0);
  std::fill_n(init_load.begin() + b, graph_size, 0);
  std::fill_n(isp_queued.begin() + b, graph_size, 0);
  return s;
}

void InstanceArena::release(std::int32_t slot) {
  DRHW_CHECK_MSG(slot >= 0 &&
                     static_cast<std::size_t>(slot) < slots_.size() &&
                     slots_[static_cast<std::size_t>(slot)].job >= 0,
                 "releasing an instance slot that is not live");
  slots_[static_cast<std::size_t>(slot)].job = -1;
  free_.push_back(slot);
  --live_;
}

}  // namespace drhw
