#pragma once

/// \file event_queue.hpp
/// The online kernel's global event queue, behind a small backend switch.
///
/// PR 2..5 drove the kernel off one std::priority_queue. A binary heap is
/// O(log n) per operation with n = *every* pending event; at million-
/// instance horizons the eagerly-pushed arrival stream alone keeps n near
/// the instance count, so every push/pop pays ~20 cache-missing levels.
/// The calendar queue (Brown 1988) replaces that with O(1) expected
/// operations: events hash into time-bucketed "days" of an adaptively
/// sized "year"; pops scan the current day, pushes insert into a short
/// sorted day list.
///
/// Both backends pop in exactly the same order: the total order is
///   (time, kind, job, subtask, seq)
/// where `seq` is the global push sequence number — equal-key events pop
/// in insertion order under *both* backends, which is the determinism
/// contract the golden pins and the 1-vs-8-thread bit-identity tests ride
/// on. The heap backend is retained for differential testing
/// (tests/test_event_sim.cpp runs both and requires bit-identical
/// OnlineReports).
///
/// The queue also feeds the perf-counter layer (util/perf_stats.hpp):
/// push/pop totals, per-kind event counts, depth histogram, and tracked
/// allocations whenever its storage grows.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/ids.hpp"
#include "util/perf_stats.hpp"
#include "util/time.hpp"

namespace drhw {

/// One pending simulation event. `kind` values and their order are owned
/// by the kernel (sim/event_sim.cpp); the queue only requires that the
/// (time, kind, job, subtask, seq) tuple orders events totally.
struct Event {
  time_us time = 0;
  std::int32_t kind = 0;
  std::int32_t job = 0;      ///< sentinel ids < 0 for pool-owned loads
  SubtaskId subtask = k_no_subtask;
  std::uint64_t seq = 0;     ///< push sequence; the final tie-break
};

/// Strict weak ordering "a pops after b". (time, kind, job, subtask) is
/// the pre-existing deterministic order of the kernel; `seq` resolves the
/// only remaining duplicates (same-instant comm events onto one successor)
/// to insertion order.
inline bool event_after(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time > b.time;
  if (a.kind != b.kind) return a.kind > b.kind;
  if (a.job != b.job) return a.job > b.job;
  if (a.subtask != b.subtask) return a.subtask > b.subtask;
  return a.seq > b.seq;
}

enum class QueueBackend {
  calendar,  ///< Brown calendar queue, O(1) expected (the default)
  heap,      ///< binary heap baseline (differential testing, bench)
};

const char* to_string(QueueBackend backend);
QueueBackend queue_backend_from_string(const std::string& text);

/// Min-queue of simulation events under event_after(). Not thread-safe;
/// one instance per simulation run.
class EventQueue {
 public:
  explicit EventQueue(QueueBackend backend = QueueBackend::calendar,
                      PerfCounters* perf = nullptr);

  QueueBackend backend() const { return backend_; }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Enqueues an event; the seq tie-break is stamped here.
  void push(time_us time, std::int32_t kind, std::int32_t job,
            SubtaskId subtask);

  /// Removes and returns the minimum event. Checked non-empty; pops are
  /// checked monotone in time (the discrete-event contract).
  Event pop();

 private:
  // calendar internals -------------------------------------------------
  std::size_t bucket_of(time_us t) const {
    return static_cast<std::size_t>(
               static_cast<std::uint64_t>(t) >> shift_) &
           mask_;
  }
  time_us day_end_of(time_us t) const {
    return ((t >> shift_) + 1) << shift_;
  }
  void calendar_push(const Event& ev);
  Event calendar_pop();
  /// Rebuilds with `buckets` days, re-estimating the day width from the
  /// current event population.
  void calendar_rebuild(std::size_t buckets);
  /// Full scan for the global minimum (triggered after one fruitless lap);
  /// repositions the day cursor onto it.
  void calendar_seek_min();

  void heap_push(const Event& ev);
  Event heap_pop();

  void note_grow(const std::vector<Event>& v) {
    if (perf_ && v.size() == v.capacity()) perf_->note_alloc();
  }

  QueueBackend backend_;
  PerfCounters* perf_;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  time_us last_pop_ = 0;

  std::vector<Event> heap_;

  std::vector<std::vector<Event>> buckets_;
  std::size_t mask_ = 0;       ///< bucket count - 1 (power of two)
  unsigned shift_ = 12;        ///< day width = 1 << shift_ microseconds
  std::size_t current_ = 0;    ///< day cursor
  time_us day_end_ = 0;        ///< exclusive end of the cursor's day
};

}  // namespace drhw
