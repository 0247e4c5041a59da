#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace drhw {

namespace {

/// Smallest bucket array; below this the calendar never shrinks.
constexpr std::size_t k_min_buckets = 16;
/// Day-width exponent ceiling (2^40 us ≈ 13 days of simulated time).
constexpr unsigned k_max_shift = 40;

}  // namespace

EventQueue::EventQueue(PerfCounters* perf) : perf_(perf) {
  buckets_.assign(k_min_buckets, {});
  mask_ = k_min_buckets - 1;
}

void EventQueue::push(time_us time, std::int32_t kind, std::int32_t job,
                      SubtaskId subtask) {
  DRHW_CHECK_GE_MSG(time, 0, "events cannot be scheduled before t = 0");
  const Event ev{time, kind, job, subtask, next_seq_++};
  calendar_push(ev);
  ++size_;
  if (perf_) perf_->note_push(kind, size_);
}

Event EventQueue::pop() {
  DRHW_CHECK_GT_MSG(size_, 0u, "pop from an empty event queue");
  const Event ev = calendar_pop();
  --size_;
  DRHW_CHECK_GE_MSG(ev.time, last_pop_,
                    "event queue popped backwards in time");
  last_pop_ = ev.time;
  if (perf_) perf_->note_pop();
  return ev;
}

// --- calendar queue ---------------------------------------------------------
//
// Days are 2^shift_ microseconds wide; day d of the year maps to bucket
// d & mask_. Each bucket keeps its events sorted descending under
// event_after(), so back() is the bucket's minimum. The cursor walks
// (current_, day_end_) day by day; an event is popped only when it lies in
// the cursor's day, which is exactly Brown's "current year" guard. A push
// behind the cursor's day rewinds the cursor (the cursor only ever skips
// days it proved empty, so the rewound event is the new minimum of the
// skipped region).

void EventQueue::calendar_push(const Event& ev) {
  if (size_ == 0) {
    current_ = bucket_of(ev.time);
    day_end_ = day_end_of(ev.time);
  } else if (ev.time < day_end_ - (time_us{1} << shift_)) {
    current_ = bucket_of(ev.time);
    day_end_ = day_end_of(ev.time);
  }
  std::vector<Event>& bucket = buckets_[bucket_of(ev.time)];
  note_grow(bucket);
  bucket.insert(
      std::lower_bound(bucket.begin(), bucket.end(), ev, event_after), ev);
  if (size_ + 1 > 2 * buckets_.size()) calendar_rebuild(2 * buckets_.size());
}

Event EventQueue::calendar_pop() {
  for (std::size_t scanned = 0;;) {
    std::vector<Event>& bucket = buckets_[current_];
    if (!bucket.empty() && bucket.back().time < day_end_) {
      const Event ev = bucket.back();
      bucket.pop_back();
      if (size_ - 1 < buckets_.size() / 4 && buckets_.size() > k_min_buckets)
        calendar_rebuild(buckets_.size() / 2);
      return ev;
    }
    current_ = (current_ + 1) & mask_;
    day_end_ += time_us{1} << shift_;
    if (++scanned == buckets_.size()) {
      calendar_seek_min();
      scanned = 0;
    }
  }
}

void EventQueue::calendar_seek_min() {
  const Event* min = nullptr;
  for (const std::vector<Event>& bucket : buckets_) {
    if (bucket.empty()) continue;
    if (min == nullptr || event_after(*min, bucket.back()))
      min = &bucket.back();
  }
  DRHW_CHECK_MSG(min != nullptr, "calendar cursor lost its events");
  current_ = bucket_of(min->time);
  day_end_ = day_end_of(min->time);
}

void EventQueue::calendar_rebuild(std::size_t buckets) {
  std::vector<Event> all;
  all.reserve(size_ + 1);
  time_us lo = 0, hi = 0;
  bool first = true;
  for (std::vector<Event>& bucket : buckets_) {
    for (const Event& ev : bucket) {
      if (first || ev.time < lo) lo = ev.time;
      if (first || ev.time > hi) hi = ev.time;
      first = false;
      all.push_back(ev);
    }
    bucket.clear();
  }
  // Brown's width rule: roughly three mean inter-event gaps per day, so a
  // day holds a handful of events. Degenerate spans collapse to width 1.
  if (!all.empty()) {
    const auto span = static_cast<std::uint64_t>(hi - lo);
    const auto width =
        std::max<std::uint64_t>(1, 3 * span / all.size());
    shift_ = static_cast<unsigned>(log2_bucket(width));
    if (shift_ > k_max_shift) shift_ = k_max_shift;
  }
  buckets_.assign(buckets, {});
  mask_ = buckets - 1;
  for (const Event& ev : all) {
    std::vector<Event>& bucket = buckets_[bucket_of(ev.time)];
    bucket.push_back(ev);
  }
  for (std::vector<Event>& bucket : buckets_)
    std::sort(bucket.begin(), bucket.end(), event_after);
  if (!all.empty()) calendar_seek_min();
  if (perf_) {
    ++perf_->calendar_resizes;
    perf_->note_alloc();
  }
}

}  // namespace drhw
