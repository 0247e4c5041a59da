// Tests for the calendar event queue (sim/event_queue.hpp): it pops every
// workload in the order of a std::priority_queue oracle under the same
// event_after() and seq stamps, equal-timestamp events pop in
// insertion-sequence order, and the calendar-specific paths —
// behind-the-cursor rewind, grow/shrink rebuilds, the fruitless-lap seek —
// preserve that order.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace drhw {
namespace {

struct PoppedEvent {
  time_us time = 0;
  std::int32_t kind = 0;
  std::int32_t job = 0;
  SubtaskId subtask = 0;
  std::uint64_t seq = 0;
};

bool operator==(const PoppedEvent& a, const PoppedEvent& b) {
  return a.time == b.time && a.kind == b.kind && a.job == b.job &&
         a.subtask == b.subtask && a.seq == b.seq;
}

/// The reference ordering: a binary heap under event_after(), stamping
/// `seq` in push order exactly as EventQueue does.
class OracleQueue {
 public:
  bool empty() const { return heap_.empty(); }
  void push(time_us time, std::int32_t kind, std::int32_t job,
            SubtaskId subtask) {
    heap_.push({time, kind, job, subtask, next_seq_++});
  }
  Event pop() {
    const Event ev = heap_.top();
    heap_.pop();
    return ev;
  }

 private:
  std::priority_queue<Event, std::vector<Event>, decltype(&event_after)>
      heap_{&event_after};
  std::uint64_t next_seq_ = 0;
};

/// Replays push/pop `ops` (push when the op is >= 0, as many pops when
/// negative) and returns the popped trace.
template <typename Queue>
std::vector<PoppedEvent> replay(const std::vector<Event>& pushes,
                                const std::vector<int>& ops) {
  Queue queue;
  std::vector<PoppedEvent> trace;
  std::size_t next = 0;
  for (const int op : ops) {
    if (op >= 0) {
      const Event& ev = pushes[next++];
      queue.push(ev.time, ev.kind, ev.job, ev.subtask);
    } else {
      for (int i = 0; i < -op && !queue.empty(); ++i) {
        const Event ev = queue.pop();
        trace.push_back({ev.time, ev.kind, ev.job, ev.subtask, ev.seq});
      }
    }
  }
  while (!queue.empty()) {
    const Event ev = queue.pop();
    trace.push_back({ev.time, ev.kind, ev.job, ev.subtask, ev.seq});
  }
  return trace;
}

TEST(EventQueue, EqualTimestampEventsPopInInsertionOrder) {
  // Same (time, kind, job, subtask) pushed repeatedly: only the push
  // sequence distinguishes them, and it must, so equal-key events drain
  // in insertion order.
  EventQueue queue;
  for (int i = 0; i < 8; ++i) queue.push(ms(1), 1, 7, 3);
  std::uint64_t last_seq = 0;
  for (int i = 0; i < 8; ++i) {
    const Event ev = queue.pop();
    if (i > 0) {
      EXPECT_GT(ev.seq, last_seq);
    }
    last_seq = ev.seq;
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, InterleavedKindsAtOneInstantPopInKernelOrder) {
  // The kernel's same-instant order: completions (kinds 0..2) before
  // arrivals (3) before sched-done (4), then job, then subtask, then seq.
  // Push shuffled, expect sorted under event_after, as the oracle pops.
  std::vector<Event> pushes;
  for (const std::int32_t kind : {3, 0, 4, 2, 1})
    for (const std::int32_t job : {2, 0, 1})
      pushes.push_back({ms(5), kind, job, 0, 0});
  const std::vector<int> ops(pushes.size(), 1);
  const auto calendar = replay<EventQueue>(pushes, ops);
  const auto oracle = replay<OracleQueue>(pushes, ops);
  ASSERT_EQ(calendar.size(), pushes.size());
  EXPECT_TRUE(calendar == oracle);
  for (std::size_t i = 1; i < calendar.size(); ++i) {
    EXPECT_LE(calendar[i - 1].kind, calendar[i].kind);
    if (calendar[i - 1].kind == calendar[i].kind) {
      EXPECT_LT(calendar[i - 1].job, calendar[i].job);
    }
  }
}

TEST(EventQueue, RandomWorkloadsDrainInTheOracleOrder) {
  // Fuzzed push/pop interleavings with clustered timestamps (lots of
  // same-day and same-instant collisions) — the popped traces must match
  // event for event, including the seq stamps.
  Rng rng(2026);
  for (int round = 0; round < 20; ++round) {
    std::vector<Event> pushes;
    std::vector<int> ops;
    time_us now = 0;
    const int n = 200 + static_cast<int>(rng.next_u64() % 800);
    for (int i = 0; i < n; ++i) {
      // Non-decreasing push times (what a discrete-event kernel emits),
      // heavy on same-instant collisions, with occasional far jumps that
      // force day advances, cursor laps and rebuild-triggering sparsity.
      const std::uint64_t r = rng.next_u64();
      now += static_cast<time_us>(
          r % 3 == 0 ? 0 : r % (r % 7 == 0 ? 2000000 : 900));
      pushes.push_back({now, static_cast<std::int32_t>(r % 5),
                        static_cast<std::int32_t>(r % 37),
                        static_cast<SubtaskId>(r % 11), 0});
      ops.push_back(1);
      if (r % 3 == 1) ops.push_back(-1 - static_cast<int>(r % 2));
    }
    const auto calendar = replay<EventQueue>(pushes, ops);
    const auto oracle = replay<OracleQueue>(pushes, ops);
    ASSERT_EQ(calendar.size(), oracle.size());
    for (std::size_t i = 0; i < calendar.size(); ++i)
      ASSERT_TRUE(calendar[i] == oracle[i]) << "round " << round << " pop "
                                            << i;
    // The trace is sorted under the queue's total order.
    for (std::size_t i = 1; i < calendar.size(); ++i)
      ASSERT_LE(calendar[i - 1].time, calendar[i].time);
  }
}

TEST(EventQueue, SparseFarJumpsLapTheCursorAndSeekTheMinimum) {
  // Events many empty "years" apart: each pop forces a fruitless lap and
  // the calendar_seek_min repositioning, which must keep time order and
  // the day cursor consistent with later same-day pushes.
  EventQueue queue;
  for (const std::int32_t j : {0, 1, 2, 3})
    queue.push(static_cast<time_us>(j) * ms(4000), 0, j, 0);
  EXPECT_EQ(queue.pop().job, 0);
  const Event second = queue.pop();
  EXPECT_EQ(second.job, 1);
  // Interleave a same-instant push mid-drain: it pops next (same time,
  // later kind), ahead of everything later in time.
  queue.push(second.time, 4, 99, 0);
  EXPECT_EQ(queue.pop().job, 99);
  EXPECT_EQ(queue.pop().job, 2);
  EXPECT_EQ(queue.pop().job, 3);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, GrowAndShrinkRebuildsPreserveOrderAndCountResizes) {
  PerfCounters perf;
  EventQueue queue(&perf);
  // 16 initial buckets: pushing > 32 pending events forces a grow rebuild.
  std::vector<time_us> times;
  Rng rng(7);
  for (int i = 0; i < 200; ++i)
    times.push_back(static_cast<time_us>(rng.next_u64() % 1000000));
  for (const time_us t : times) queue.push(t, 0, 0, 0);
  EXPECT_GT(perf.calendar_resizes, 0u);
  std::sort(times.begin(), times.end());
  // Draining to < buckets/4 pending triggers shrink rebuilds on the way.
  for (const time_us expected : times) EXPECT_EQ(queue.pop().time, expected);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(perf.queue_pushes, 200u);
  EXPECT_EQ(perf.queue_pops, 200u);
}

TEST(EventQueue, PerfCountersSeeEveryPushAndPop) {
  PerfCounters perf;
  EventQueue queue(&perf);
  for (int i = 0; i < 10; ++i) queue.push(ms(i), i % 5, i, 0);
  EXPECT_EQ(perf.queue_pushes, 10u);
  EXPECT_EQ(perf.queue_depth_max, 10u);
  EXPECT_EQ(perf.events_by_kind[0], 2u);
  EXPECT_EQ(perf.events_by_kind[4], 2u);
  while (!queue.empty()) queue.pop();
  EXPECT_EQ(perf.queue_pops, 10u);
  EXPECT_EQ(perf.events_total, 10u);
}

}  // namespace
}  // namespace drhw
