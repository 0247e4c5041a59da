#pragma once

/// \file perf_stats.hpp
/// Lightweight performance counters for the event-driven online kernel.
///
/// The million-instance scale work needs two kinds of visibility:
///
///  * **Deterministic counters** — event counts by kind, queue push/pop
///    totals, queue-depth high-water mark and log2 depth histogram,
///    tracked allocation counts of the kernel-owned containers (event
///    queue storage, instance arena, pool admission queue), the
///    admission work (picks, backlog entries examined) and the
///    backlog-prefetch walks. These are pure functions of the simulated
///    scenario: identical across repeats and campaign-runner thread
///    counts. The campaign reports expose only this subset, so the
///    1-vs-8-thread bit-identity contract holds.
///
///  * **Wall-clock phase timers** — setup / event-loop / finalize
///    nanoseconds measured with std::chrono::steady_clock. Nondeterministic
///    by nature; they live in OnlineReport and the `drhw_sched online
///    --perf` table only, never in campaign JSON/CSV.
///
/// Allocation tracking is cooperative: kernel containers call note_alloc()
/// when they grow. Warm-up is delimited by the kernel (the first half of
/// the instance stream retiring); steady_allocations() is the post-warm-up
/// remainder, pinned to zero by tests/test_perf_stats.cpp on a long run.

// PhaseTimer is the sanctioned host-side instrumentation; its readings are
// reported, never fed to simulated state.
// drhw-lint: allow-file(wall-clock: host-side instrumentation only)

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace drhw {

/// Counters of one online simulation run. Plain aggregate; copying is the
/// report hand-off.
struct PerfCounters {
  // --- deterministic (scenario-determined) --------------------------------
  /// Events dispatched by the run loop, total and by Event::kind
  /// (kind-indexed; the online kernel uses kinds 0 and 2..4).
  std::uint64_t events_total = 0;
  std::array<std::uint64_t, 8> events_by_kind{};
  std::uint64_t queue_pushes = 0;
  std::uint64_t queue_pops = 0;
  /// High-water event-queue depth and histogram of the depth observed
  /// after each push, bucketed by floor(log2(depth)).
  std::uint64_t queue_depth_max = 0;
  std::array<std::uint64_t, 40> queue_depth_log2{};
  /// Calendar-queue bucket-array rebuilds (resizes + width re-estimates).
  std::uint64_t calendar_resizes = 0;
  /// High-water live instance-slot count and total slots ever created.
  std::uint64_t arena_slots_peak = 0;
  std::uint64_t arena_slots_created = 0;
  /// Tracked growths of kernel-owned containers (see file comment), total
  /// and the portion that happened before the warm-up boundary.
  std::uint64_t allocations = 0;
  std::uint64_t warmup_allocations = 0;
  /// Admission work: picks asked of the tile pool (TilePoolManager::select
  /// / select_urgent, including those that admit nothing, but not the
  /// polls admission_skipped counts) and the backlog entries they examined
  /// — queue entries scanned by select(), urgency-index heap tops
  /// inspected plus lazily deleted entries popped by select_urgent().
  std::uint64_t admission_picks = 0;
  std::uint64_t admission_examined = 0;
  /// Admission polls answered without a pick attempt: the pool's room was
  /// at most one at which the same rule had already picked nothing since
  /// the backlog last changed (TilePoolManager, monotone-room rule). Not
  /// counted in admission_picks; printed by --perf only.
  std::uint64_t admission_skipped = 0;
  /// Backlog-prefetch walks: idle-port calls of the inter-task prefetch
  /// that passed its early exits (non-empty backlog, open lookahead, a
  /// free tile) and walked the queue.
  std::uint64_t backlog_walks = 0;

  // --- wall clock (nondeterministic; never enters campaign outputs) -------
  std::int64_t setup_ns = 0;
  std::int64_t loop_ns = 0;
  std::int64_t finalize_ns = 0;

  /// Tracked allocations after the warm-up boundary (the steady state).
  std::uint64_t steady_allocations() const {
    return allocations - warmup_allocations;
  }

  /// One tracked container growth.
  void note_alloc() { ++allocations; }

  /// Marks the warm-up boundary: everything allocated so far is warm-up.
  void end_warmup() { warmup_allocations = allocations; }

  /// One event pushed; records the resulting queue depth.
  void note_push(int kind, std::size_t depth);

  /// One event popped and dispatched.
  void note_pop() {
    ++queue_pops;
    ++events_total;
  }
};

/// floor(log2(v)) for v >= 1 (0 maps to bucket 0).
int log2_bucket(std::uint64_t v);

/// Human-readable multi-line summary (the `drhw_sched online --perf`
/// table): counters, depth histogram, phase timings.
std::string perf_summary(const PerfCounters& perf);

/// Scoped steady_clock timer adding elapsed nanoseconds to `sink`.
class PhaseTimer {
 public:
  explicit PhaseTimer(std::int64_t& sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    sink_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - start_)
                 .count();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  std::int64_t& sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace drhw
