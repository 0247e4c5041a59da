#pragma once

/// \file tile_pool.hpp
/// Run-time ownership of the physical tile pool for the online kernel.
///
/// PR 2's EventSimulator admitted queued task instances with a hard-coded
/// FIFO head-of-line check over a free-tile count, so one large queued
/// instance could idle a fragmented pool indefinitely. This subsystem carves
/// that ownership out into a TilePoolManager: it tracks which tiles are held
/// by live instances, reserved by backlog prefetches, or free (possibly
/// with a reusable cached configuration), runs a pluggable admission policy
/// over the arrival-ordered wait queue, and — when contiguous allocation is
/// on — plans an online defragmentation pass that relocates idle resident
/// configurations through the reconfiguration port to open contiguous room
/// for a fragmentation-blocked queue head. On multi-port platforms several
/// relocations may be in flight at once (one per spare port): each source
/// tile is flagged and excluded from every free-tile view until its move
/// lands, and each migration commits or aborts independently.
///
/// Admission disciplines:
///  * fifo_hol         — PR 2 behaviour, bit-identical: only the oldest
///                       queued instance may be admitted, and only when the
///                       pool fits it.
///  * backfill_bypass  — when the head does not fit, a *smaller* queued
///                       instance that does fit may bypass it, up to
///                       `max_bypass` overtakes; after that the head gets
///                       exclusive access (starvation bound).
///  * window_reorder   — best-fit over the first `reorder_window` queued
///                       instances: the largest one that fits is admitted
///                       (ties by arrival order), with the same starvation
///                       bound protecting the head.
///
/// Deadline-aware admission (select_urgent) replaces the discipline for
/// the edf/llf policies: the most urgent queued instance that fits, read
/// off a per-footprint urgency index in O(tiles + log queue) per pick,
/// with the same starvation bound.
///
/// Fragmentation metric: 100 * (1 - largest_free_block / free_count), the
/// classic external-fragmentation measure — 0 when every free tile is in
/// one contiguous run, approaching 100 when free tiles are scattered
/// singletons. The pool samples it at every occupancy change (a `frag`
/// event) so reports carry a time-weighted mean, not a snapshot.
///
/// The pool keeps no report counters. It describes what a report counts —
/// queue skips, fragmentation samples, completed migrations and free
/// remaps — as TraceEvents to its sink (the kernel's OnlineAccounting fold,
/// sim/online_accounting.hpp).
///
/// The pool never touches the event queue or the port: the simulator asks
/// it *what* to do (select / offer_into / plan_defrag) and tells it what
/// happened (occupy / release / reserve / finish_*). That keeps every
/// policy decision in one place and the simulator a pure event dispatcher.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "reuse/config_store.hpp"
#include "util/ids.hpp"
#include "util/perf_stats.hpp"
#include "util/time.hpp"

namespace drhw {

class TraceSink;  // sim/trace_hook.hpp — event-stream observer

/// Which queued instance may be admitted next onto the tile pool.
enum class AdmissionPolicy {
  fifo_hol,         ///< oldest first, head-of-line blocking (PR 2 behaviour)
  backfill_bypass,  ///< smaller instances may bypass a blocked head (bounded)
  window_reorder,   ///< best-fit within a bounded reorder window
};

const char* to_string(AdmissionPolicy policy);
AdmissionPolicy admission_policy_from_string(const std::string& text);

/// Tile-pool behaviour knobs. Defaults reproduce PR 2 bit-identically.
struct PoolOptions {
  AdmissionPolicy admission = AdmissionPolicy::fifo_hol;
  /// Contiguous allocation: an instance needs a run of *adjacent* free
  /// tiles (column-style partial reconfiguration); off = any free tiles
  /// suffice (the PR 2 count-based model).
  bool contiguous = false;
  /// Online defragmentation: when the queue head is blocked purely by
  /// fragmentation, relocate idle resident configurations through the
  /// reconfiguration port (charged at real reconfiguration latency) to
  /// open a contiguous run. Requires `contiguous`.
  bool defrag = false;
  /// window_reorder: how many queued instances may be considered.
  int reorder_window = 4;
  /// backfill_bypass / window_reorder: overtakes the queue head tolerates
  /// before only it may be admitted (starvation bound).
  int max_bypass = 8;

  /// Throws std::invalid_argument when the combination is unusable.
  void validate() const;
};

/// One planned relocation of the defragmentation pass. When `src` still
/// holds a configuration the move is a real reconfiguration (port time);
/// an empty held tile is remapped for free (nothing to copy).
struct MigrationPlan {
  PhysTileId src = k_no_phys_tile;
  PhysTileId dst = k_no_phys_tile;
  std::int32_t owner = -1;        ///< live instance holding `src`
  ConfigId config = k_no_config;  ///< k_no_config: free remap
  double value = 0.0;             ///< replacement value travelling along

  bool needs_port() const { return config != k_no_config; }
};

/// Occupancy, admission-queue and defragmentation state of the pool.
class TilePoolManager {
 public:
  TilePoolManager(int tiles, const PoolOptions& options);

  int tiles() const { return static_cast<int>(owner_.size()); }
  const PoolOptions& options() const { return options_; }
  ConfigStore& store() { return store_; }
  const ConfigStore& store() const { return store_; }

  /// Routes tracked allocation counts (admission-queue growth) to the
  /// kernel's perf-counter layer. Optional; may be null.
  void set_perf_counters(PerfCounters* perf) { perf_ = perf; }

  /// Routes the pool's events (queue_skip, frag, migration_done, remap) to
  /// `trace`. Optional; may be null.
  void set_trace_sink(TraceSink* trace) { trace_ = trace; }

  // --- admission queue (strict arrival order) -----------------------------
  //
  // Stored as a flat vector consumed from a moving head index: admitted
  // entries behind the head become tombstones (job == -1) instead of being
  // erased, so occupy() is O(1) for the common pick-the-remembered-entry
  // case instead of the former find_if + vector::erase O(n) — which made
  // saturated backlogs quadratic in the backlog length. The dead prefix is
  // compacted once it dominates the vector (amortised O(1), allocation-
  // free), and the storage is recycled across the run.
  //
  // Beside the queue, an urgency index keeps one min-heap per tile
  // footprint (0..tiles), keyed by (urgency, enqueue sequence). Admitted
  // entries are deleted lazily, when they surface at a heap top; the heaps
  // are rebuilt from the live entries whenever the queue compacts, so they
  // never hold more entries than the queue vector. Their storage grows
  // with the queue vector's, inside its tracked allocation.

  /// Registers an arrived, not-yet-admitted instance needing `needed`
  /// tiles. `urgency` is select_urgent()'s key (lower = more urgent); it is
  /// fixed for the whole wait, so a re-enqueued instance passes it again.
  void enqueue(std::int32_t job, int needed, time_us now,
               long long urgency = 0);
  bool queue_empty() const { return queued_count_ == 0; }
  std::size_t queued() const { return queued_count_; }
  std::int32_t queue_head() const;

  /// Calls `visit(job)` for the first `count` queued jobs, oldest first,
  /// until it returns true. One forward walk over the queue.
  template <class Visit>
  void visit_queued(std::size_t count, Visit&& visit) const {
    for (std::size_t p = head_; p < queue_.size() && count > 0; ++p) {
      if (queue_[p].job < 0) continue;
      --count;
      if (visit(queue_[p].job)) return;
    }
  }

  /// Next admissible queued job under the admission policy, or -1. Charges
  /// the queue-skip metric for every older instance the pick overtakes; the
  /// caller must follow up with offer_into() + occupy() for the returned job.
  std::int32_t select(time_us now);

  /// Deadline-aware admission (the online kernel's EDF/LLF path): among
  /// every queued instance that currently fits, picks the one with the
  /// lowest enqueue-time urgency, ties broken by arrival order. The
  /// configured `max_bypass` starvation bound still protects the queue
  /// head: once the head has been overtaken that many times, nothing else
  /// is admitted until the head fits. Charges the queue-skip metric like
  /// select(); same offer_into() + occupy() follow-up contract. Reads the pick
  /// off the urgency index: the minimum over the heap tops of the
  /// footprints that fit, O(tiles + log queue) per pick plus the lazily
  /// deleted entries it pops (each popped once).
  std::int32_t select_urgent(time_us now);

  /// Tiles offered to the binder for `job`, ascending. Non-contiguous
  /// pools offer every free tile (the PR 2 view). Contiguous pools offer
  /// the best free block of the job's size: most `wanted` configurations
  /// already resident, least overlap with the active defragmentation
  /// window, leftmost. Written into caller-owned storage (cleared first),
  /// so admission does not allocate.
  void offer_into(std::int32_t job, const std::vector<ConfigId>& wanted,
                  std::vector<PhysTileId>& out) const;

  /// Marks `tiles` held by `job` and removes it from the queue.
  void occupy(std::int32_t job, const std::vector<PhysTileId>& tiles,
              time_us now);

  /// Frees every tile held by `job` (the instance retired). Resident
  /// configurations stay behind as reusable cached copies.
  void release(std::int32_t job, time_us now);

  // --- backlog-prefetch reservations --------------------------------------

  /// Victim among free, unprotected tiles: empty tiles first, then lowest
  /// replacement value, then least recently used (PR 2 order). Reads
  /// `protected_tiles` at the free tiles only.
  PhysTileId prefetch_victim(const std::vector<char>& protected_tiles) const;
  void reserve(PhysTileId tile, ConfigId config, double value, time_us now);
  /// Prefetch load completed: records the configuration on the tile, lifts
  /// the reservation, returns the configuration that was loading.
  ConfigId finish_prefetch(PhysTileId tile, time_us now);

  // --- occupancy queries ---------------------------------------------------

  std::int32_t owner(PhysTileId tile) const;
  bool migrating(PhysTileId tile) const {
    return migrating_[checked(tile)] != 0;
  }
  /// Calls `visit(tile)` for the free tiles in ascending order, until it
  /// returns true. Reads the free-tile bitset a word at a time.
  template <class Visit>
  void visit_free(Visit&& visit) const {
    for (std::size_t w = 0; w < free_bits_.size(); ++w)
      for (std::uint64_t bits = free_bits_[w]; bits != 0; bits &= bits - 1) {
        const auto bit = static_cast<std::size_t>(__builtin_ctzll(bits));
        if (visit(static_cast<PhysTileId>(w * 64 + bit))) return;
      }
  }
  /// Free tiles: a popcount of the free-tile bitset, which every mutator
  /// keeps in step (admission asks after every event).
  int free_count() const;
  /// Longest run of adjacent free tiles: one scan of the bitset's words.
  int largest_free_block() const;
  /// Snapshot external fragmentation, see file comment. 0 when nothing is
  /// free.
  double fragmentation_pct() const;

  // --- defragmentation -----------------------------------------------------

  /// True when the oldest queued instance has enough free tiles in total
  /// but no contiguous run of its size — the regime only defragmentation
  /// can resolve.
  bool head_fragmentation_blocked() const;

  /// Plans the next relocation towards un-blocking the queue head, or
  /// nullopt (defrag off, head not fragmentation-blocked, or no clearable
  /// window). `movable[t]` marks held tiles the caller knows are safe to
  /// relocate (no running execution, no load in flight). The chosen target
  /// window is sticky per blocked head so successive moves converge
  /// instead of oscillating. Migrations already in flight do not block
  /// further planning: their sources count as "being cleared" (neither a
  /// blocker nor a veto) and their reserved destinations are excluded, so
  /// every spare port can carry its own relocation out of the same window.
  std::optional<MigrationPlan> plan_defrag(const std::vector<char>& movable);

  /// Starts a port-charged migration: `dst` becomes reserved, `src` is
  /// flagged migrating (executions on it must stall until completion).
  /// Any number may be in flight concurrently, each with independent
  /// abort/commit semantics in finish_migration().
  void begin_migration(const MigrationPlan& plan, time_us now);

  /// Migration load completed. Returns true when ownership transferred to
  /// `dst` (owner still live and the source configuration unchanged); on
  /// false `dst` merely keeps the loaded configuration as a cached copy.
  bool finish_migration(const MigrationPlan& plan, time_us now);

  /// Applies a free remap (plan.needs_port() == false) instantly.
  void apply_remap(const MigrationPlan& plan, time_us now);

  // --- preemptive checkpointing -------------------------------------------
  //
  // A preemption checkpoints a victim instance's resident configurations
  // off-chip: a TilePoolManager migration whose destination is the
  // ConfigStore itself. While the state writeout is in flight each victim
  // tile is flagged migrating (excluded from every free-tile view, like a
  // defrag source); on completion the tile is freed with its configuration
  // left behind as an ordinary reusable cached copy — exactly the
  // release() semantics — so the re-admitted victim resumes through the
  // reuse module with cached loads instead of full reconfigurations.

  /// Starts checkpointing one of a victim's held tiles. The tile must be
  /// held and not already migrating or reserved.
  void begin_checkpoint(PhysTileId tile);

  /// Checkpoint writeout landed: frees the tile, leaving the resident
  /// configuration cached in the store.
  void finish_checkpoint(PhysTileId tile, time_us now);

 private:
  struct Waiting {
    std::int32_t job = -1;
    int needed = 0;
    time_us arrival = 0;
    int skips = 0;  ///< times a younger instance was admitted past this one
    long long urgency = 0;  ///< select_urgent() key, fixed at enqueue
  };

  /// One urgency-index entry; queue_ position = seq - seq_base_.
  struct Ranked {
    long long urgency = 0;
    std::uint64_t seq = 0;
  };
  /// Heap order of the urgency index: std heaps keep the greatest on top.
  static bool later(const Ranked& a, const Ranked& b) {
    return a.urgency != b.urgency ? a.urgency > b.urgency : a.seq > b.seq;
  }
  /// Footprint the pool can take right now: the longest free run
  /// (contiguous pools) or the free-tile count.
  int capacity() const;
  /// Charges a queue skip to every live entry older than `pick`, remembers
  /// the pick and returns its job. When `pick` is past the end (nothing
  /// admissible at `room`), remembers the failed room instead and returns
  /// -1; `urgent` names the rule that failed (select_urgent()).
  std::int32_t take(std::size_t pick, int room, bool urgent, time_us now);
  /// True when the remembered failure of the same rule already answers a
  /// poll at `room` (counted as a skipped poll). Exact: every admission
  /// rule reads the backlog only through `needed <= room` and the head's
  /// skips, and only a pick changes skips, so a rule that picked nothing
  /// at room r picks nothing at any room <= r until a pick, an occupy(),
  /// or an enqueue() whose footprint fits r.
  bool cannot_pick(int room, bool urgent);
  /// Refills the urgency index from the live queue entries.
  void rebuild_index();
  /// Oldest live queue entry; queued_count_ must be > 0.
  const Waiting& head() const { return queue_[head_]; }
  /// Position of `job` in queue_, preferring the remembered select() pick.
  std::size_t position_of(std::int32_t job) const;
  /// Free for every allocation purpose: not held, not reserved and not a
  /// migration source (set_tile() keeps the bit). Migration sources are
  /// excluded even after their owner retires mid-flight: admitting someone
  /// onto a tile that is being copied out would gate their executions on a
  /// migration that will never wake them.
  bool tile_free(std::size_t idx) const {
    return (free_bits_[idx / 64] >> (idx % 64)) & 1U;
  }
  /// The one writer of owner_, reserved_ and migrating_: sets tile `idx`'s
  /// state and its bit in free_bits_.
  void set_tile(std::size_t idx, std::int32_t owner, bool reserved,
                bool migrating);
  /// One defragmentation window's state under the current occupancy.
  struct WindowScan {
    int blockers = 0;    ///< movable held tiles still to relocate
    int migrating = 0;   ///< sources already being copied out
    bool feasible = true;  ///< false: reserved or unmovable tile inside
  };
  WindowScan scan_window(int start, int needed,
                         const std::vector<char>& movable) const;
  std::size_t checked(PhysTileId tile) const;
  /// Emits the fragmentation that held since the last occupancy change, if
  /// simulated time moved on since then. Mutators call it first, while the
  /// free-tile bitset still describes the old occupancy.
  void touch(time_us now);

  PoolOptions options_;
  ConfigStore store_;
  // Per-tile state; written only through set_tile().
  std::vector<char> reserved_;
  std::vector<std::int32_t> owner_;  ///< live instance per tile, -1: not held
  std::vector<char> migrating_;  ///< per-tile: source of an in-flight move
  /// Bit t (word t / 64, bit t % 64) set iff tile_free(t); the bits past
  /// the last tile stay clear.
  std::vector<std::uint64_t> free_bits_;
  std::vector<ConfigId> prefetch_config_;
  std::vector<double> prefetch_value_;
  std::vector<Waiting> queue_;
  std::size_t head_ = 0;          ///< first possibly-live queue_ position
  std::size_t queued_count_ = 0;  ///< live (non-tombstone) entries
  std::size_t last_pick_ = static_cast<std::size_t>(-1);  ///< select()'s pick
  int failed_room_ = -1;        ///< largest room with no pick, -1: none
  bool failed_urgent_ = false;  ///< failed_room_ is select_urgent()'s
  std::uint64_t seq_base_ = 0;    ///< enqueue sequence of queue_[0]
  std::vector<std::vector<Ranked>> by_need_;  ///< urgency heap per footprint
  PerfCounters* perf_ = nullptr;
  TraceSink* trace_ = nullptr;

  int defrag_window_ = -1;       ///< sticky target window start
  int defrag_window_size_ = 0;   ///< its extent (the planned-for head's need)
  std::int32_t defrag_target_ = -1; ///< queue head the window was planned for

  time_us last_change_ = 0;  ///< instant of the last frag sample
};

}  // namespace drhw
