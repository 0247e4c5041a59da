// Unit tests for the tile-pool subsystem: admission policies (FIFO
// head-of-line, bounded backfill, windowed best-fit reordering), contiguous
// allocation with placement-aware block selection, the defragmentation
// planner, prefetch reservations, the fragmentation metric, the
// deadline-aware urgency index (differentially tested against a linear
// scan), and the free-tile bitset (differentially tested against a
// recount, across 64-tile word boundaries).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "pool/tile_pool.hpp"
#include "sim/online_accounting.hpp"
#include "sim/trace_hook.hpp"
#include "util/check.hpp"
#include "util/perf_stats.hpp"

namespace drhw {
namespace {

PoolOptions contiguous_options(AdmissionPolicy policy =
                                   AdmissionPolicy::fifo_hol,
                               bool defrag = false) {
  PoolOptions options;
  options.admission = policy;
  options.contiguous = true;
  options.defrag = defrag;
  return options;
}

/// The pool keeps no report counters: its queue_skip, frag, migration_done
/// and remap events feed the fold that does. Attach before the first event.
struct PoolMetrics {
  explicit PoolMetrics(TilePoolManager& pool) { pool.set_trace_sink(&fold); }
  long queue_skips() const { return fold.finish().queue_skips; }
  long defrag_moves() const { return fold.finish().defrag_moves; }
  /// Time-weighted mean fragmentation of a run ending at `horizon`.
  double mean_fragmentation_pct(const TilePoolManager& pool,
                                time_us horizon) const {
    OnlineAccounting ended = fold;
    TraceEvent end(TraceEvent::Kind::run_end, horizon);
    end.value = pool.fragmentation_pct();
    ended.record(end);
    return ended.finish().mean_frag_pct;
  }
  OnlineAccounting fold{AccountingConstants{}};
};

/// The tiles `job` holds, ascending: what the kernel keeps per instance
/// and hands back to release().
std::vector<PhysTileId> held_by(const TilePoolManager& pool,
                                std::int32_t job) {
  std::vector<PhysTileId> tiles;
  for (PhysTileId t = 0; t < pool.tiles(); ++t)
    if (pool.owner(t) == job) tiles.push_back(t);
  return tiles;
}

/// Marks `job` holding exactly `tiles` (must be free), via the queue.
void force_occupy(TilePoolManager& pool, std::int32_t job,
                  const std::vector<PhysTileId>& tiles, time_us now) {
  pool.enqueue(job, static_cast<int>(tiles.size()), now);
  pool.occupy(job, tiles, now);
}

TEST(PoolOptions, ValidatesKnobs) {
  PoolOptions options;
  EXPECT_NO_THROW(options.validate());
  options.reorder_window = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options.reorder_window = 4;
  options.max_bypass = -1;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options.max_bypass = 8;
  options.defrag = true;  // defrag without contiguity is meaningless
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options.contiguous = true;
  EXPECT_NO_THROW(options.validate());
}

TEST(AdmissionPolicyNames, RoundTrip) {
  for (AdmissionPolicy policy :
       {AdmissionPolicy::fifo_hol, AdmissionPolicy::backfill_bypass,
        AdmissionPolicy::window_reorder})
    EXPECT_EQ(admission_policy_from_string(to_string(policy)), policy);
  EXPECT_THROW(admission_policy_from_string("nope"), std::invalid_argument);
}

TEST(TilePool, FifoAdmitsInArrivalOrderAndBlocksOnTheHead) {
  TilePoolManager pool(4, PoolOptions{});
  const PoolMetrics metrics(pool);
  EXPECT_EQ(pool.select(0), -1);  // empty queue
  pool.enqueue(10, 3, 0);
  pool.enqueue(11, 1, 1);
  EXPECT_EQ(pool.select(1), 10);
  pool.occupy(10, {0, 1, 2}, 1);
  // One tile free, head (11) needs one: admissible.
  EXPECT_EQ(pool.select(1), 11);
  pool.occupy(11, {3}, 1);
  pool.enqueue(12, 1, 2);
  EXPECT_EQ(pool.select(2), -1);  // pool full
  pool.release(10, {0, 1, 2}, 5);
  EXPECT_EQ(pool.free_count(), 3);
  EXPECT_EQ(pool.select(5), 12);
  EXPECT_EQ(metrics.queue_skips(), 0);  // FIFO never overtakes
}

TEST(TilePool, ReleaseFreesOnlyTilesTheRetiringJobHolds) {
  TilePoolManager pool(4, PoolOptions{});
  force_occupy(pool, 1, {0, 1}, 0);
  force_occupy(pool, 2, {2}, 0);
  EXPECT_THROW(pool.release(1, {2}, 1), InternalError);  // job 2 holds it
  EXPECT_THROW(pool.release(1, {3}, 1), InternalError);  // free
  pool.release(1, {0, 1}, 2);
  EXPECT_EQ(pool.owner(0), -1);
  EXPECT_EQ(pool.owner(1), -1);
  EXPECT_EQ(pool.owner(2), 2);
  EXPECT_EQ(pool.free_count(), 3);
}

TEST(TilePool, FifoHeadOfLineBlocksSmallerFollowers) {
  TilePoolManager pool(4, PoolOptions{});
  force_occupy(pool, 1, {0, 1, 2}, 0);
  pool.enqueue(2, 3, 1);  // blocked: only one tile free
  pool.enqueue(3, 1, 2);  // would fit, but FIFO never bypasses
  EXPECT_EQ(pool.select(2), -1);
}

TEST(TilePool, BackfillLetsSmallerInstancesBypassABlockedHead) {
  PoolOptions options;
  options.admission = AdmissionPolicy::backfill_bypass;
  TilePoolManager pool(4, options);
  const PoolMetrics metrics(pool);
  force_occupy(pool, 1, {0, 1, 2}, 0);
  pool.enqueue(2, 3, 1);  // blocked head
  pool.enqueue(3, 3, 2);  // not smaller than the head: may not bypass
  pool.enqueue(4, 1, 3);  // smaller and fits
  EXPECT_EQ(pool.select(3), 4);
  pool.occupy(4, {3}, 3);
  EXPECT_EQ(metrics.queue_skips(), 2);  // overtook jobs 2 and 3
}

TEST(TilePool, BackfillStarvationBoundProtectsTheHead) {
  PoolOptions options;
  options.admission = AdmissionPolicy::backfill_bypass;
  options.max_bypass = 2;
  TilePoolManager pool(4, options);
  force_occupy(pool, 1, {0, 1, 2}, 0);
  pool.enqueue(2, 3, 1);  // blocked head
  for (std::int32_t job = 3; job <= 4; ++job) {
    pool.enqueue(job, 1, job);
    ASSERT_EQ(pool.select(job), job);
    pool.occupy(job, {3}, job);
    pool.release(job, held_by(pool, job), job);
  }
  // The head has been overtaken max_bypass times: now only it may go.
  pool.enqueue(5, 1, 5);
  EXPECT_EQ(pool.select(5), -1);
  pool.release(1, held_by(pool, 1), 6);
  EXPECT_EQ(pool.select(6), 2);  // head admitted as soon as it fits
}

TEST(TilePool, WindowReorderPicksBestFitWithinTheWindow) {
  PoolOptions options;
  options.admission = AdmissionPolicy::window_reorder;
  options.reorder_window = 3;
  TilePoolManager pool(6, options);
  force_occupy(pool, 1, {0, 1, 2, 3}, 0);
  pool.enqueue(2, 4, 1);  // blocked head (4 > 2 free)
  pool.enqueue(3, 1, 2);
  pool.enqueue(4, 2, 3);  // best fit: largest that fits
  pool.enqueue(5, 2, 4);  // outside pick: same size but later
  EXPECT_EQ(pool.select(4), 4);
  pool.occupy(4, {4, 5}, 4);
  // Beyond the window nothing is considered.
  pool.release(4, held_by(pool, 4), 5);
  PoolOptions tight = options;
  tight.reorder_window = 1;
  TilePoolManager head_only(6, tight);
  force_occupy(head_only, 1, {0, 1, 2, 3}, 0);
  head_only.enqueue(2, 4, 1);
  head_only.enqueue(3, 1, 2);  // fits, but outside the window of 1
  EXPECT_EQ(head_only.select(2), -1);
}

TEST(TilePool, ContiguousAdmissionNeedsARunNotJustACount) {
  TilePoolManager pool(6, contiguous_options());
  // Hold tiles 1 and 4: free tiles 0, 2, 3, 5 -> largest run is 2.
  force_occupy(pool, 1, {1}, 0);
  force_occupy(pool, 2, {4}, 0);
  EXPECT_EQ(pool.free_count(), 4);
  EXPECT_EQ(pool.largest_free_block(), 2);
  pool.enqueue(3, 3, 1);
  EXPECT_EQ(pool.select(1), -1);  // three scattered tiles do not fit
  EXPECT_TRUE(pool.head_fragmentation_blocked());
  pool.release(2, held_by(pool, 2), 2);
  EXPECT_EQ(pool.largest_free_block(), 4);
  EXPECT_EQ(pool.select(2), 3);
  std::vector<PhysTileId> offer;
  pool.offer_into(3, {}, offer);
  ASSERT_EQ(offer.size(), 3u);
  for (std::size_t i = 1; i < offer.size(); ++i)
    EXPECT_EQ(offer[i], offer[i - 1] + 1) << "offer must be contiguous";
}

TEST(TilePool, ContiguousOfferPrefersBlocksWithWantedConfigs) {
  TilePoolManager pool(6, contiguous_options());
  // Two candidate blocks of size 2 around a held middle pair; the right
  // one has a wanted configuration cached.
  force_occupy(pool, 1, {2, 3}, 0);
  pool.store().record_load(4, 77, ms(1), 1.0);
  pool.enqueue(2, 2, 2);
  std::vector<PhysTileId> offer;
  pool.offer_into(2, {77}, offer);
  ASSERT_EQ(offer.size(), 2u);
  EXPECT_EQ(offer[0], 4);
  EXPECT_EQ(offer[1], 5);
  // Without the wanted config the leftmost block wins.
  pool.offer_into(2, {}, offer);
  EXPECT_EQ(offer[0], 0);
}

TEST(TilePool, PrefetchVictimPrefersEmptyThenLowValueThenLru) {
  TilePoolManager pool(4, PoolOptions{});
  const std::vector<char> none(4, 0);
  pool.store().record_load(0, 1, ms(1), 5.0);
  pool.store().record_load(1, 2, ms(2), 1.0);
  // Tile 2 and 3 empty -> first empty wins.
  EXPECT_EQ(pool.prefetch_victim(none), 2);
  pool.store().record_load(2, 3, ms(3), 9.0);
  pool.store().record_load(3, 4, ms(4), 9.0);
  // No empties: lowest value (tile 1).
  EXPECT_EQ(pool.prefetch_victim(none), 1);
  std::vector<char> protect(4, 0);
  protect[1] = 1;
  // Value ties (2 vs 3) break by least recently used.
  EXPECT_EQ(pool.prefetch_victim(protect), 0);
  protect[0] = 1;
  EXPECT_EQ(pool.prefetch_victim(protect), 2);
}

TEST(TilePool, PrefetchReservationLifecycle) {
  TilePoolManager pool(2, PoolOptions{});
  pool.reserve(1, 42, 3.0, ms(1));
  EXPECT_EQ(pool.free_count(), 1);
  EXPECT_EQ(pool.finish_prefetch(1, ms(5)), 42);
  EXPECT_EQ(pool.store().config_on(1), 42);
  EXPECT_EQ(pool.store().last_used(1), ms(5));
  EXPECT_EQ(pool.free_count(), 2);  // cached configs stay free
}

TEST(TilePool, DefragPlansAMigrationThatOpensTheNeededRun) {
  TilePoolManager pool(6, contiguous_options(AdmissionPolicy::fifo_hol,
                                             /*defrag=*/true));
  const PoolMetrics metrics(pool);
  // Job 1 holds tiles 1 and 4 with loaded configs; free = {0,2,3,5}.
  force_occupy(pool, 1, {1, 4}, 0);
  pool.store().record_load(1, 10, ms(1), 1.0);
  pool.store().record_load(4, 11, ms(1), 1.0);
  pool.enqueue(2, 3, 2);
  ASSERT_TRUE(pool.head_fragmentation_blocked());
  const std::vector<char> movable(6, 1);
  const auto plan = pool.plan_defrag(movable);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->needs_port());
  EXPECT_EQ(plan->owner, 1);
  pool.begin_migration(*plan, ms(2));
  EXPECT_TRUE(pool.migrating(plan->src));
  EXPECT_TRUE(pool.finish_migration(*plan, ms(6)));
  // Ownership moved, the configuration travelled, the source keeps a
  // cached copy, and the head now fits.
  EXPECT_EQ(pool.owner(plan->dst), 1);
  EXPECT_EQ(pool.owner(plan->src), -1);
  EXPECT_EQ(pool.store().config_on(plan->dst),
            pool.store().config_on(plan->src));
  EXPECT_GE(pool.largest_free_block(), 3);
  EXPECT_EQ(pool.select(ms(6)), 2);
  EXPECT_EQ(metrics.defrag_moves(), 1);
}

TEST(TilePool, DefragRemapsEmptyHeldTilesForFree) {
  TilePoolManager pool(6, contiguous_options(AdmissionPolicy::fifo_hol,
                                             /*defrag=*/true));
  const PoolMetrics metrics(pool);
  force_occupy(pool, 1, {1, 4}, 0);  // held but never loaded -> empty
  pool.enqueue(2, 3, 1);
  const std::vector<char> movable(6, 1);
  const auto plan = pool.plan_defrag(movable);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->needs_port());  // nothing to copy
  pool.apply_remap(*plan, ms(1));
  EXPECT_EQ(pool.owner(plan->dst), 1);
  EXPECT_EQ(pool.owner(plan->src), -1);
  EXPECT_EQ(metrics.defrag_moves(), 1);
}

TEST(TilePool, DefragAbortsTransferWhenTheSourceChangedMidFlight) {
  TilePoolManager pool(6, contiguous_options(AdmissionPolicy::fifo_hol,
                                             /*defrag=*/true));
  force_occupy(pool, 1, {1, 4}, 0);
  pool.store().record_load(1, 10, ms(1), 1.0);
  pool.store().record_load(4, 11, ms(1), 1.0);
  pool.enqueue(2, 3, 2);
  const std::vector<char> movable(6, 1);
  const auto plan = pool.plan_defrag(movable);
  ASSERT_TRUE(plan.has_value());
  pool.begin_migration(*plan, ms(2));
  // A competing load lands on the source mid-migration.
  pool.store().record_load(plan->src, 99, ms(3), 2.0);
  EXPECT_FALSE(pool.finish_migration(*plan, ms(6)));
  // The owner keeps the (rewritten) source; the destination holds the old
  // configuration as a reusable cached copy on a free tile.
  EXPECT_EQ(pool.owner(plan->src), 1);
  EXPECT_EQ(pool.owner(plan->dst), -1);
  EXPECT_EQ(pool.store().config_on(plan->dst), plan->config);
}

TEST(TilePool, MigrationSourceIsNotFreeEvenAfterOwnerRetires) {
  TilePoolManager pool(4, contiguous_options(AdmissionPolicy::fifo_hol,
                                             /*defrag=*/true));
  force_occupy(pool, 1, {1}, 0);
  pool.store().record_load(1, 10, ms(1), 1.0);
  pool.enqueue(2, 3, 1);  // fragmentation-blocked head (free {0, 2, 3})
  const std::vector<char> movable(4, 1);
  const auto plan = pool.plan_defrag(movable);
  ASSERT_TRUE(plan.has_value());
  pool.begin_migration(*plan, ms(2));
  pool.release(1, held_by(pool, 1), ms(3));  // owner retires mid-migration
  // The source tile must not be handed to a new instance while the copy
  // is in flight (its executions would gate on a wakeup that never comes),
  // so the pool still cannot fit the head.
  EXPECT_EQ(pool.free_count(), 2);  // src + dst excluded
  EXPECT_EQ(pool.select(ms(3)), -1);
  // Completion aborts the transfer (owner gone) and frees everything.
  EXPECT_FALSE(pool.finish_migration(*plan, ms(6)));
  EXPECT_EQ(pool.free_count(), 4);
  EXPECT_EQ(pool.select(ms(6)), 2);
}

TEST(TilePool, TwoMigrationsRunConcurrentlyWithIndependentCommits) {
  // Multi-port defragmentation: planning continues while a migration is in
  // flight, so a spare port can carry a second relocation out of the same
  // sticky window. Each move commits (or aborts) on its own.
  TilePoolManager pool(12, contiguous_options(AdmissionPolicy::fifo_hol,
                                              /*defrag=*/true));
  const PoolMetrics metrics(pool);
  force_occupy(pool, 1, {2, 5, 8, 11}, 0);
  pool.store().record_load(2, 10, ms(1), 1.0);
  pool.store().record_load(5, 11, ms(1), 1.0);
  pool.store().record_load(8, 12, ms(1), 1.0);
  pool.store().record_load(11, 13, ms(1), 1.0);
  // Free tiles come in runs of two, so the 6-wide head is blocked purely
  // by fragmentation, every 6-wide window holds two movable blockers
  // (clearing one takes two relocations), and enough slack remains for
  // both moves to be in flight without starving the head's tile budget.
  pool.enqueue(2, 6, 2);
  ASSERT_TRUE(pool.head_fragmentation_blocked());
  const std::vector<char> movable(12, 1);

  const auto first = pool.plan_defrag(movable);
  ASSERT_TRUE(first.has_value());
  pool.begin_migration(*first, ms(2));
  // The second plan must pick a different source (the first is already
  // being cleared) and a different destination (the first's is reserved).
  const auto second = pool.plan_defrag(movable);
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->src, first->src);
  EXPECT_NE(second->dst, first->dst);
  pool.begin_migration(*second, ms(3));

  EXPECT_TRUE(pool.migrating(first->src));
  EXPECT_TRUE(pool.migrating(second->src));
  // Both sources and both destinations are excluded from every free view.
  EXPECT_EQ(pool.free_count(), 6);
  // With both window blockers in flight the sticky window is held — no
  // third plan until a move lands.
  EXPECT_FALSE(pool.plan_defrag(movable).has_value());

  // Moves land out of order; each transfers independently.
  EXPECT_TRUE(pool.finish_migration(*second, ms(6)));
  EXPECT_TRUE(pool.migrating(first->src));
  EXPECT_FALSE(pool.migrating(second->src));
  EXPECT_TRUE(pool.finish_migration(*first, ms(7)));
  EXPECT_EQ(metrics.defrag_moves(), 2);
  // The window is clear: the head admits.
  EXPECT_GE(pool.largest_free_block(), 6);
  EXPECT_EQ(pool.select(ms(7)), 2);
}

TEST(TilePool, ConcurrentMigrationsAbortIndependently) {
  TilePoolManager pool(12, contiguous_options(AdmissionPolicy::fifo_hol,
                                              /*defrag=*/true));
  force_occupy(pool, 1, {2, 5, 8, 11}, 0);
  pool.store().record_load(2, 10, ms(1), 1.0);
  pool.store().record_load(5, 11, ms(1), 1.0);
  pool.store().record_load(8, 12, ms(1), 1.0);
  pool.store().record_load(11, 13, ms(1), 1.0);
  pool.enqueue(2, 6, 2);
  const std::vector<char> movable(12, 1);
  const auto first = pool.plan_defrag(movable);
  ASSERT_TRUE(first.has_value());
  pool.begin_migration(*first, ms(2));
  const auto second = pool.plan_defrag(movable);
  ASSERT_TRUE(second.has_value());
  pool.begin_migration(*second, ms(3));

  // A competing load overwrites the *first* source mid-flight: that move
  // aborts (cached copy at the destination), the other still transfers.
  pool.store().record_load(first->src, 99, ms(4), 2.0);
  EXPECT_FALSE(pool.finish_migration(*first, ms(6)));
  EXPECT_EQ(pool.owner(first->src), 1);
  EXPECT_EQ(pool.owner(first->dst), -1);
  EXPECT_TRUE(pool.finish_migration(*second, ms(7)));
  EXPECT_EQ(pool.owner(second->dst), 1);
  EXPECT_EQ(pool.owner(second->src), -1);
}

TEST(TilePool, FragmentationMetricIsTimeWeighted) {
  TilePoolManager pool(4, PoolOptions{});
  const PoolMetrics metrics(pool);
  // [0, 10ms): everything free -> fragmentation 0.
  // Hold tile 1 at 10ms: free {0, 2, 3}, largest run 2 -> 33.33%.
  force_occupy(pool, 1, {1}, ms(10));
  EXPECT_NEAR(pool.fragmentation_pct(), 100.0 / 3.0, 1e-9);
  // Over [0, 20ms) the mean is half of the snapshot.
  EXPECT_NEAR(metrics.mean_fragmentation_pct(pool, ms(20)), 100.0 / 6.0,
              1e-9);
  EXPECT_EQ(metrics.mean_fragmentation_pct(pool, 0), 0.0);
}

TEST(TilePool, EnqueueRejectsOversizedInstances) {
  TilePoolManager pool(2, PoolOptions{});
  EXPECT_THROW(pool.enqueue(1, 3, 0), InternalError);
  EXPECT_THROW(pool.enqueue(1, -1, 0), InternalError);
}

TEST(TilePool, CheckpointLifecycleFreesTilesButKeepsConfigsCached) {
  // Preemptive checkpointing: a victim's held tiles go migrating (excluded
  // from every free view) during the writeout, then free with the
  // configurations still cached, so a re-admitted victim degrades its
  // reloads to cached hits.
  TilePoolManager pool(4, PoolOptions{});
  force_occupy(pool, 1, {0, 1}, 0);
  pool.store().record_load(0, 10, ms(1), 1.0);
  pool.store().record_load(1, 11, ms(1), 1.0);

  pool.begin_checkpoint(0);
  pool.begin_checkpoint(1);
  EXPECT_TRUE(pool.migrating(0));
  EXPECT_TRUE(pool.migrating(1));
  EXPECT_EQ(pool.free_count(), 2);  // checkpointing tiles are not free

  pool.finish_checkpoint(0, ms(5));
  pool.finish_checkpoint(1, ms(5));
  EXPECT_EQ(pool.owner(0), -1);
  EXPECT_EQ(pool.owner(1), -1);
  EXPECT_EQ(pool.free_count(), 4);
  // The configurations stay as reusable cached copies.
  EXPECT_EQ(pool.store().config_on(0), 10);
  EXPECT_EQ(pool.store().config_on(1), 11);

  // Resume: the victim re-admits onto the same tiles and its loads are
  // cached hits (config_on matches what it needs).
  pool.enqueue(1, 2, ms(6));
  EXPECT_EQ(pool.select(ms(6)), 1);
  pool.occupy(1, {0, 1}, ms(6));
  EXPECT_EQ(pool.store().config_on(0), 10);
}

TEST(TilePool, AFailedPollAnswersEveryPollAtNoMoreRoom) {
  TilePoolManager pool(4, PoolOptions{});
  PerfCounters perf;
  pool.set_perf_counters(&perf);
  force_occupy(pool, 1, {0, 1}, 0);
  force_occupy(pool, 2, {2}, 0);
  pool.enqueue(10, 2, 1);
  EXPECT_EQ(pool.select(1), -1);  // room 1: the head does not fit
  EXPECT_EQ(pool.select(2), -1);  // same room, answered at once
  EXPECT_EQ(perf.admission_picks, 1u);
  EXPECT_EQ(perf.admission_skipped, 1u);
  // A failure of the FIFO rule says nothing about the urgent rule, which
  // admits the fitting newcomer behind the blocked head.
  pool.enqueue(11, 1, 3);
  EXPECT_EQ(pool.select(3), -1);
  EXPECT_EQ(pool.select_urgent(3), 11);
  pool.occupy(11, {3}, 3);
  EXPECT_EQ(perf.admission_skipped, 1u);
  // More room than the remembered failure runs the rule again.
  pool.release(2, held_by(pool, 2), 4);
  pool.release(11, held_by(pool, 11), 4);
  EXPECT_EQ(pool.select(4), 10);
  EXPECT_EQ(perf.admission_picks, 4u);
  EXPECT_EQ(perf.admission_skipped, 1u);
}

TEST(TilePool, SelectUrgentPicksTheMostUrgentFittingInstance) {
  TilePoolManager pool(4, PoolOptions{});
  const PoolMetrics metrics(pool);
  force_occupy(pool, 1, {0, 1, 2}, 0);
  pool.enqueue(10, 1, 1, 30);
  pool.enqueue(11, 1, 2, 10);  // most urgent
  pool.enqueue(12, 3, 3, 5);   // more urgent still, but does not fit
  EXPECT_EQ(pool.select_urgent(3), 11);
  pool.occupy(11, {3}, 3);
  EXPECT_EQ(metrics.queue_skips(), 1);  // overtook job 10
  EXPECT_EQ(pool.select_urgent(4), -1);  // nothing fits
}

TEST(TilePool, SelectUrgentHonoursTheStarvationBound) {
  PoolOptions options;
  options.max_bypass = 2;
  TilePoolManager pool(4, options);
  force_occupy(pool, 1, {0, 1, 2}, 0);
  pool.enqueue(10, 1, 1, 100);  // head, least urgent
  for (std::int32_t job = 20; job <= 21; ++job) {
    pool.enqueue(job, 1, job, job);
    ASSERT_EQ(pool.select_urgent(job), job);
    pool.occupy(job, {3}, job);
    pool.release(job, held_by(pool, job), job);
  }
  // The head has been bypassed max_bypass times: now only it may go.
  pool.enqueue(22, 1, 22, 22);
  EXPECT_EQ(pool.select_urgent(23), 10);
}

/// Linear-scan reference of select_urgent(): the most urgent entry that
/// fits `room` (ties by arrival), the max_bypass rule protecting the head,
/// and one skip per live entry the pick overtakes.
struct UrgentReference {
  struct Entry {
    std::int32_t job = -1;
    int needed = 0;
    long long urgency = 0;
    int skips = 0;
  };
  std::vector<Entry> queue;  // arrival order; admitted entries erased
  int max_bypass = 0;
  long skips = 0;

  std::int32_t pick(int room) {
    const std::size_t none = queue.size();
    std::size_t best = none;
    for (std::size_t i = 0; i < queue.size(); ++i)
      if (queue[i].needed <= room &&
          (best == none || queue[i].urgency < queue[best].urgency))
        best = i;
    if (best != none && best != 0 && queue[0].skips >= max_bypass)
      best = queue[0].needed <= room ? 0 : none;
    if (best == none) return -1;
    for (std::size_t i = 0; i < best; ++i) ++queue[i].skips;
    skips += static_cast<long>(best);
    const std::int32_t job = queue[best].job;
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(best));
    return job;
  }
};

/// Counts the pool's queue_skip events.
struct SkipCounter final : TraceSink {
  void record(const TraceEvent& ev) override {
    if (ev.kind == TraceEvent::Kind::queue_skip) ++skips;
  }
  long skips = 0;
};

/// Differential test of the urgency index: seeded random enqueue / pick +
/// occupy / release / checkpoint + re-enqueue sequences against the linear
/// scan above, on contiguous and count-based pools, max_bypass 0-3. Fill
/// and drain phases alternate so the backlog both empties and grows deep
/// enough for the queue to compact (dead prefix >= 64) with entries live.
TEST(TilePool, SelectUrgentMatchesALinearScan) {
  constexpr int k_tiles = 6;
  for (const bool contiguous : {false, true})
    for (int max_bypass = 0; max_bypass <= 3; ++max_bypass)
      for (const unsigned seed : {1u, 2u}) {
        SCOPED_TRACE(::testing::Message()
                     << "contiguous=" << contiguous
                     << " max_bypass=" << max_bypass << " seed=" << seed);
        PoolOptions options;
        options.contiguous = contiguous;
        options.max_bypass = max_bypass;
        TilePoolManager pool(k_tiles, options);
        SkipCounter counter;
        pool.set_trace_sink(&counter);
        PerfCounters perf;
        pool.set_perf_counters(&perf);
        UrgentReference ref;
        ref.max_bypass = max_bypass;
        std::mt19937 rng(seed);
        std::vector<UrgentReference::Entry> jobs;  // by job id
        std::vector<std::int32_t> live;            // admitted jobs
        std::vector<PhysTileId> offered;
        const auto enqueue = [&](std::int32_t job, time_us now) {
          const UrgentReference::Entry& w = jobs[static_cast<std::size_t>(job)];
          pool.enqueue(job, w.needed, now, w.urgency);
          ref.queue.push_back(w);
        };
        for (time_us step = 0; step < 3000; ++step) {
          const bool filling = (step / 300) % 2 == 0;
          const unsigned op = rng() % 100;
          if (op < (filling ? 45u : 5u)) {
            // Urgency creeps up with time so the head is often the most
            // urgent, with small random offsets for ties and overtakes.
            const auto job = static_cast<std::int32_t>(jobs.size());
            jobs.push_back({job, static_cast<int>(rng() % (k_tiles + 1)),
                            step / 16 + static_cast<long long>(rng() % 4), 0});
            enqueue(job, step);
          } else if (op < 75) {
            const int room = contiguous ? pool.largest_free_block()
                                        : pool.free_count();
            const std::int32_t expected = ref.pick(room);
            const std::int32_t job = pool.select_urgent(step);
            ASSERT_EQ(job, expected) << "step " << step;
            ASSERT_EQ(counter.skips, ref.skips) << "step " << step;
            if (job < 0) continue;
            pool.offer_into(job, {}, offered);
            pool.occupy(job, offered, step);
            live.push_back(job);
          } else if (!live.empty()) {
            const std::size_t at = rng() % live.size();
            const std::int32_t job = live[at];
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
            if (op < 92) {
              pool.release(job, held_by(pool, job), step);
              continue;
            }
            // Checkpoint: free the victim's tiles, re-enqueue it with its
            // original urgency.
            for (PhysTileId t = 0; t < k_tiles; ++t)
              if (pool.owner(t) == job) pool.begin_checkpoint(t);
            for (PhysTileId t = 0; t < k_tiles; ++t)
              if (pool.owner(t) == job) pool.finish_checkpoint(t, step);
            enqueue(job, step);
          }
        }
        // The reference runs every poll; the pool answered some at once.
        EXPECT_GT(perf.admission_skipped, 0u);
      }
}

/// Remembers the value of the last frag event the pool emitted.
struct FragProbe final : TraceSink {
  void record(const TraceEvent& ev) override {
    if (ev.kind != TraceEvent::Kind::frag) return;
    ++samples;
    last = ev.value;
  }
  long samples = 0;
  double last = 0.0;
};

/// The test's own occupancy model of a pool: who holds each tile, and
/// whether it is reserved or the source of an in-flight move.
struct OccupancyModel {
  explicit OccupancyModel(int tiles)
      : owner(static_cast<std::size_t>(tiles), -1),
        reserved(static_cast<std::size_t>(tiles), 0),
        migrating(static_cast<std::size_t>(tiles), 0) {}
  bool free(std::size_t t) const {
    return owner[t] < 0 && !reserved[t] && !migrating[t];
  }
  std::vector<PhysTileId> tiles_where(
      const std::function<bool(std::size_t)>& keep) const {
    std::vector<PhysTileId> out;
    for (std::size_t t = 0; t < owner.size(); ++t)
      if (keep(t)) out.push_back(static_cast<PhysTileId>(t));
    return out;
  }
  std::vector<std::int32_t> owner;
  std::vector<char> reserved, migrating;
};

/// The free-tile views of a pool recounted tile by tile from its owner()
/// and migrating() and the test's mirror of its reservations: the
/// reference the pool's free-tile bitset must match.
struct FreeRecount {
  FreeRecount(const TilePoolManager& pool, const std::vector<char>& reserved)
      : free(reserved.size(), 0) {
    for (std::size_t t = 0; t < free.size(); ++t) {
      const auto tile = static_cast<PhysTileId>(t);
      free[t] = pool.owner(tile) < 0 && !pool.migrating(tile) && !reserved[t];
    }
  }
  int count() const {
    int n = 0;
    for (const char f : free) n += f;
    return n;
  }
  int largest_block() const {
    int best = 0, run = 0;
    for (const char f : free) {
      run = f ? run + 1 : 0;
      best = std::max(best, run);
    }
    return best;
  }
  double fragmentation_pct() const {
    const int n = count();
    return n == 0 ? 0.0
                  : 100.0 * (1.0 - static_cast<double>(largest_block()) /
                                       static_cast<double>(n));
  }
  /// offer_into() without a defragmentation window: every free tile, or
  /// the leftmost free block of `needed` tiles holding the most `wanted`
  /// configurations.
  std::vector<PhysTileId> offer(const ConfigStore& store, bool contiguous,
                                int needed,
                                const std::vector<ConfigId>& wanted) const {
    std::vector<PhysTileId> out;
    const auto n = static_cast<int>(free.size());
    if (!contiguous) {
      for (int t = 0; t < n; ++t)
        if (free[static_cast<std::size_t>(t)]) out.push_back(t);
      return out;
    }
    if (needed == 0) return out;
    int best = -1, best_score = -1;
    for (int s = 0; s + needed <= n; ++s) {
      bool block = true;
      int score = 0;
      for (int t = s; t < s + needed; ++t) {
        block = block && free[static_cast<std::size_t>(t)];
        const ConfigId c = store.config_on(t);
        score += c != k_no_config &&
                 std::find(wanted.begin(), wanted.end(), c) != wanted.end();
      }
      if (block && score > best_score) {
        best = s;
        best_score = score;
      }
    }
    for (int t = best; t < best + needed; ++t) out.push_back(t);
    return out;
  }
  /// prefetch_victim(): the first empty free unprotected tile, else the
  /// lowest (value, last use), leftmost on ties.
  PhysTileId victim(const ConfigStore& store,
                    const std::vector<char>& protected_tiles) const {
    PhysTileId best = k_no_phys_tile;
    for (std::size_t t = 0; t < free.size(); ++t) {
      if (!free[t] || protected_tiles[t]) continue;
      const auto tile = static_cast<PhysTileId>(t);
      if (store.config_on(tile) == k_no_config) return tile;
      if (best == k_no_phys_tile ||
          std::make_pair(store.value_of(tile), store.last_used(tile)) <
              std::make_pair(store.value_of(best), store.last_used(best)))
        best = tile;
    }
    return best;
  }
  std::vector<char> free;
};

/// The pool answers every free-tile question from one bitset that its
/// mutators keep in step. Seeded random sequences of every mutator —
/// enqueue, occupy, release, reserve / finish_prefetch, begin /
/// finish_migration, apply_remap, begin / finish_checkpoint — on pools of
/// 1, 16, 63, 64, 65 and 130 tiles (no built-in scenario has more than 16,
/// so only this test crosses word boundaries), count-based and contiguous
/// with defragmentation, with and without a trace sink (with one, every
/// mutator reads fragmentation_pct() before it changes anything). After
/// every step free_count(), largest_free_block(), fragmentation_pct(),
/// offer_into() and prefetch_victim() must equal a FreeRecount, and every
/// frag sample must carry the fragmentation that held before the step.
/// The defragmentation planner is left out (its window would bias
/// offer_into()); the Defrag tests above cover it.
TEST(TilePool, FreeTileBitsetMatchesARecountAfterEveryChange) {
  for (const int tiles : {1, 16, 63, 64, 65, 130})
    for (const bool contiguous : {false, true})
      for (const bool traced : {false, true}) {
        const auto seed = static_cast<unsigned>(tiles * 4 + contiguous * 2 +
                                                traced);
        SCOPED_TRACE(::testing::Message()
                     << "tiles=" << tiles << " contiguous=" << contiguous
                     << " traced=" << traced);
        std::mt19937 rng(seed);
        PoolOptions options;
        options.contiguous = contiguous;
        options.defrag = contiguous;
        TilePoolManager pool(tiles, options);
        FragProbe probe;
        if (traced) pool.set_trace_sink(&probe);
        OccupancyModel model(tiles);
        struct Queued {
          std::int32_t job = -1;
          int needed = 0;
        };
        std::vector<Queued> queued;
        std::vector<std::int32_t> live;
        std::vector<PhysTileId> prefetching, checkpointing;
        std::vector<MigrationPlan> moving;
        std::vector<PhysTileId> offer;
        std::int32_t next_job = 0;
        time_us now = 0;
        const auto pick = [&](const std::vector<PhysTileId>& from) {
          return from[rng() % from.size()];
        };
        const auto random_configs = [&] {
          std::vector<ConfigId> configs;
          for (ConfigId c = 0; c < 4; ++c)
            if (rng() % 2 == 0) configs.push_back(c);
          return configs;
        };
        const auto occupy = [&](std::int32_t job,
                                const std::vector<PhysTileId>& take) {
          pool.occupy(job, take, now);
          for (const PhysTileId t : take)
            model.owner[static_cast<std::size_t>(t)] = job;
          live.push_back(job);
        };
        for (int step = 0; step < 1500; ++step) {
          now += static_cast<time_us>(rng() % 3);
          const double frag_before =
              FreeRecount(pool, model.reserved).fragmentation_pct();
          const long samples_before = probe.samples;
          const std::vector<PhysTileId> free_tiles =
              model.tiles_where([&](std::size_t t) { return model.free(t); });
          // Held, quiet tiles: a migration, remap or checkpoint source.
          const std::vector<PhysTileId> quiet =
              model.tiles_where([&](std::size_t t) {
                return model.owner[t] >= 0 && !model.migrating[t];
              });
          switch (rng() % 11) {
            case 0: {  // enqueue an instance that waits
              const int needed = static_cast<int>(
                  rng() % static_cast<unsigned>(tiles + 1));
              pool.enqueue(next_job, needed, now);
              queued.push_back({next_job++, needed});
              break;
            }
            case 1: {  // admit a queued instance onto the tiles offered
              if (queued.empty()) break;
              const std::size_t at = rng() % queued.size();
              const Queued q = queued[at];
              const int room = contiguous ? pool.largest_free_block()
                                          : pool.free_count();
              if (q.needed > room) break;
              pool.offer_into(q.job, random_configs(), offer);
              offer.resize(static_cast<std::size_t>(q.needed));
              queued.erase(queued.begin() + static_cast<std::ptrdiff_t>(at));
              occupy(q.job, offer);
              break;
            }
            case 2: {  // occupy a random free subset
              if (free_tiles.empty()) break;
              std::vector<PhysTileId> take;
              for (const PhysTileId t : free_tiles)
                if (rng() % 2 == 0) take.push_back(t);
              if (take.empty()) take.push_back(pick(free_tiles));
              pool.enqueue(next_job, static_cast<int>(take.size()), now);
              occupy(next_job++, take);
              break;
            }
            case 3: {  // release a job that is not being checkpointed
              if (live.empty()) break;
              const std::int32_t job = live[rng() % live.size()];
              bool checkpointed = false;
              for (const PhysTileId t : checkpointing)
                checkpointed |= model.owner[static_cast<std::size_t>(t)] == job;
              if (checkpointed) break;
              std::vector<PhysTileId> tiles;
              for (std::size_t t = 0; t < model.owner.size(); ++t)
                if (model.owner[t] == job) {
                  tiles.push_back(static_cast<PhysTileId>(t));
                  model.owner[t] = -1;
                }
              pool.release(job, tiles, now);
              live.erase(std::find(live.begin(), live.end(), job));
              break;
            }
            case 4: {  // reserve a free tile for a backlog prefetch
              if (free_tiles.empty()) break;
              const PhysTileId t = pick(free_tiles);
              pool.reserve(t, static_cast<ConfigId>(rng() % 4),
                           static_cast<double>(rng() % 3), now);
              model.reserved[static_cast<std::size_t>(t)] = 1;
              prefetching.push_back(t);
              break;
            }
            case 5: {  // a prefetch lands
              if (prefetching.empty()) break;
              const std::size_t at = rng() % prefetching.size();
              const PhysTileId t = prefetching[at];
              pool.finish_prefetch(t, now);
              model.reserved[static_cast<std::size_t>(t)] = 0;
              prefetching.erase(prefetching.begin() +
                                static_cast<std::ptrdiff_t>(at));
              break;
            }
            case 6: {  // start a port-charged move, or land one
              if (!moving.empty() && rng() % 2 == 0) {
                const MigrationPlan plan = moving.back();
                moving.pop_back();
                const auto src = static_cast<std::size_t>(plan.src);
                const auto dst = static_cast<std::size_t>(plan.dst);
                const bool transfer =
                    model.owner[src] == plan.owner &&
                    pool.store().config_on(plan.src) == plan.config;
                ASSERT_EQ(pool.finish_migration(plan, now), transfer);
                model.reserved[dst] = 0;
                model.migrating[src] = 0;
                if (transfer) {
                  model.owner[dst] = plan.owner;
                  model.owner[src] = -1;
                }
                break;
              }
              if (quiet.empty() || free_tiles.empty()) break;
              MigrationPlan plan;
              plan.src = pick(quiet);
              plan.dst = pick(free_tiles);
              plan.owner = model.owner[static_cast<std::size_t>(plan.src)];
              plan.config = pool.store().config_on(plan.src);
              if (plan.config == k_no_config) plan.config = 7;
              pool.begin_migration(plan, now);
              model.reserved[static_cast<std::size_t>(plan.dst)] = 1;
              model.migrating[static_cast<std::size_t>(plan.src)] = 1;
              moving.push_back(plan);
              break;
            }
            case 7: {  // free remap of a held tile
              if (quiet.empty() || free_tiles.empty()) break;
              MigrationPlan plan;
              plan.src = pick(quiet);
              plan.dst = pick(free_tiles);
              plan.owner = model.owner[static_cast<std::size_t>(plan.src)];
              pool.apply_remap(plan, now);
              model.owner[static_cast<std::size_t>(plan.dst)] = plan.owner;
              model.owner[static_cast<std::size_t>(plan.src)] = -1;
              break;
            }
            case 8: {  // start checkpointing a quiet, unreserved tile
              const std::vector<PhysTileId> victims =
                  model.tiles_where([&](std::size_t t) {
                    return model.owner[t] >= 0 && !model.migrating[t] &&
                           !model.reserved[t];
                  });
              if (victims.empty()) break;
              const PhysTileId t = pick(victims);
              pool.begin_checkpoint(t);
              model.migrating[static_cast<std::size_t>(t)] = 1;
              checkpointing.push_back(t);
              break;
            }
            default: {  // a checkpoint writeout lands
              if (checkpointing.empty()) break;
              const std::size_t at = rng() % checkpointing.size();
              const PhysTileId t = checkpointing[at];
              pool.finish_checkpoint(t, now);
              model.migrating[static_cast<std::size_t>(t)] = 0;
              model.owner[static_cast<std::size_t>(t)] = -1;
              checkpointing.erase(checkpointing.begin() +
                                  static_cast<std::ptrdiff_t>(at));
              break;
            }
          }
          for (PhysTileId t = 0; t < tiles; ++t) {
            const auto idx = static_cast<std::size_t>(t);
            ASSERT_EQ(pool.owner(t), model.owner[idx]) << "step " << step;
            ASSERT_EQ(pool.migrating(t), model.migrating[idx] != 0)
                << "step " << step;
          }
          const FreeRecount recount(pool, model.reserved);
          ASSERT_EQ(pool.free_count(), recount.count()) << "step " << step;
          ASSERT_EQ(pool.largest_free_block(), recount.largest_block())
              << "step " << step;
          ASSERT_EQ(pool.fragmentation_pct(), recount.fragmentation_pct())
              << "step " << step;
          if (!queued.empty()) {
            const Queued& q = queued[rng() % queued.size()];
            if (!contiguous || q.needed <= recount.largest_block()) {
              const std::vector<ConfigId> wanted = random_configs();
              pool.offer_into(q.job, wanted, offer);
              ASSERT_EQ(offer, recount.offer(pool.store(), contiguous,
                                             q.needed, wanted))
                  << "step " << step;
            }
          }
          std::vector<char> protected_tiles(static_cast<std::size_t>(tiles));
          for (char& p : protected_tiles) p = rng() % 4 == 0;
          ASSERT_EQ(pool.prefetch_victim(protected_tiles),
                    recount.victim(pool.store(), protected_tiles))
              << "step " << step;
          if (probe.samples != samples_before) {
            ASSERT_EQ(probe.last, frag_before) << "step " << step;
          }
        }
        if (traced) {
          EXPECT_GT(probe.samples, 100);
        }
      }
}

}  // namespace
}  // namespace drhw
