#include "pool/tile_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/trace_hook.hpp"
#include "util/check.hpp"

namespace drhw {

const char* to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::fifo_hol:
      return "fifo_hol";
    case AdmissionPolicy::backfill_bypass:
      return "backfill_bypass";
    case AdmissionPolicy::window_reorder:
      return "window_reorder";
  }
  return "?";
}

AdmissionPolicy admission_policy_from_string(const std::string& text) {
  if (text == "fifo_hol") return AdmissionPolicy::fifo_hol;
  if (text == "backfill_bypass") return AdmissionPolicy::backfill_bypass;
  if (text == "window_reorder") return AdmissionPolicy::window_reorder;
  throw std::invalid_argument("unknown admission policy '" + text + "'");
}

void PoolOptions::validate() const {
  if (reorder_window < 1)
    throw std::invalid_argument("pool reorder window must be >= 1");
  if (max_bypass < 0)
    throw std::invalid_argument("pool bypass bound must be >= 0");
  if (defrag && !contiguous)
    throw std::invalid_argument(
        "pool defragmentation requires contiguous allocation — without a "
        "contiguity requirement there is nothing to defragment");
}

TilePoolManager::TilePoolManager(int tiles, const PoolOptions& options)
    : options_(options), store_(tiles) {
  options_.validate();
  const auto n = static_cast<std::size_t>(tiles);
  reserved_.assign(n, 0);
  migrating_.assign(n, 0);
  owner_.assign(n, -1);
  free_bits_.assign((n + 63) / 64, 0);
  for (std::size_t t = 0; t < n; ++t) set_tile(t, -1, false, false);
  prefetch_config_.assign(n, k_no_config);
  prefetch_value_.assign(n, 0.0);
  by_need_.resize(n + 1);
}

// --- admission queue --------------------------------------------------------

void TilePoolManager::enqueue(std::int32_t job, int needed, time_us now,
                              long long urgency) {
  DRHW_CHECK_GE_MSG(job, 0, "queued instance needs a non-negative id");
  DRHW_CHECK_GE_MSG(needed, 0,
                    "queued instance needs a non-negative tile count");
  DRHW_CHECK_LE_MSG(needed, tiles(),
                    "queued instance needs more tiles than the pool has");
  const bool grows = queue_.size() == queue_.capacity();
  if (perf_ && grows) perf_->note_alloc();
  const std::uint64_t seq = seq_base_ + queue_.size();
  queue_.push_back(Waiting{job, needed, now, 0, urgency});
  ++queued_count_;
  // No heap holds more entries than the queue vector, so growing the heaps
  // with it keeps the index inside the queue's tracked growth.
  if (grows)
    for (std::vector<Ranked>& heap : by_need_) heap.reserve(queue_.capacity());
  std::vector<Ranked>& heap = by_need_[static_cast<std::size_t>(needed)];
  heap.push_back(Ranked{urgency, seq});
  std::push_heap(heap.begin(), heap.end(), later);
  if (needed <= failed_room_) failed_room_ = -1;  // a pick may exist now
}

std::int32_t TilePoolManager::queue_head() const {
  return queued_count_ == 0 ? -1 : head().job;
}

std::size_t TilePoolManager::position_of(std::int32_t job) const {
  if (last_pick_ < queue_.size() && queue_[last_pick_].job == job)
    return last_pick_;
  for (std::size_t p = head_; p < queue_.size(); ++p)
    if (queue_[p].job == job) return p;
  return queue_.size();
}

int TilePoolManager::capacity() const {
  return options_.contiguous ? largest_free_block() : free_count();
}

bool TilePoolManager::cannot_pick(int room, bool urgent) {
  if (room > failed_room_ || urgent != failed_urgent_) return false;
  if (perf_) ++perf_->admission_skipped;
  return true;
}

std::int32_t TilePoolManager::select(time_us now) {
  if (queued_count_ == 0) return -1;
  const int room = capacity();
  if (cannot_pick(room, false)) return -1;
  const std::size_t none = queue_.size();
  std::size_t pick = none;
  std::uint64_t examined = 1;  // the head
  switch (options_.admission) {
    case AdmissionPolicy::fifo_hol:
      if (head().needed <= room) pick = head_;
      break;
    case AdmissionPolicy::backfill_bypass: {
      if (head().needed <= room) {
        pick = head_;
        break;
      }
      if (head().skips >= options_.max_bypass) break;
      for (std::size_t i = head_ + 1; i < queue_.size(); ++i) {
        if (queue_[i].job < 0) continue;
        ++examined;
        if (queue_[i].needed < head().needed && queue_[i].needed <= room) {
          pick = i;
          break;
        }
      }
      break;
    }
    case AdmissionPolicy::window_reorder: {
      const std::size_t window = std::min(
          queued_count_, static_cast<std::size_t>(options_.reorder_window));
      std::size_t seen = 0;
      for (std::size_t i = head_; i < queue_.size() && seen < window; ++i) {
        if (queue_[i].job < 0) continue;
        ++seen;
        if (queue_[i].needed <= room &&
            (pick == none || queue_[i].needed > queue_[pick].needed))
          pick = i;
      }
      examined = seen;
      if (pick != none && pick != head_ &&
          head().skips >= options_.max_bypass)
        pick = head().needed <= room ? head_ : none;
      break;
    }
  }
  if (perf_) {
    ++perf_->admission_picks;
    perf_->admission_examined += examined;
  }
  return take(pick, room, false, now);
}

std::int32_t TilePoolManager::select_urgent(time_us now) {
  if (queued_count_ == 0) return -1;
  const int room = capacity();
  if (cannot_pick(room, true)) return -1;
  const Ranked* best = nullptr;
  std::uint64_t examined = 0;
  for (int need = 0; need <= room; ++need) {
    std::vector<Ranked>& heap = by_need_[static_cast<std::size_t>(need)];
    // Lazy deletion: entries admitted since they were pushed surface here.
    while (!heap.empty() && queue_[heap.front().seq - seq_base_].job < 0) {
      std::pop_heap(heap.begin(), heap.end(), later);
      heap.pop_back();
      ++examined;
    }
    if (heap.empty()) continue;
    ++examined;
    if (best == nullptr || later(*best, heap.front())) best = &heap.front();
  }
  if (perf_) {
    ++perf_->admission_picks;
    perf_->admission_examined += examined;
  }
  std::size_t pick =
      best == nullptr ? queue_.size()
                      : static_cast<std::size_t>(best->seq - seq_base_);
  if (best != nullptr && pick != head_ && head().skips >= options_.max_bypass)
    pick = head().needed <= room ? head_ : queue_.size();
  return take(pick, room, true, now);
}

std::int32_t TilePoolManager::take(std::size_t pick, int room, bool urgent,
                                   time_us now) {
  if (pick >= queue_.size()) {
    failed_room_ =
        urgent == failed_urgent_ ? std::max(failed_room_, room) : room;
    failed_urgent_ = urgent;
    return -1;
  }
  failed_room_ = -1;  // the skips below change what the rules read
  for (std::size_t i = head_; i < pick; ++i)
    if (queue_[i].job >= 0) {
      ++queue_[i].skips;
      if (trace_)
        trace_->record(TraceEvent(TraceEvent::Kind::queue_skip, now));
    }
  last_pick_ = pick;
  return queue_[pick].job;
}

void TilePoolManager::rebuild_index() {
  for (std::vector<Ranked>& heap : by_need_) heap.clear();
  for (std::size_t p = head_; p < queue_.size(); ++p)
    if (queue_[p].job >= 0)
      by_need_[static_cast<std::size_t>(queue_[p].needed)].push_back(
          Ranked{queue_[p].urgency, seq_base_ + p});
  for (std::vector<Ranked>& heap : by_need_)
    std::make_heap(heap.begin(), heap.end(), later);
}

void TilePoolManager::offer_into(std::int32_t job,
                                 const std::vector<ConfigId>& wanted,
                                 std::vector<PhysTileId>& out) const {
  out.clear();
  if (!options_.contiguous) {
    visit_free([&](PhysTileId t) {
      out.push_back(t);
      return false;
    });
    return;
  }

  const std::size_t pos = position_of(job);
  DRHW_CHECK_LT_MSG(pos, queue_.size(),
                    "offer_into() for a job that is not queued");
  const int needed = queue_[pos].needed;
  if (needed == 0) return;

  // Placement-aware block selection: among the free blocks of the job's
  // size, prefer the one with the most wanted configurations already
  // resident (reuse), then the least overlap with the defragmentation
  // window (so backfilled instances do not re-fragment the run the defrag
  // pass is clearing), then the leftmost. A block is scored at its last
  // tile, once `needed` free tiles run up to it, so the blocks come in
  // ascending start order.
  int best_start = -1, best_score = -1, best_overlap = 0;
  int run = 0;  // free tiles ending at `last`
  PhysTileId last = -2;
  visit_free([&](PhysTileId end) {
    run = end == last + 1 ? run + 1 : 1;
    last = end;
    if (run < needed) return false;
    const int start = end - needed + 1;
    int score = 0, overlap = 0;
    for (int t = start; t <= end; ++t) {
      const ConfigId resident = store_.config_on(t);
      if (resident != k_no_config &&
          std::find(wanted.begin(), wanted.end(), resident) != wanted.end())
        ++score;
      if (defrag_window_ >= 0 && t >= defrag_window_ &&
          t < defrag_window_ + defrag_window_size_)
        ++overlap;
    }
    if (best_start < 0 || score > best_score ||
        (score == best_score && overlap < best_overlap)) {
      best_start = start;
      best_score = score;
      best_overlap = overlap;
    }
    return false;
  });
  DRHW_CHECK_GE_MSG(best_start, 0,
                    "offer_into() called without a fitting contiguous block");
  for (int t = best_start; t < best_start + needed; ++t) out.push_back(t);
}

void TilePoolManager::occupy(std::int32_t job,
                             const std::vector<PhysTileId>& tiles,
                             time_us now) {
  touch(now);
  for (const PhysTileId t : tiles) {
    const std::size_t idx = checked(t);
    DRHW_CHECK_MSG(tile_free(idx), "occupying a tile that is not free");
    set_tile(idx, job, false, false);
  }
  const std::size_t pos = position_of(job);
  DRHW_CHECK_LT_MSG(pos, queue_.size(),
                    "occupy() for a job that is not queued");
  queue_[pos].job = -1;  // tombstone; skips/needed are dead with it
  --queued_count_;
  failed_room_ = -1;  // the queue changed under the remembered failure
  last_pick_ = static_cast<std::size_t>(-1);
  while (head_ < queue_.size() && queue_[head_].job < 0) ++head_;
  if (queued_count_ == 0) {
    // Keeps capacity: the backlog storage is recycled.
    seq_base_ += queue_.size();
    queue_.clear();
    head_ = 0;
    for (std::vector<Ranked>& heap : by_need_) heap.clear();
  } else if (head_ >= 64 && head_ >= queue_.size() / 2) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    seq_base_ += head_;
    head_ = 0;
    rebuild_index();
  }
  if (defrag_target_ == job) {
    defrag_target_ = -1;
    defrag_window_ = -1;
    defrag_window_size_ = 0;
  }
}

void TilePoolManager::release(std::int32_t job,
                              const std::vector<PhysTileId>& tiles,
                              time_us now) {
  touch(now);
  for (const PhysTileId t : tiles) {
    const std::size_t idx = checked(t);
    DRHW_CHECK_EQ(owner_[idx], job);  // each tile is the job's own
    set_tile(idx, -1, reserved_[idx] != 0, migrating_[idx] != 0);
  }
}

// --- backlog-prefetch reservations ------------------------------------------

PhysTileId TilePoolManager::prefetch_victim(
    const std::vector<char>& protected_tiles) const {
  PhysTileId victim = k_no_phys_tile;
  bool empty = false;
  visit_free([&](PhysTileId p) {
    if (protected_tiles[static_cast<std::size_t>(p)]) return false;
    empty = store_.config_on(p) == k_no_config;
    bool better = empty || victim == k_no_phys_tile;
    if (!better) {
      if (store_.value_of(p) != store_.value_of(victim))
        better = store_.value_of(p) < store_.value_of(victim);
      else
        better = store_.last_used(p) < store_.last_used(victim);
    }
    if (better) victim = p;
    return empty;  // the first empty tile wins outright
  });
  return victim;
}

void TilePoolManager::reserve(PhysTileId tile, ConfigId config, double value,
                              time_us now) {
  touch(now);
  const std::size_t idx = checked(tile);
  DRHW_CHECK_MSG(tile_free(idx), "reserving a tile that is not free");
  set_tile(idx, -1, true, false);
  prefetch_config_[idx] = config;
  prefetch_value_[idx] = value;
}

ConfigId TilePoolManager::finish_prefetch(PhysTileId tile, time_us now) {
  touch(now);
  const std::size_t idx = checked(tile);
  DRHW_CHECK_MSG(reserved_[idx], "prefetch completion on an unreserved tile");
  const ConfigId config = prefetch_config_[idx];
  store_.record_load(tile, config, now, prefetch_value_[idx]);
  set_tile(idx, -1, false, false);  // a reservation holds a free tile
  prefetch_config_[idx] = k_no_config;
  return config;
}

// --- occupancy queries ------------------------------------------------------

std::int32_t TilePoolManager::owner(PhysTileId tile) const {
  return owner_[checked(tile)];
}

void TilePoolManager::set_tile(std::size_t idx, std::int32_t owner,
                               bool reserved, bool migrating) {
  owner_[idx] = owner;
  reserved_[idx] = reserved ? 1 : 0;
  migrating_[idx] = migrating ? 1 : 0;
  const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
  if (owner < 0 && !reserved && !migrating)
    free_bits_[idx / 64] |= bit;
  else
    free_bits_[idx / 64] &= ~bit;
}

int TilePoolManager::free_count() const {
  int count = 0;
  for (const std::uint64_t word : free_bits_)
    count += __builtin_popcountll(word);
  return count;
}

int TilePoolManager::largest_free_block() const {
  constexpr std::uint64_t k_all = ~std::uint64_t{0};
  int best = 0;
  int run = 0;  // free tiles ending at the top of the words read so far
  for (const std::uint64_t word : free_bits_) {
    if (word == k_all) {
      run += 64;
      continue;
    }
    // The run carried in ends at the word's first clear bit.
    best = std::max(best, run + __builtin_ctzll(~word));
    // The longest run inside the word: each step shortens every run by one.
    int inside = 0;
    for (std::uint64_t bits = word; bits != 0; bits &= bits >> 1) ++inside;
    best = std::max(best, inside);
    run = __builtin_clzll(~word);  // free tiles at the word's top
  }
  return std::max(best, run);
}

double TilePoolManager::fragmentation_pct() const {
  const int free = free_count();
  if (free == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(largest_free_block()) /
                            static_cast<double>(free));
}

// --- defragmentation --------------------------------------------------------

bool TilePoolManager::head_fragmentation_blocked() const {
  if (!options_.contiguous || queued_count_ == 0) return false;
  const int needed = head().needed;
  return free_count() >= needed && largest_free_block() < needed;
}

TilePoolManager::WindowScan TilePoolManager::scan_window(
    int start, int needed, const std::vector<char>& movable) const {
  WindowScan scan;
  for (int t = start; t < start + needed; ++t) {
    const auto idx = static_cast<std::size_t>(t);
    if (reserved_[idx]) {
      scan.feasible = false;
      return scan;
    }
    if (migrating_[idx]) {
      // Already being copied out by an in-flight move: not a new blocker,
      // not a veto — the window is clearing.
      ++scan.migrating;
      continue;
    }
    if (owner_[idx] >= 0) {
      if (!movable[idx]) {
        scan.feasible = false;
        return scan;
      }
      ++scan.blockers;
    }
  }
  return scan;
}

std::optional<MigrationPlan> TilePoolManager::plan_defrag(
    const std::vector<char>& movable) {
  if (!options_.defrag || !head_fragmentation_blocked()) return std::nullopt;
  const Waiting& oldest = head();
  const int needed = oldest.needed;
  if (defrag_target_ != oldest.job) {
    defrag_target_ = oldest.job;
    defrag_window_ = -1;
  }
  defrag_window_size_ = needed;
  if (defrag_window_ >= 0) {
    const WindowScan scan = scan_window(defrag_window_, needed, movable);
    // Hold the window while moves out of it are still landing; drop it
    // when it was taken over, drained, or is no longer clearable.
    if (scan.feasible && scan.blockers == 0 && scan.migrating > 0)
      return std::nullopt;
    if (!scan.feasible || scan.blockers == 0) defrag_window_ = -1;
  }
  if (defrag_window_ < 0) {
    int best = -1, best_blockers = tiles() + 1;
    for (int s = 0; s + needed <= tiles(); ++s) {
      const WindowScan scan = scan_window(s, needed, movable);
      if (scan.feasible && scan.blockers > 0 &&
          scan.blockers < best_blockers) {
        best = s;
        best_blockers = scan.blockers;
      }
    }
    if (best < 0) return std::nullopt;
    defrag_window_ = best;
  }

  PhysTileId src = k_no_phys_tile;
  for (int t = defrag_window_; t < defrag_window_ + needed; ++t)
    if (owner_[static_cast<std::size_t>(t)] >= 0 &&
        !migrating_[static_cast<std::size_t>(t)]) {
      src = t;
      break;
    }
  if (src == k_no_phys_tile) return std::nullopt;  // window already clear
  PhysTileId dst = k_no_phys_tile;
  for (int t = 0; t < tiles(); ++t) {
    if (t >= defrag_window_ && t < defrag_window_ + needed) continue;
    if (tile_free(static_cast<std::size_t>(t))) {
      dst = t;
      break;
    }
  }
  if (dst == k_no_phys_tile) return std::nullopt;  // nowhere to move to

  MigrationPlan plan;
  plan.src = src;
  plan.dst = dst;
  plan.owner = owner_[static_cast<std::size_t>(src)];
  plan.config = store_.config_on(src);
  plan.value = store_.value_of(src);
  return plan;
}

void TilePoolManager::begin_migration(const MigrationPlan& plan, time_us now) {
  touch(now);
  DRHW_CHECK_MSG(plan.needs_port(), "free remaps use apply_remap()");
  const std::size_t src = checked(plan.src);
  DRHW_CHECK(owner_[src] >= 0 && !migrating_[src]);
  const std::size_t dst = checked(plan.dst);
  DRHW_CHECK_MSG(tile_free(dst), "migration destination is not free");
  set_tile(dst, -1, true, false);
  set_tile(src, owner_[src], false, true);  // held, so not reserved
}

bool TilePoolManager::finish_migration(const MigrationPlan& plan,
                                       time_us now) {
  touch(now);
  const std::size_t src = checked(plan.src);
  const std::size_t dst = checked(plan.dst);
  DRHW_CHECK(migrating_[src] && reserved_[dst]);
  // The transfer only holds when the owner is still live on `src` and no
  // competing load overwrote the source mid-flight; otherwise the loaded
  // copy stays behind as an ordinary reusable cached configuration.
  const bool transfer = owner_[src] >= 0 && owner_[src] == plan.owner &&
                        store_.config_on(plan.src) == plan.config;
  set_tile(dst, transfer ? plan.owner : -1, false, false);
  set_tile(src, transfer ? -1 : owner_[src], false, false);
  if (transfer)
    store_.relocate(plan.src, plan.dst, now);
  else
    store_.record_load(plan.dst, plan.config, now, plan.value);
  if (trace_) {
    TraceEvent ev(TraceEvent::Kind::migration_done, now);
    ev.src = plan.src;
    ev.dst = plan.dst;
    ev.aux = transfer ? 1 : 0;
    trace_->record(ev);
  }
  return transfer;
}

void TilePoolManager::apply_remap(const MigrationPlan& plan, time_us now) {
  touch(now);
  DRHW_CHECK_MSG(!plan.needs_port(), "port migrations use begin/finish");
  const std::size_t src = checked(plan.src);
  const std::size_t dst = checked(plan.dst);
  DRHW_CHECK(owner_[src] >= 0 && !migrating_[src] &&
             owner_[src] == plan.owner);
  DRHW_CHECK(tile_free(dst));
  set_tile(dst, plan.owner, false, false);
  set_tile(src, -1, false, false);
  if (trace_) {
    TraceEvent ev(TraceEvent::Kind::remap, now, plan.owner);
    ev.src = plan.src;
    ev.dst = plan.dst;
    trace_->record(ev);
  }
}

// --- preemptive checkpointing -----------------------------------------------

void TilePoolManager::begin_checkpoint(PhysTileId tile) {
  const std::size_t idx = checked(tile);
  DRHW_CHECK_MSG(owner_[idx] >= 0 && !migrating_[idx] && !reserved_[idx],
                 "checkpointing a tile that is not quietly held");
  set_tile(idx, owner_[idx], false, true);
}

void TilePoolManager::finish_checkpoint(PhysTileId tile, time_us now) {
  touch(now);
  const std::size_t idx = checked(tile);
  DRHW_CHECK_MSG(owner_[idx] >= 0 && migrating_[idx],
                 "checkpoint completion on a tile that is not checkpointing");
  // Free with the resident configuration left cached — release() semantics,
  // per tile: the store keeps the config, so the victim's re-admission
  // finds it through the reuse module.
  set_tile(idx, -1, false, false);
}

// --- metrics ----------------------------------------------------------------

void TilePoolManager::touch(time_us now) {
  if (now <= last_change_) return;
  last_change_ = now;
  if (!trace_) return;
  // The sample carries the fragmentation that *held over* the elapsed
  // interval (the occupancy has not changed yet at this call).
  TraceEvent ev(TraceEvent::Kind::frag, now);
  ev.value = fragmentation_pct();
  trace_->record(ev);
}

std::size_t TilePoolManager::checked(PhysTileId tile) const {
  if (tile < 0 || static_cast<std::size_t>(tile) >= owner_.size())
    throw std::invalid_argument("physical tile id out of range");
  return static_cast<std::size_t>(tile);
}

}  // namespace drhw
