#pragma once

/// \file prep_table.hpp
/// What one simulation run knows per distinct preparation: the facts the
/// paper's run-time side reads per instance but that are fixed per task
/// scenario. Both engines — the Section 7 rig (system_sim.cpp) and the
/// online kernel (event_sim.cpp) — build one PrepTable as they draw their
/// stream and read these facts from it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "policy/prefetch_policy.hpp"
#include "reuse/reuse_module.hpp"
#include "sim/system_sim.hpp"
#include "sim/trace_hook.hpp"
#include "util/check.hpp"

namespace drhw {

/// Next-use index for the oracle replacement policy: per-config stream
/// positions, added in non-decreasing order. rank_from(p) yields, per
/// config, the absolute position of its first use at or after p (or a
/// large value when it is never used again) — order-preserving, which is
/// all the replacement module compares.
class NextUseIndex {
 public:
  void add(ConfigId config, long position) {
    DRHW_CHECK_GE(config, 0);  // a configuration id, not k_no_config
    const auto idx = static_cast<std::size_t>(config);
    if (idx >= positions_.size()) positions_.resize(idx + 1);
    positions_[idx].push_back(position);
  }
  /// The returned closure references this index and must not outlive it.
  NextUseRank rank_from(long position) const;

 private:
  /// Dense per-ConfigId stream positions: config ids are small and dense
  /// by construction, and a hash map would invite unordered iteration
  /// (tools/drhw_lint.cpp).
  std::vector<std::vector<long>> positions_;
};

/// The distinct preparations of one run, indexed densely in first-seen
/// order, each with the policy's replacement_values() under the run's
/// replacement policy, its intertask_candidates() (when the policy
/// uses_intertask()) and the retire constants of one instance (TracePrep,
/// the trace header's `preps` row). Under the oracle replacement policy it
/// also indexes every configuration use of the stream.
class PrepTable {
 public:
  /// `policy` must outlive the table.
  PrepTable(const PrefetchPolicy& policy, ReplacementPolicy replacement);

  /// Appends the next instance of the run's stream (its position is the
  /// number of earlier appends) and returns its preparation's index,
  /// assigned on first sight by linear dedup: a run draws a handful of
  /// distinct preparations, and nothing is keyed by pointer.
  std::int32_t append(const PreparedScenario* prep);

  std::size_t size() const { return preps_.size(); }
  const PreparedScenario& prep(std::int32_t p) const { return *preps_[at(p)]; }
  const std::vector<time_us>& values(std::int32_t p) const {
    return *values_[at(p)];
  }
  const std::vector<SubtaskId>& candidates(std::int32_t p) const {
    return candidates_[at(p)];
  }
  const TracePrep& retire(std::int32_t p) const { return retire_[at(p)]; }
  const std::vector<TracePrep>& retire_rows() const { return retire_; }

  /// Oracle ranking by each configuration's first use at or after stream
  /// position `position`; complete once the whole stream is appended.
  NextUseRank next_use_from(long position) const {
    return next_uses_.rank_from(position);
  }

 private:
  static std::size_t at(std::int32_t p) { return static_cast<std::size_t>(p); }

  const PrefetchPolicy& policy_;
  ReplacementPolicy replacement_;
  std::vector<const PreparedScenario*> preps_;
  std::vector<const std::vector<time_us>*> values_;
  std::vector<std::vector<SubtaskId>> candidates_;
  std::vector<TracePrep> retire_;
  long appended_ = 0;       ///< stream position of the next append()
  NextUseIndex next_uses_;  ///< oracle policy only
};

}  // namespace drhw
