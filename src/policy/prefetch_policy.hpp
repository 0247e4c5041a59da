#pragma once

/// \file prefetch_policy.hpp
/// The pluggable prefetch-scheduling strategy layer.
///
/// The five approaches of the paper used to be an `enum class Approach`
/// switch-dispatched inside both timing engines (the sequential Section 7
/// rig and the online event kernel) and hand-enumerated in the runner, the
/// CLI and the benches. This interface inverts that: a PrefetchPolicy owns
/// every per-approach decision and the kernels are pure timing engines that
/// ask it
///   * what to load, in which order and in which port discipline for one
///     admitted instance (plan(): a LoadPlan, prefetch/load_plan.hpp,
///     written into the engine's own storage, with the init-phase loads,
///     the stored/explicit order or the run-time priority order, and the
///     cancelled stored loads; the online kernel turns it into port
///     requests event by event, the sequential rig times it with
///     EvalWorkspace::evaluate()),
///   * which configurations to prefetch for a *future* instance during port
///     idle periods (intertask_candidates(): the Section 6 inter-task
///     optimisation / the online backlog prefetch),
///   * whether the Figure 2 reuse/replacement modules run at all
///     (uses_reuse()), and which value vector the replacement module sees
///     (replacement_values()),
///   * what one run-time scheduling decision costs on the embedded core
///     (scheduler_cost(), the Section 4 measurements).
///
/// Policies are created per simulation run through the PolicyRegistry
/// (policy/registry.hpp) from a textual PolicySpec, may keep state across
/// the run (they are not shared between runs), and must be deterministic:
/// the same construction parameters, instance stream and contexts must
/// yield the same decisions. intertask_candidates() must additionally be a
/// pure function of (policy parameters, prepared scenario): a run's
/// PrepTable (sim/prep_table.hpp) computes it once per distinct preparation
/// for both engines, and replacement_values() likewise.
///
/// Adding a policy touches only this subsystem: implement the interface in
/// a new translation unit, register a factory (see registry.cpp's builtin
/// hook list or call PolicyRegistry::instance().add() at startup), and
/// every consumer — Scenario descriptors, campaign sweep axes,
/// `drhw_sched --approach`, the registry-driven equivalence tests — accepts
/// the new name with zero edits to event_sim.cpp / system_sim.cpp.
/// policy/adaptive_hybrid.cpp is the worked example.

#include <memory>
#include <string>
#include <vector>

#include "policy/policy_spec.hpp"
#include "prefetch/load_plan.hpp"
#include "reuse/reuse_module.hpp"
#include "util/time.hpp"

namespace drhw {

struct PreparedScenario;  // sim/system_sim.hpp

/// Section 4 of the paper measures the run-time scheduling cost on the
/// embedded core: the hybrid's run-time phase resolves one task instance in
/// a few microseconds, while the full list-scheduling heuristic of ref. [7]
/// costs roughly two orders of magnitude more (the `scalability` campaign
/// family reproduces the trend). Used as PrefetchPolicy::scheduler_cost()
/// values by the built-in policies.
inline constexpr time_us k_paper_hybrid_scheduler_cost = us(4);
inline constexpr time_us k_paper_list_scheduler_cost = us(150);

/// How the online kernel orders the admission backlog for a policy. The
/// default (arrival) keeps the configured AdmissionPolicy of the tile pool;
/// deadline/laxity switch admission to most-urgent-first among the queued
/// instances that fit, with the pool's starvation bound still protecting
/// the queue head. Only consulted when deadlines are enabled
/// (OnlineSimOptions::deadline_scale > 0), so every policy stays
/// bit-identical in best-effort runs.
enum class AdmissionUrgency {
  arrival,   ///< arrival order (the pool's admission policy as configured)
  deadline,  ///< earliest absolute deadline first (EDF)
  laxity,    ///< least laxity first: deadline minus remaining ideal work (LLF)
};

/// What a policy may observe when planning one instance. Both kernels fill
/// in what they know at the decision instant; everything is deterministic
/// simulated state, never wall clock. Every field is a counter the kernel
/// already keeps, so filling a context costs O(1) per admission — a new
/// field that needs a backlog or live-set scan belongs in the policy's own
/// state, not here.
struct PolicyContext {
  /// Simulated time of the decision (sequential: the stream clock, which
  /// excludes inter-arrival gaps; online: absolute arrival-stream time).
  time_us now = 0;
  /// Reconfiguration ports of the platform.
  int ports = 1;
  /// Cumulative busy time summed over all ports so far.
  time_us port_busy = 0;
  /// Other live instances currently contending for the ports (always 0 in
  /// the sequential rig — instances run one at a time).
  int live_instances = 0;
  /// Instances waiting behind this one: the online admission backlog, or
  /// the sequential rig's emitted lookahead window.
  int queued_instances = 0;

  /// Observed port pressure as a contention count: how many other
  /// instances — live or queued — are competing for the reconfiguration
  /// ports at this decision. The kernel-independent pressure signal (a
  /// time-ratio would read differently in the two rigs, breaking the
  /// rate->0 equivalence adaptive policies must preserve).
  int contenders() const { return live_instances + queued_instances; }
};

/// The strategy interface. See the file comment for the contract.
class PrefetchPolicy {
 public:
  virtual ~PrefetchPolicy() = default;

  /// Registered name this instance was created under.
  const std::string& name() const { return name_; }

  /// True when the policy runs the reuse/replacement modules of Figure 2.
  virtual bool uses_reuse() const = 0;

  /// True when the policy performs the Section 6 inter-task optimisation
  /// (the sequential tail prefetch / the online backlog prefetch).
  virtual bool uses_intertask() const = 0;

  /// Per-decision cost of the policy's run-time scheduler on the embedded
  /// core (Section 4); 0 when everything was decided at design time.
  virtual time_us scheduler_cost() const { return 0; }

  /// How the online kernel should order the admission backlog when
  /// deadlines are enabled. The default keeps the pool's configured
  /// admission policy; the edf/llf family overrides this. Ignored entirely
  /// when OnlineSimOptions::deadline_scale == 0.
  virtual AdmissionUrgency admission_urgency() const {
    return AdmissionUrgency::arrival;
  }

  /// Writes the load plan for one admitted instance into `out`, setting
  /// every field: a plan left by an earlier call (of any policy) is
  /// overwritten, and its `loads` capacity is reused, so both engines keep
  /// one LoadPlan for a whole run. `resident[s]` marks subtasks whose
  /// configuration the reuse module found on their bound tile (all false
  /// when uses_reuse() is false).
  virtual void plan(const PreparedScenario& prep,
                    const std::vector<bool>& resident,
                    const PolicyContext& context, LoadPlan& out) = 0;

  /// Candidate loads to prefetch for a *future* instance during port idle
  /// periods, in prefetch order. Only consulted when uses_intertask().
  /// Must be a pure function of (policy parameters, prep): the run's
  /// PrepTable computes it once per distinct preparation.
  virtual std::vector<SubtaskId> intertask_candidates(
      const PreparedScenario& future) const;

  /// Value vector the replacement machinery sees for this instance. The
  /// default pairs ReplacementPolicy::critical_first with the prepared
  /// critical-bonus values and everything else with the ALAP weights.
  virtual const std::vector<time_us>& replacement_values(
      const PreparedScenario& prep, ReplacementPolicy replacement) const;

 private:
  friend class PolicyRegistry;  // stamps the registered name at create()
  std::string name_;
};

/// The Section 4 per-decision run-time scheduler cost of `spec`'s policy
/// (see scheduler_cost()); creates the policy through the registry, so any
/// registered name works.
time_us paper_scheduler_cost(const PolicySpec& spec);

}  // namespace drhw
