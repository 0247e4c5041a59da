#pragma once

/// \file event_sim.hpp
/// Event-driven *online* multi-task simulation kernel.
///
/// The Section 7 rig (system_sim.hpp) executes task instances strictly one
/// after another, so the reconfiguration port is never contended between
/// concurrently-live tasks. This kernel opens that regime: task instances
/// arrive from a stochastic process, queue for admission onto the shared
/// physical tile pool (FIFO, head-of-line), and — once live — compete for
/// the platform's reconfiguration port(s) with every other live instance.
///
/// Model:
///  * One global event queue (task arrival, load start/complete, subtask
///    execution complete, instance retire) drives absolute simulated time.
///  * Admission: tile-pool ownership lives in the pool layer
///    (pool/tile_pool.hpp). Arrived instances queue there and a pluggable
///    AdmissionPolicy decides who goes next (FIFO head-of-line by default,
///    bit-identical to PR 2; bounded backfill and windowed best-fit
///    reordering optional). The reuse module binds the instance directly
///    over the tiles the pool offers (bind_tiles() on the pool's own
///    ConfigStore, no per-admission copy), so configurations left behind
///    by retired instances are reused across live instances. With contiguous allocation on, the pool can also run
///    an online defragmentation pass: idle resident configurations of live
///    instances are relocated through the port (at real reconfiguration
///    latency) to open contiguous room for a fragmentation-blocked head.
///  * The reconfiguration ports are an explicit shared resource (a PortSet,
///    sim/port_set.hpp) serving one load at a time per port; every ready
///    load — a live instance's own load, a hybrid initialization load, a
///    backlog prefetch, a defragmentation migration — dispatches onto the
///    earliest-free port (lowest index on ties), and on multi-port
///    platforms each spare port may carry its own defrag migration
///    concurrently. Arbitration between live instances is either fifo
///    (oldest admitted instance first) or priority (highest ALAP-weight
///    load first). Within one instance the load order follows the
///    LoadPlan its PrefetchPolicy produced (policy/prefetch_policy.hpp),
///    exactly as in the single-instance evaluator: on-demand (a need set,
///    first requested first), priority (the first arrived load in the
///    plan's order), or an explicit/stored order with head-of-line
///    semantics. The kernel rejects a malformed plan (check_load_plan()
///    plus out-of-range, non-DRHW and duplicate load ids) at admission.
///  * The hybrid's initialization-phase loads become ordinary port requests
///    — they can be delayed by a competing instance's in-flight load, and
///    the instance's stored schedule begins only when they all completed.
///  * Inter-task prefetch (runtime_intertask, hybrid): when no live
///    instance has a serviceable load, the port prefetches critical
///    configurations for *queued* (arrived, not yet admitted) instances
///    onto free tiles, reserving the target tile until the load completes.
///
/// Determinism: the instance stream and every arrival gap are drawn up
/// front from seeded generators, so a run is bit-identical across repeats
/// and across campaign-runner thread counts. At arrival rate -> 0 (no two
/// instances ever live together, single port) the per-instance makespans
/// reduce exactly to the sequential simulator's spans on the same sampler
/// stream — see tests/test_event_sim.cpp.
///
/// ISPs default to per-instance (each instance brings its own ISP
/// context, the PR 2/3 model). With OnlineSimOptions::shared_isps the
/// platform's `isps` processors become a shared contended resource like
/// the port: a second PortSet with its own fifo/priority discipline and
/// busy accounting serialises ISP executions across live instances.
///
/// Real-time mode (OnlineSimOptions::deadline_scale > 0): every instance
/// carries an absolute deadline (arrival + relative deadline, the latter
/// taken from the preparation's RtAttributes or derived as
/// deadline_scale x ideal makespan) and a criticality level; the report
/// gains miss/lateness/tardiness metrics. Deadline-aware policies (edf,
/// llf, edf_hybrid — policy/deadline_policies.cpp) reorder *admission* by
/// urgency through the PrefetchPolicy::admission_urgency() hook. The
/// urgency is fixed when an instance enters the backlog (its deadline, or
/// deadline minus ideal makespan), so the pool indexes it at enqueue and
/// one admission costs O(tiles + log backlog) however deep the backlog. With
/// `preempt` on, a high-criticality arrival that cannot be admitted may
/// checkpoint an idle low-criticality live instance: its resident
/// configurations are written off-chip through the reconfiguration port
/// (TilePoolManager::begin_checkpoint / finish_checkpoint, the migration
/// lifecycle with the ConfigStore as destination), its tiles are freed
/// with the configurations left cached, and the victim re-enters the
/// backlog — on re-admission its loads degrade to cached reuse hits.

#include <cstdint>
#include <string>
#include <vector>

#include "pool/tile_pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/port_set.hpp"
#include "sim/system_sim.hpp"
#include "util/perf_stats.hpp"

namespace drhw {

class TraceSink;  // sim/trace_hook.hpp — structured event-trace observer

/// Stochastic arrival process of the online workload. One "arrival" is one
/// task instance of the flattened sampler stream.
struct ArrivalProcess {
  enum class Kind {
    /// Independent exponential inter-arrival gaps (mean rate `rate_per_s`).
    poisson,
    /// Bursts of `burst_size` instances spaced `intra_burst_gap` apart;
    /// exponential gaps between burst starts (mean `rate_per_s` bursts/s).
    bursty,
    /// Exactly one instance outstanding: the next instance arrives
    /// `think_time` after the previous one retires (saturation probe).
    closed_loop,
    /// Strictly periodic: one instance every `period_us` (derived from
    /// rate_per_s when period_us is 0). The real-time task model's
    /// canonical arrival law.
    periodic,
    /// Sporadic: a minimum inter-arrival gap of `period_us` plus an
    /// exponential slack drawn at mean 1/rate_per_s — the classic
    /// min-gap sporadic model.
    sporadic,
  };
  Kind kind = Kind::poisson;
  double rate_per_s = 20.0;
  int burst_size = 4;
  time_us intra_burst_gap = 0;
  time_us think_time = ms(1);
  /// Period (periodic) or minimum inter-arrival gap (sporadic). 0 derives
  /// it from rate_per_s (period = 1e6 / rate_per_s).
  time_us period_us = 0;

  /// Throws std::invalid_argument when the description is unusable.
  void validate() const;
};

const char* to_string(ArrivalProcess::Kind kind);
ArrivalProcess::Kind arrival_kind_from_string(const std::string& text);
/// Every accepted --arrivals spelling, in declaration order (CLI
/// diagnostics: the "registered arrival kinds" list).
std::vector<std::string> arrival_kind_names();

/// Arbitration between live instances at the shared reconfiguration port.
enum class PortDiscipline {
  fifo,      ///< oldest admitted instance with a serviceable load first
  priority,  ///< highest ALAP-weight serviceable load first
};

const char* to_string(PortDiscipline discipline);
PortDiscipline port_discipline_from_string(const std::string& text);

// The Section 4 scheduler-cost constants and paper_scheduler_cost() moved
// to policy/prefetch_policy.hpp — the per-policy cost is a policy hook now.

struct OnlineSimOptions {
  PlatformConfig platform;
  /// The prefetch scheduling policy, by registered name + parameters
  /// (policy/registry.hpp). Policy-specific knobs — e.g. the hybrid's
  /// inter-task toggle or its beyond-critical tail prefetch — are policy
  /// parameters: PolicySpec("hybrid").with("intertask", "0").
  PolicySpec policy = PolicySpec("hybrid");
  ReplacementPolicy replacement = ReplacementPolicy::lru;
  ArrivalProcess arrivals;
  PortDiscipline port_discipline = PortDiscipline::fifo;
  /// Tile-pool admission/defragmentation knobs (pool/tile_pool.hpp).
  /// Defaults reproduce PR 2 bit-identically.
  PoolOptions pool;
  /// Per-admission run-time scheduling decision cost, charged on the
  /// simulated timeline: an admitted instance's loads and executions
  /// cannot start until `admit + scheduler_cost`. 0 (default) keeps
  /// scheduling free so existing golden numbers hold; see
  /// paper_scheduler_cost() for the Section 4 measurements.
  time_us scheduler_cost = 0;
  /// Model the platform's ISPs as one shared contended pool (PortSet of
  /// `platform.isps` servers) instead of per-instance contexts. Off by
  /// default: the per-instance model reproduces PR 3 bit-identically.
  bool shared_isps = false;
  /// Arbitration between waiting ISP executions when shared_isps is on:
  /// fifo (request order) or priority (highest ALAP weight first).
  PortDiscipline isp_discipline = PortDiscipline::fifo;
  /// How many queued instances the backlog prefetch may serve.
  int intertask_lookahead = 1;
  /// Real-time task model. 0 (default) = deadlines off: no per-instance
  /// deadline state, no miss accounting, behaviour bit-identical to the
  /// best-effort kernel. > 0: an instance arriving at t has absolute
  /// deadline t + relative deadline, where the relative deadline is the
  /// preparation's RtAttributes::relative_deadline_us when set and
  /// deadline_scale x the instance's ideal makespan otherwise.
  double deadline_scale = 0.0;
  /// Fraction of instances drawn as high-criticality (seeded, per job;
  /// a preparation's RtAttributes::criticality > 0 forces high). Only
  /// read when deadline_scale > 0.
  double high_criticality_fraction = 0.25;
  /// Preemptive checkpointing (requires deadline_scale > 0): a queued
  /// high-criticality arrival may checkpoint an idle low-criticality live
  /// instance's resident configurations off-chip and take its tiles; the
  /// victim re-enters the backlog and re-admits with cached configs. Off
  /// by default.
  bool preempt = false;
  /// Read by nothing; perfbench.cpp:381 copies it; deleted with ROADMAP
  /// item 1. The kernel always runs the calendar queue
  /// (sim/event_queue.hpp) with streamed arrivals.
  QueueBackend queue_backend = QueueBackend::calendar;
  /// Collect per-instance admit -> retire spans into OnlineReport::spans
  /// (equivalence tests). Off for long-horizon runs — the streaming
  /// quantile sketch keeps reporting response percentiles regardless.
  bool record_spans = true;
  /// Event-stream observer (sim/trace_hook.hpp). Null (default) = tracing
  /// off. When set it receives every event the report is folded from
  /// (sim/online_accounting.hpp) plus the completion events; reports are
  /// bit-identical either way. The trace subsystem (src/trace/) records
  /// the stream to JSONL/binary and can replay it into a bit-identical
  /// OnlineReport.
  TraceSink* trace = nullptr;
  std::uint64_t seed = 1;
  /// Sampler batches to draw (the flattened instances of these batches form
  /// the arrival stream) — same workload volume as a sequential run with
  /// the same iteration count.
  int iterations = 1000;
};

/// Aggregate results of one online simulation.
struct OnlineReport {
  /// The sequential simulator's metrics, identically defined (overhead is
  /// measured on per-instance spans, i.e. excludes queueing time).
  SimReport sim;
  /// Completion time of the last instance (simulated time).
  time_us horizon = 0;
  double mean_response_ms = 0.0;  ///< retire - arrival, mean over instances
  double max_response_ms = 0.0;
  double mean_queueing_ms = 0.0;  ///< admission - arrival (tile wait)
  double max_queueing_ms = 0.0;
  /// Total port busy time normalised by the port count:
  /// 100 * total_busy / (ports * horizon). Always <= 100; the
  /// un-normalised busy/horizon ratio of a saturated multi-port platform
  /// would exceed 100%.
  double port_utilisation_pct = 0.0;
  /// Per-port busy time over the same busy horizon as the total (the
  /// horizon extended to the last port-free instant), index = port id
  /// (size = reconfig_ports). Sums to port_utilisation_pct * ports by
  /// construction (asserted).
  std::vector<double> port_utilisation_per_port_pct;
  /// Total ISP execution time / (isps * horizon). A true utilisation
  /// (<= 100) when shared_isps is on; with per-instance ISPs it is the
  /// *offered* ISP load against the platform's nominal capacity and may
  /// exceed 100%.
  double isp_utilisation_pct = 0.0;
  /// Highest number of defrag migrations ever in flight at once (bounded
  /// by the port count).
  long peak_concurrent_migrations = 0;
  /// Streaming response-time percentiles (P² sketch — exact up to five
  /// instances, tight estimates beyond; no span recording needed).
  double response_p50_ms = 0.0;
  double response_p95_ms = 0.0;
  double response_p99_ms = 0.0;
  /// Time-weighted mean external fragmentation of the tile pool,
  /// 100 * (1 - largest free block / free tiles) integrated over the run.
  double mean_frag_pct = 0.0;
  /// Admissions that overtook an older queued instance (backfill/reorder).
  long queue_skips = 0;
  /// Defragmentation relocations (port migrations + free remaps).
  long defrag_moves = 0;
  /// Real-time metrics (all zero unless OnlineSimOptions::deadline_scale
  /// > 0). An instance misses when it retires strictly after its absolute
  /// deadline; lateness = retire - deadline (negative when early),
  /// tardiness = max(lateness, 0).
  long deadline_jobs = 0;       ///< instances that carried a deadline
  long deadline_misses = 0;
  long high_crit_jobs = 0;      ///< high-criticality instances
  long high_crit_misses = 0;
  double deadline_miss_pct = 0.0;   ///< 100 * misses / deadline_jobs
  double high_crit_miss_pct = 0.0;  ///< 100 * misses / high_crit_jobs
  double mean_lateness_ms = 0.0;    ///< mean signed lateness
  double max_tardiness_ms = 0.0;    ///< worst positive lateness
  /// Preemptive checkpoints performed (victims evicted to the backlog).
  long preemptions = 0;
  /// Per-instance admit -> retire spans in arrival order (equivalence
  /// tests; size == sim.instances; empty when
  /// OnlineSimOptions::record_spans is off).
  std::vector<time_us> spans;
  /// Kernel performance counters (util/perf_stats.hpp): deterministic
  /// event/queue/allocation counts plus wall-clock phase timers. Campaign
  /// reports expose only the deterministic subset; the phase timers are
  /// for OnlineReport consumers (`drhw_sched online --perf`).
  PerfCounters perf;
};

/// The one list of OnlineReport fields. Calls `f(name, field...)` once per
/// field, in trace-footer order: the embedded SimReport's fields first
/// (named "sim.*"), then the OnlineReport's own. `perf` is left out
/// (wall-clock timers, not simulation state). Pass one report to write or
/// read a field, two to compare them: the footer writer and reader
/// (trace/report_json.cpp) and verify_trace (trace/replay.cpp) are loops
/// over this list, so a field added here is serialised and verified.
template <typename F, typename... Reports>
void visit_report_fields(F&& f, Reports&... r) {
  f("sim.total_ideal", r.sim.total_ideal...);
  f("sim.total_actual", r.sim.total_actual...);
  f("sim.overhead_pct", r.sim.overhead_pct...);
  f("sim.instances", r.sim.instances...);
  f("sim.drhw_subtask_instances", r.sim.drhw_subtask_instances...);
  f("sim.reused_subtasks", r.sim.reused_subtasks...);
  f("sim.reuse_pct", r.sim.reuse_pct...);
  f("sim.loads", r.sim.loads...);
  f("sim.init_loads", r.sim.init_loads...);
  f("sim.cancelled_loads", r.sim.cancelled_loads...);
  f("sim.intertask_prefetches", r.sim.intertask_prefetches...);
  f("sim.energy", r.sim.energy...);
  f("sim.energy_saved", r.sim.energy_saved...);
  f("sim.spans", r.sim.spans...);
  f("horizon", r.horizon...);
  f("mean_response_ms", r.mean_response_ms...);
  f("max_response_ms", r.max_response_ms...);
  f("mean_queueing_ms", r.mean_queueing_ms...);
  f("max_queueing_ms", r.max_queueing_ms...);
  f("port_utilisation_pct", r.port_utilisation_pct...);
  f("port_utilisation_per_port_pct", r.port_utilisation_per_port_pct...);
  f("isp_utilisation_pct", r.isp_utilisation_pct...);
  f("peak_concurrent_migrations", r.peak_concurrent_migrations...);
  f("response_p50_ms", r.response_p50_ms...);
  f("response_p95_ms", r.response_p95_ms...);
  f("response_p99_ms", r.response_p99_ms...);
  f("mean_frag_pct", r.mean_frag_pct...);
  f("queue_skips", r.queue_skips...);
  f("defrag_moves", r.defrag_moves...);
  f("deadline_jobs", r.deadline_jobs...);
  f("deadline_misses", r.deadline_misses...);
  f("high_crit_jobs", r.high_crit_jobs...);
  f("high_crit_misses", r.high_crit_misses...);
  f("deadline_miss_pct", r.deadline_miss_pct...);
  f("high_crit_miss_pct", r.high_crit_miss_pct...);
  f("mean_lateness_ms", r.mean_lateness_ms...);
  f("max_tardiness_ms", r.max_tardiness_ms...);
  f("preemptions", r.preemptions...);
  f("spans", r.spans...);
}

/// Runs the online simulation. The sampler (and everything its instances
/// point to) must outlive the call.
OnlineReport run_online_simulation(const OnlineSimOptions& options,
                                   const IterationSampler& sampler);

}  // namespace drhw
