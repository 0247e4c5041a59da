#include "sim/event_sim.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "policy/prefetch_policy.hpp"
#include "policy/registry.hpp"
#include "sim/instance_arena.hpp"
#include "sim/online_accounting.hpp"
#include "sim/prep_table.hpp"
#include "util/check.hpp"

namespace drhw {

void ArrivalProcess::validate() const {
  // closed_loop paces itself off retires; periodic may derive its pace from
  // period_us alone. Everything else needs a positive rate (sporadic uses
  // it for the exponential slack on top of the minimum gap).
  const bool rate_free =
      kind == Kind::closed_loop || (kind == Kind::periodic && period_us > 0);
  if (!rate_free && !(rate_per_s > 0.0))
    throw std::invalid_argument("arrival rate must be positive");
  if (kind == Kind::bursty && burst_size < 1)
    throw std::invalid_argument("burst size must be >= 1");
  if (intra_burst_gap < 0)
    throw std::invalid_argument("negative intra-burst gap");
  if (think_time < 0) throw std::invalid_argument("negative think time");
  if (period_us < 0) throw std::invalid_argument("negative arrival period");
}

const char* to_string(ArrivalProcess::Kind kind) {
  switch (kind) {
    case ArrivalProcess::Kind::poisson:
      return "poisson";
    case ArrivalProcess::Kind::bursty:
      return "bursty";
    case ArrivalProcess::Kind::closed_loop:
      return "closed_loop";
    case ArrivalProcess::Kind::periodic:
      return "periodic";
    case ArrivalProcess::Kind::sporadic:
      return "sporadic";
  }
  return "?";
}

ArrivalProcess::Kind arrival_kind_from_string(const std::string& text) {
  if (text == "poisson") return ArrivalProcess::Kind::poisson;
  if (text == "bursty") return ArrivalProcess::Kind::bursty;
  if (text == "closed_loop") return ArrivalProcess::Kind::closed_loop;
  if (text == "periodic") return ArrivalProcess::Kind::periodic;
  if (text == "sporadic") return ArrivalProcess::Kind::sporadic;
  throw std::invalid_argument("unknown arrival kind '" + text + "'");
}

std::vector<std::string> arrival_kind_names() {
  return {"poisson", "bursty", "closed_loop", "periodic", "sporadic"};
}

const char* to_string(PortDiscipline discipline) {
  switch (discipline) {
    case PortDiscipline::fifo:
      return "fifo";
    case PortDiscipline::priority:
      return "priority";
  }
  return "?";
}

PortDiscipline port_discipline_from_string(const std::string& text) {
  if (text == "fifo") return PortDiscipline::fifo;
  if (text == "priority") return PortDiscipline::priority;
  throw std::invalid_argument("unknown port discipline '" + text +
                              "' (use fifo or priority)");
}

namespace {

/// Event kinds, ordered so that simultaneous events resolve exactly like
/// the single-instance evaluator: a completing load is visible to an
/// execution becoming ready at the same instant, and instance arrivals
/// (which snapshot the configuration store for binding) observe every
/// completion of that instant first. Scheduler-decision completions come
/// last: the decision takes the full charged interval. The numbers index
/// PerfCounters::events_by_kind, which readers take by position, so they
/// stay fixed (1 is unused).
enum EventKind : int {
  k_ev_load_done = 0,
  k_ev_exec_done = 2,
  k_ev_arrival = 3,
  k_ev_sched_done = 4,
};

/// Sentinel job ids for load completions that belong to no live instance.
constexpr std::int32_t k_prefetch_job = -1;
constexpr std::int32_t k_migration_job = -2;
/// Preemption checkpoint writeout; the victim is checkpoint_victim_ (one
/// checkpoint in flight at a time).
constexpr std::int32_t k_preempt_job = -3;

/// Sentinel slot ids of job_slot_: the instance has not been admitted yet
/// (queued/unarrived) or has already retired and returned its slot.
constexpr std::int32_t k_slot_queued = -1;
constexpr std::int32_t k_slot_retired = -2;

AccountingConstants accounting_constants(const OnlineSimOptions& options) {
  AccountingConstants constants;
  constants.reconfig_ports = options.platform.reconfig_ports;
  constants.isps = options.platform.isps;
  constants.reconfig_energy = options.platform.reconfig_energy;
  constants.deadlines = options.deadline_scale > 0.0;
  constants.record_spans = options.record_spans;
  return constants;
}

class OnlineSimulation {
 public:
  OnlineSimulation(const OnlineSimOptions& options,
                   const IterationSampler& sampler)
      : options_(options),
        trace_(options.trace),
        fold_(accounting_constants(options), options.trace),
        policy_(PolicyRegistry::instance().create(options.policy)),
        pool_(options.platform.tiles, options.pool),
        bind_rng_(options.seed ^ 0x5DEECE66DULL),
        preps_(*policy_, options.replacement) {
    PhaseTimer setup_timer(perf_.setup_ns);
    options_.platform.validate();
    options_.arrivals.validate();
    if (options_.iterations < 1)
      throw std::invalid_argument("online run needs >= 1 iteration");
    if (options_.scheduler_cost < 0)
      throw std::invalid_argument("scheduler cost must be >= 0");
    if (options_.deadline_scale < 0.0)
      throw std::invalid_argument("deadline scale must be >= 0");
    if (options_.high_criticality_fraction < 0.0 ||
        options_.high_criticality_fraction > 1.0)
      throw std::invalid_argument(
          "high-criticality fraction must be in [0, 1]");
    if (options_.preempt && !(options_.deadline_scale > 0.0))
      throw std::invalid_argument(
          "preemption needs deadlines (set a deadline scale > 0)");
    if (options_.shared_isps && options_.platform.isps < 1)
      throw std::invalid_argument(
          "shared-ISP contention needs a platform with >= 1 ISP");
    pool_.set_perf_counters(&perf_);
    pool_.set_trace_sink(&fold_);

    // Draw the whole instance stream up front. The sampler is the only
    // consumer of this generator, so the stream equals the sequential
    // simulator's on the same seed; arrival gaps come from an independent
    // generator so they cannot perturb it. The stream repeats few distinct
    // preparations, so per-instance state is one int32 into preps_, which
    // holds what the run reads per preparation (replacement values,
    // inter-task candidates, retire constants, the oracle's next uses).
    Rng stream_rng(options_.seed);
    for (int it = 0; it < options_.iterations; ++it)
      for (const PreparedScenario* prep : sampler(stream_rng))
        job_prep_.push_back(preps_.append(prep));
    job_arrival_.assign(job_prep_.size(), 0);
    job_slot_.assign(job_prep_.size(), k_slot_queued);
    fold_.reserve_jobs(job_prep_.size());
    setup_arenas();
    setup_deadlines();
    setup_arrivals();
  }

  OnlineReport run() {
    {
      PhaseTimer loop_timer(perf_.loop_ns);
      while (!events_.empty()) {
        const Event ev = events_.pop();
        switch (ev.kind) {
          case k_ev_load_done:
            on_load_done(ev.job, ev.subtask, ev.time);
            break;
          case k_ev_exec_done:
            on_exec_done(ev.job, ev.subtask, ev.time);
            break;
          case k_ev_arrival:
            // Streamed arrivals: the next one enters the queue the moment
            // this one leaves it, so the queue holds the live working set
            // instead of the whole stream. Closed loop has no stream
            // (arrival_order_ stays empty); its arrivals follow retires.
            if (!arrival_order_.empty()) push_next_arrival(ev.job);
            on_arrival(ev.job, ev.time);
            break;
          case k_ev_sched_done:
            on_sched_done(ev.job, ev.time);
            break;
        }
      }
    }
    DRHW_CHECK_EQ_MSG(retired_, static_cast<long>(job_prep_.size()),
                      "online simulation stalled");
    OnlineReport report;
    {
      // Scoped so the timer lands in finalize_ns before perf is copied.
      PhaseTimer finalize_timer(perf_.finalize_ns);
      report = finalize();
    }
    report.perf = perf_;
    return report;
  }

 private:
  // -- setup -------------------------------------------------------------

  void setup_arenas() {
    std::size_t stride = 0;
    ConfigId max_config = k_no_config;
    for (std::size_t p = 0; p < preps_.size(); ++p) {
      const SubtaskGraph& graph =
          *preps_.prep(static_cast<std::int32_t>(p)).graph;
      stride = std::max(stride, graph.size());
      for (std::size_t s = 0; s < graph.size(); ++s)
        max_config =
            std::max(max_config, graph.subtask(static_cast<SubtaskId>(s)).config);
    }
    arena_.configure(stride, &perf_);

    const auto tiles = static_cast<std::size_t>(options_.platform.tiles);
    ports_ = PortSet(options_.platform.reconfig_ports);
    if (options_.shared_isps) isps_ = PortSet(options_.platform.isps);
    live_.reserve(tiles + 1);
    protected_scratch_.assign(tiles, 0);
    movable_scratch_.assign(tiles, 0);
    // Dense in-flight load counts per configuration (index config + 1, so
    // k_no_config maps to slot 0) and per-source-tile migration state —
    // the former unordered_maps of the PR 2..5 kernel, now O(1) lookups
    // with zero steady-state allocation.
    inflight_.assign(static_cast<std::size_t>(max_config + 2), 0);
    migration_plans_.assign(tiles, MigrationPlan{});
    migration_active_.assign(tiles, 0);

    // Generation stamps of the queue head's configurations (index
    // config + 1, like inflight_): the backlog prefetch's protected set.
    if (intertask_enabled())
      head_stamp_.assign(static_cast<std::size_t>(max_config + 2), 0);
    // The per-preparation constants retire accounting folds in.
    fold_.on_preps(preps_.retire_rows());
    // Warm-up boundary of the allocation counters: the first half of the
    // stream retiring has visited every steady-state code path.
    warmup_retires_ = (static_cast<long>(job_prep_.size()) + 1) / 2;
  }

  /// Real-time task model: relative deadlines per preparation and a
  /// criticality level per job. Entirely skipped with deadline_scale == 0 —
  /// no state, no RNG draw, bit-identical best-effort runs.
  void setup_deadlines() {
    deadlines_enabled_ = options_.deadline_scale > 0.0;
    preempt_enabled_ = deadlines_enabled_ && options_.preempt;
    if (!deadlines_enabled_) return;
    admission_urgency_ = policy_->admission_urgency();
    prep_rel_deadline_.assign(preps_.size(), 0);
    for (std::size_t p = 0; p < preps_.size(); ++p) {
      const PreparedScenario& prep = preps_.prep(static_cast<std::int32_t>(p));
      const time_us own = prep.rt.relative_deadline_us;
      prep_rel_deadline_[p] =
          own > 0 ? own
                  : static_cast<time_us>(std::llround(
                        options_.deadline_scale *
                        static_cast<double>(prep.ideal)));
    }
    job_deadline_.assign(job_prep_.size(), k_no_time);
    job_crit_.assign(job_prep_.size(), 0);
    Rng crit_rng(options_.seed ^ 0xC2B2AE3D27D4EB4FULL);
    for (std::size_t j = 0; j < job_prep_.size(); ++j) {
      const bool forced = preps_.prep(job_prep_[j]).rt.criticality > 0;
      // Draw even when forced so the criticality mix of the other jobs is
      // independent of which preparations carry a forced level.
      const bool drawn =
          crit_rng.next_double() < options_.high_criticality_fraction;
      job_crit_[j] = forced || drawn ? 1 : 0;
    }
    if (preempt_enabled_) preempt_waiting_.reserve(64);
  }

  void setup_arrivals() {
    if (job_prep_.empty()) return;
    Rng gap_rng(options_.seed ^ 0x9E3779B97F4A7C15ULL);
    const auto exp_gap = [&]() -> time_us {
      const double u = gap_rng.next_double();
      const double seconds = -std::log(1.0 - u) / options_.arrivals.rate_per_s;
      return static_cast<time_us>(std::llround(seconds * 1e6));
    };
    // periodic/sporadic pace: the explicit period, or one derived from the
    // rate so `--arrivals periodic --rate 50` means one instance every 20ms.
    const auto period = [&]() -> time_us {
      if (options_.arrivals.period_us > 0) return options_.arrivals.period_us;
      return static_cast<time_us>(
          std::llround(1e6 / options_.arrivals.rate_per_s));
    };
    switch (options_.arrivals.kind) {
      case ArrivalProcess::Kind::poisson: {
        time_us t = 0;
        for (std::size_t j = 0; j < job_prep_.size(); ++j) {
          t += exp_gap();
          job_arrival_[j] = t;
        }
        break;
      }
      case ArrivalProcess::Kind::bursty: {
        time_us burst_start = 0;
        for (std::size_t j = 0; j < job_prep_.size(); ++j) {
          const auto in_burst = static_cast<time_us>(
              j % static_cast<std::size_t>(options_.arrivals.burst_size));
          if (in_burst == 0) burst_start += exp_gap();
          job_arrival_[j] =
              burst_start + in_burst * options_.arrivals.intra_burst_gap;
        }
        break;
      }
      case ArrivalProcess::Kind::periodic: {
        // The strictly-paced real-time stream: one instance every period.
        time_us t = 0;
        for (std::size_t j = 0; j < job_prep_.size(); ++j) {
          t += period();
          job_arrival_[j] = t;
        }
        break;
      }
      case ArrivalProcess::Kind::sporadic: {
        // Sporadic real-time stream: a minimum inter-arrival gap of one
        // period plus an exponential slack at mean 1/rate.
        time_us t = 0;
        for (std::size_t j = 0; j < job_prep_.size(); ++j) {
          t += period() + exp_gap();
          job_arrival_[j] = t;
        }
        break;
      }
      case ArrivalProcess::Kind::closed_loop:
        job_arrival_[0] = 0;  // the rest arrive as predecessors retire
        break;
    }
    if (options_.arrivals.kind == ArrivalProcess::Kind::closed_loop) {
      events_.push(0, k_ev_arrival, 0, k_no_subtask);
      return;
    }
    // Streamed arrivals: sorted by (time, job) — bursty streams can be
    // non-monotone in job order — and fed to the queue one at a time.
    // Popping arrival k pushes arrival k+1, whose time is >= the pop
    // instant, so the global pop order is the one pushing the whole
    // stream up front would produce (arrivals order after same-instant
    // completions under the kind order either way).
    arrival_order_.resize(job_prep_.size());
    for (std::size_t j = 0; j < arrival_order_.size(); ++j)
      arrival_order_[j] = static_cast<std::int32_t>(j);
    std::sort(arrival_order_.begin(), arrival_order_.end(),
              [&](std::int32_t a, std::int32_t b) {
                const auto ta = job_arrival_[static_cast<std::size_t>(a)];
                const auto tb = job_arrival_[static_cast<std::size_t>(b)];
                if (ta != tb) return ta < tb;
                return a < b;
              });
    arrival_cursor_ = 0;
    const std::int32_t first = arrival_order_.front();
    events_.push(job_arrival_[static_cast<std::size_t>(first)], k_ev_arrival,
                 first, k_no_subtask);
  }

  void push_next_arrival(std::int32_t popped) {
    DRHW_CHECK(arrival_cursor_ < arrival_order_.size() &&
               arrival_order_[arrival_cursor_] == popped);
    if (++arrival_cursor_ < arrival_order_.size()) {
      const std::int32_t next = arrival_order_[arrival_cursor_];
      events_.push(job_arrival_[static_cast<std::size_t>(next)], k_ev_arrival,
                   next, k_no_subtask);
    }
  }

  // -- shared helpers ----------------------------------------------------

  bool intertask_enabled() const { return policy_->uses_intertask(); }

  std::int32_t prep_index_of(std::int32_t j) const {
    return job_prep_[static_cast<std::size_t>(j)];
  }
  const PreparedScenario& prep_of(std::int32_t j) const {
    return preps_.prep(prep_index_of(j));
  }

  InstanceSlot& slot_of(std::int32_t j) {
    return arena_.slot(job_slot_[static_cast<std::size_t>(j)]);
  }
  const InstanceSlot& slot_of(std::int32_t j) const {
    return arena_.slot(job_slot_[static_cast<std::size_t>(j)]);
  }
  std::size_t base_of(std::int32_t j) const {
    return arena_.base(job_slot_[static_cast<std::size_t>(j)]);
  }

  int& inflight_ref(ConfigId config) {
    return inflight_[static_cast<std::size_t>(config + 1)];
  }

  /// True while any load of `config` — a live instance's own load on any
  /// port, or a backlog prefetch — is in flight. Prefetching a config that
  /// is about to become resident anyway would double the port time.
  bool config_in_flight(ConfigId config) const {
    return inflight_[static_cast<std::size_t>(config + 1)] > 0;
  }

  void release_inflight(ConfigId config) {
    int& count = inflight_ref(config);
    DRHW_CHECK_GT(count, 0);
    --count;
  }

  // -- admission ---------------------------------------------------------

  /// Admission ordering key under the policy's urgency hook: the absolute
  /// deadline (EDF), or deadline minus remaining ideal work (LLF — the
  /// shared `- now` term of the laxity drops out at a common decision
  /// instant). Nothing of a queued instance has executed, so its remaining
  /// work is the full ideal makespan.
  long long admission_urgency_of(std::int32_t j) const {
    const time_us deadline = job_deadline_[static_cast<std::size_t>(j)];
    if (admission_urgency_ == AdmissionUrgency::laxity)
      return deadline - prep_of(j).ideal;
    return deadline;
  }

  bool urgent_admission() const {
    return deadlines_enabled_ &&
           admission_urgency_ != AdmissionUrgency::arrival;
  }

  /// Sends `j` to the pool's admission backlog. Its urgency is fixed by
  /// its deadline, so a preempted victim re-enters with the same key.
  void enqueue(std::int32_t j, time_us t) {
    pool_.enqueue(j, prep_of(j).placement.tiles_used, t,
                  urgent_admission() ? admission_urgency_of(j) : 0);
  }

  void try_admit(time_us t) {
    const bool urgent = urgent_admission();
    for (;;) {
      const std::int32_t index =
          urgent ? pool_.select_urgent(t) : pool_.select(t);
      if (index < 0) return;
      admit(index, t);
    }
  }

  void admit(std::int32_t index, time_us t) {
    const PreparedScenario& prep = prep_of(index);
    const SubtaskGraph& graph = *prep.graph;
    const Placement& placement = prep.placement;
    const std::int32_t slot_id = arena_.acquire(index, graph.size());
    job_slot_[static_cast<std::size_t>(index)] = slot_id;
    InstanceSlot& slot = arena_.slot(slot_id);
    const std::size_t base = arena_.base(slot_id);
    slot.admit = t;
    if (deadlines_enabled_) {
      slot.deadline = job_deadline_[static_cast<std::size_t>(index)];
      slot.criticality = job_crit_[static_cast<std::size_t>(index)];
    }

    // Tiles the pool offers for binding: every free tile (count-based
    // pools, the PR 2 view) or the best-scoring free block (contiguous
    // pools, placement-aware).
    wanted_scratch_.clear();
    if (options_.pool.contiguous && policy_->uses_reuse())
      first_subtask_configs_into(graph, placement, wanted_scratch_);
    pool_.offer_into(index, wanted_scratch_, free_tiles_scratch_);

    if (policy_->uses_reuse()) {
      // The next-use oracle ranks over every job after this one in arrival
      // order: the whole remaining stream, as in the sequential simulator.
      NextUseRank oracle;
      if (options_.replacement == ReplacementPolicy::oracle)
        oracle = preps_.next_use_from(static_cast<long>(index) + 1);
      bind_tiles(graph, placement, pool_.store(), free_tiles_scratch_,
                 options_.replacement, bind_rng_, oracle, binding_scratch_);
    } else {
      bind_without_reuse(graph, placement, free_tiles_scratch_,
                         binding_scratch_);
    }
    slot.phys_of_tile = binding_scratch_.phys_of_tile;
    slot.reused = binding_scratch_.reused_subtasks;
    pool_.occupy(index, slot.phys_of_tile, t);

    build_plan(slot, base, prep, binding_scratch_.resident, t);

    // Per-subtask scheduling state.
    for (std::size_t s = 0; s < graph.size(); ++s) {
      arena_.preds_left[base + s] = static_cast<int>(
          graph.predecessors(static_cast<SubtaskId>(s)).size());
      if (!arena_.needs[base + s]) arena_.config_done[base + s] = 1;
    }
    if (live_.size() == live_.capacity()) perf_.note_alloc();
    live_.push_back(index);
    {
      TraceEvent ev(TraceEvent::Kind::admit, t, index);
      ev.loads = slot.reused;
      ev.aux = slot.cancelled;
      ev.init = static_cast<std::int64_t>(slot.init_count);
      if (trace_) {
        ev.tiles = slot.phys_of_tile.data();
        ev.tile_count = static_cast<std::uint32_t>(slot.phys_of_tile.size());
      }
      fold_.record(ev);
    }

    // The run-time scheduling decision itself costs simulated time: until
    // it completes nothing of this instance may load or execute.
    slot.sched_done = options_.scheduler_cost == 0;
    if (!slot.sched_done)
      events_.push(t + options_.scheduler_cost, k_ev_sched_done, index,
                   k_no_subtask);

    // Initial enables, exactly like the evaluator's t = 0 marks.
    for (std::size_t s = 0; s < graph.size(); ++s) {
      const auto id = static_cast<SubtaskId>(s);
      if (placement.position_of[s] == 0) mark_arrival(index, id, t);
      if (graph.predecessors(id).empty()) mark_dag_ready(index, id, t);
    }
    try_port(t);
  }

  /// Asks the policy for the instance's load plan and translates it into
  /// the slot's scheduling state. Any initialization-phase loads become
  /// ordinary head-of-order port requests (exempt from the unit-order
  /// gate); the stored schedule starts once they all completed.
  void build_plan(InstanceSlot& slot, std::size_t base,
                  const PreparedScenario& prep,
                  const std::vector<bool>& resident, time_us t) {
    PolicyContext context;
    context.now = t;
    context.ports = options_.platform.reconfig_ports;
    context.port_busy = ports_.total_busy();
    // The job being admitted was already popped from the pool queue and is
    // not yet in live_, so both counts exclude it.
    context.live_instances = static_cast<int>(live_.size());
    context.queued_instances = static_cast<int>(pool_.queued());
    LoadPlan& plan = plan_scratch_;
    policy_->plan(prep, resident, context, plan);
    check_load_plan(plan);

    slot.policy = plan.policy;
    slot.init_count = plan.init_count;
    slot.cancelled = plan.cancelled_loads;
    slot.init_pending = static_cast<int>(slot.init_count);
    slot.init_done = slot.init_pending == 0;
    // Explicit and priority plans are served in plan order.
    if (plan.policy != LoadPolicy::on_demand) slot.order = plan.loads;
    // The ids evaluate() rejects: a bad one here would index outside the
    // instance's arena row or load onto no tile. `needs` starts zeroed,
    // so it also catches duplicates without allocating.
    const std::size_t n = prep.graph->size();
    for (std::size_t i = 0; i < plan.loads.size(); ++i) {
      const SubtaskId s = plan.loads[i];
      DRHW_CHECK_MSG(s >= 0 && static_cast<std::size_t>(s) < n,
                     "load plan: load id out of range");
      DRHW_CHECK_MSG(prep.placement.on_drhw(s),
                     "load plan: load for a non-DRHW subtask");
      const std::size_t idx = base + static_cast<std::size_t>(s);
      DRHW_CHECK_MSG(!arena_.needs[idx], "load plan: duplicate load");
      arena_.needs[idx] = 1;
      if (i < plan.init_count) arena_.init_load[idx] = 1;
    }
  }

  // -- state transitions (mirroring the single-instance evaluator) -------

  void mark_arrival(std::int32_t j, SubtaskId s, time_us t) {
    const std::size_t idx = base_of(j) + static_cast<std::size_t>(s);
    DRHW_CHECK_EQ(arena_.arrived[idx], k_no_time);
    arena_.arrived[idx] = t;
    if (arena_.needs[idx]) try_port(t);
    // Always re-check execution: an initialization-phase load is exempt
    // from the unit-order arrival gate, so its config can already be done
    // by the time the subtask arrives — without this call nothing would
    // ever release the execution (missed wakeup -> stalled simulation).
    try_exec(j, s, t);
  }

  void mark_dag_ready(std::int32_t j, SubtaskId s, time_us t) {
    const InstanceSlot& slot = slot_of(j);
    const std::size_t idx = base_of(j) + static_cast<std::size_t>(s);
    DRHW_CHECK_EQ(arena_.dag_ready[idx], k_no_time);
    arena_.dag_ready[idx] = t;
    if (arena_.needs[idx] && slot.policy == LoadPolicy::on_demand &&
        arena_.arrived[idx] != k_no_time)
      try_port(t);
    try_exec(j, s, t);
  }

  void try_exec(std::int32_t j, SubtaskId s, time_us t) {
    const InstanceSlot& slot = slot_of(j);
    const std::size_t idx = base_of(j) + static_cast<std::size_t>(s);
    if (arena_.started[idx]) return;
    if (arena_.dag_ready[idx] == k_no_time || arena_.arrived[idx] == k_no_time)
      return;
    if (arena_.needs[idx] && !arena_.config_done[idx]) return;
    if (!slot.sched_done) return;  // the run-time decision is still charged
    if (!slot.init_done) return;  // stored schedule waits for the init phase
    const TileId tile =
        prep_of(j).placement.tile_of[static_cast<std::size_t>(s)];
    if (tile != k_no_tile) {
      // A tile being defragmented cannot execute until the move lands.
      if (pool_.migrating(slot.phys_of_tile[static_cast<std::size_t>(tile)]))
        return;
    } else if (options_.shared_isps) {
      // Shared ISPs: the execution must win one of the contended servers.
      if (arena_.isp_queued[idx]) return;  // already waiting
      // Never dispatch past a non-empty wait queue: a server can read
      // idle at instant t while the exec_done that freed it is still
      // pending at the same timestamp — jumping in here would overtake
      // older (fifo) or heavier (priority) waiters. Queuing is safe: that
      // same-instant completion's dispatch pass drains the queue in
      // discipline order onto every idle server.
      if (!isp_waiting_.empty() || !isps_.idle_at(isps_.earliest(), t)) {
        if (isp_waiting_.size() == isp_waiting_.capacity())
          perf_.note_alloc();
        isp_waiting_.push_back({j, s, isp_seq_++});
        arena_.isp_queued[idx] = 1;
        return;
      }
    }
    begin_execution(j, s, t);
  }

  /// Starts the execution unconditionally (every gate already checked).
  void begin_execution(std::int32_t j, SubtaskId s, time_us t) {
    const PreparedScenario& prep = prep_of(j);
    const time_us duration = prep.graph->subtask(s).exec_time;
    const TileId tile = prep.placement.tile_of[static_cast<std::size_t>(s)];
    TraceEvent ev(TraceEvent::Kind::exec_start, t, j);
    ev.subtask = s;
    ev.duration = duration;
    if (tile == k_no_tile) {
      ev.aux = 1;  // ISP execution: the fold counts it as ISP load
      if (options_.shared_isps) {
        const std::size_t server = isps_.earliest();
        isps_.dispatch(server, t, duration);
        ev.unit = static_cast<std::int32_t>(server);
      } else {
        ev.unit = prep.placement.isp_of[static_cast<std::size_t>(s)];
      }
    } else {
      ev.unit = slot_of(j).phys_of_tile[static_cast<std::size_t>(tile)];
    }
    // Only ISP time reaches the report; a tile execution is for the trace.
    if (trace_ || tile == k_no_tile) fold_.record(ev);
    arena_.started[base_of(j) + static_cast<std::size_t>(s)] = 1;
    events_.push(t + duration, k_ev_exec_done, j, s);
  }

  /// An ISP server just freed (shared mode): hand it — and any other idle
  /// server — to the waiting executions under the ISP discipline. fifo =
  /// request order; priority = highest ALAP weight, older request on ties.
  void dispatch_isp_waiters(time_us t) {
    while (!isp_waiting_.empty() && isps_.idle_at(isps_.earliest(), t)) {
      std::size_t pick = 0;
      if (options_.isp_discipline == PortDiscipline::priority) {
        for (std::size_t i = 1; i < isp_waiting_.size(); ++i) {
          const IspWaiter& a = isp_waiting_[i];
          const IspWaiter& b = isp_waiting_[pick];
          const time_us wa =
              prep_of(a.job).weights[static_cast<std::size_t>(a.subtask)];
          const time_us wb =
              prep_of(b.job).weights[static_cast<std::size_t>(b.subtask)];
          if (wa > wb) pick = i;  // ties keep the older request (lower seq)
        }
      }
      const IspWaiter waiter = isp_waiting_[pick];
      isp_waiting_.erase(isp_waiting_.begin() +
                         static_cast<std::ptrdiff_t>(pick));
      const std::size_t idx =
          base_of(waiter.job) + static_cast<std::size_t>(waiter.subtask);
      arena_.isp_queued[idx] = 0;
      DRHW_CHECK_MSG(!arena_.started[idx],
                     "queued ISP execution already started");
      begin_execution(waiter.job, waiter.subtask, t);
    }
  }

  // -- the shared reconfiguration port -----------------------------------

  /// Next serviceable load of one live instance under its own policy, or
  /// k_no_subtask. Pure scan; the caller starts the load explicitly.
  SubtaskId job_candidate(std::int32_t j) const {
    const InstanceSlot& slot = slot_of(j);
    if (!slot.sched_done) return k_no_subtask;  // decision still in flight
    const std::size_t base = base_of(j);
    switch (slot.policy) {
      case LoadPolicy::explicit_order:
      case LoadPolicy::priority: {
        // Both serve slot.order from the next_explicit cursor, which
        // start_job_load() keeps past the started prefix.
        const bool priority = slot.policy == LoadPolicy::priority;
        for (std::size_t i = slot.next_explicit; i < slot.order.size(); ++i) {
          const SubtaskId s = slot.order[i];
          const std::size_t idx = base + static_cast<std::size_t>(s);
          if (arena_.load_started[idx]) continue;
          // Priority: the first arrived load, with no head-of-line block.
          if (priority) {
            if (arena_.arrived[idx] != k_no_time) return s;
            continue;
          }
          // Initialization-phase loads are not gated on the unit order —
          // they precede every execution of the instance, and on
          // multi-port platforms they dispatch in parallel.
          if (i >= slot.init_count) {
            // Stored-schedule loads wait for the whole init phase, not
            // just for its loads to have *started*: the evaluator holds
            // the stored schedule back until the last init load has
            // completed, and this gate is what keeps multi-port spans
            // equal at arrival rate -> 0 (with one port it is vacuous —
            // the port busy with the last init load blocks any scan
            // anyway).
            if (!slot.init_done) return k_no_subtask;
            if (arena_.arrived[idx] == k_no_time)
              return k_no_subtask;  // head-of-line block
          }
          return s;
        }
        return k_no_subtask;
      }
      case LoadPolicy::on_demand: {
        SubtaskId best = k_no_subtask;
        time_us best_ready = 0;
        const std::size_t n = prep_of(j).graph->size();
        for (std::size_t s = 0; s < n; ++s) {
          const std::size_t idx = base + s;
          if (!arena_.needs[idx] || arena_.load_started[idx] ||
              arena_.arrived[idx] == k_no_time ||
              arena_.dag_ready[idx] == k_no_time)
            continue;
          if (best == k_no_subtask || arena_.dag_ready[idx] < best_ready) {
            best = static_cast<SubtaskId>(s);
            best_ready = arena_.dag_ready[idx];
          }
        }
        return best;
      }
    }
    return k_no_subtask;
  }

  void start_job_load(std::int32_t j, SubtaskId s, std::size_t port,
                      time_us t) {
    InstanceSlot& slot = slot_of(j);
    const PreparedScenario& prep = prep_of(j);
    const std::size_t base = base_of(j);
    arena_.load_started[base + static_cast<std::size_t>(s)] = 1;
    ++inflight_ref(prep.graph->subtask(s).config);
    const time_us duration =
        options_.platform.load_latency(prep.graph->subtask(s).load_time);
    ports_.dispatch(port, t, duration);
    ++slot.loads;
    ++slot.pending_loads;
    {
      TraceEvent ev(TraceEvent::Kind::load_start, t, j);
      ev.subtask = s;
      ev.config = prep.graph->subtask(s).config;
      ev.unit = static_cast<std::int32_t>(port);
      ev.duration = duration;
      ev.src = slot.phys_of_tile[static_cast<std::size_t>(
          prep.placement.tile_of[static_cast<std::size_t>(s)])];
      fold_.record(ev);
    }
    if (slot.policy != LoadPolicy::on_demand)
      while (slot.next_explicit < slot.order.size() &&
             arena_.load_started[base + static_cast<std::size_t>(
                                            slot.order[slot.next_explicit])])
        ++slot.next_explicit;
    events_.push(t + duration, k_ev_load_done, j, s);
  }

  /// Marks in protected_scratch_ the free tiles holding a configuration
  /// the queue's head wants: evicting one of them for a prefetch would
  /// trade a hidden load for an exposed one. prefetch_victim() reads only
  /// the free tiles' entries, so the others are left stale.
  /// protected_scratch_ is a member: no allocation on the event path.
  void protect_head_configs() {
    const std::int32_t head_prep = prep_index_of(pool_.queue_head());
    if (head_prep != stamped_prep_) {  // a new head: stamp its configs
      stamped_prep_ = head_prep;
      ++head_generation_;
      const SubtaskGraph& head = *prep_of(pool_.queue_head()).graph;
      for (std::size_t s = 0; s < head.size(); ++s) {
        const ConfigId config =
            head.subtask(static_cast<SubtaskId>(s)).config;
        if (config != k_no_config)
          head_stamp_[static_cast<std::size_t>(config + 1)] =
              head_generation_;
      }
    }
    const ConfigStore& store = pool_.store();
    pool_.visit_free([&](PhysTileId t) {
      protected_scratch_[static_cast<std::size_t>(t)] =
          head_stamp_[static_cast<std::size_t>(store.config_on(t) + 1)] ==
          head_generation_;
      return false;
    });
  }

  /// Prefetches one configuration for a queued (arrived, unadmitted)
  /// instance onto a free tile. Returns true if a load was started. The
  /// walk builds the protected set only when it needs a victim: most walks
  /// find every candidate resident or in flight and never do.
  bool start_backlog_prefetch(std::size_t port, time_us t) {
    // Exact early exits: an empty backlog (the common idle-port case), a
    // closed lookahead, or no free tile for prefetch_victim() to return.
    if (pool_.queue_empty() || options_.intertask_lookahead <= 0 ||
        pool_.free_count() == 0)
      return false;
    ++perf_.backlog_walks;
    // One forward walk over the first `intertask_lookahead` queued jobs;
    // the first prefetch started, or an exhausted pool, ends it.
    const auto lookahead =
        static_cast<std::size_t>(options_.intertask_lookahead);
    bool started = false;
    pool_.visit_queued(lookahead, [&](std::int32_t queued) {
      const std::int32_t p = prep_index_of(queued);
      const SubtaskGraph& graph = *preps_.prep(p).graph;
      for (const SubtaskId s : preps_.candidates(p)) {
        const ConfigId config = graph.subtask(s).config;
        if (config == k_no_config || pool_.store().holds(config) ||
            config_in_flight(config))
          continue;
        protect_head_configs();  // the walk's only victim lookup
        const PhysTileId victim = pool_.prefetch_victim(protected_scratch_);
        if (victim == k_no_phys_tile) return true;  // pool exhausted
        const double value =
            static_cast<double>(preps_.values(p)[static_cast<std::size_t>(s)]);
        pool_.reserve(victim, config, value, t);
        ++inflight_ref(config);
        const time_us duration =
            options_.platform.load_latency(graph.subtask(s).load_time);
        ports_.dispatch(port, t, duration);
        TraceEvent ev(TraceEvent::Kind::prefetch_start, t, queued);
        ev.config = config;
        ev.unit = static_cast<std::int32_t>(port);
        ev.duration = duration;
        ev.src = victim;
        fold_.record(ev);
        events_.push(t + duration, k_ev_load_done, k_prefetch_job,
                     static_cast<SubtaskId>(victim));
        started = true;
        return true;
      }
      return false;
    });
    return started;
  }

  /// Held tiles that are safe to relocate right now: the owner is live but
  /// the tile neither executes nor receives a load at this instant.
  void build_movable(std::vector<char>& movable) const {
    std::fill(movable.begin(), movable.end(), 0);
    for (const std::int32_t j : live_) {
      const InstanceSlot& slot = slot_of(j);
      const Placement& placement = prep_of(j).placement;
      const std::size_t base = base_of(j);
      for (std::size_t vt = 0; vt < slot.phys_of_tile.size(); ++vt) {
        const PhysTileId p = slot.phys_of_tile[vt];
        if (pool_.migrating(p)) continue;
        bool busy = false;
        for (const SubtaskId s : placement.tile_sequence[vt]) {
          const std::size_t idx = base + static_cast<std::size_t>(s);
          if ((arena_.started[idx] && !arena_.finished[idx]) ||
              (arena_.load_started[idx] && !arena_.config_done[idx])) {
            busy = true;
            break;
          }
        }
        if (!busy) movable[static_cast<std::size_t>(p)] = 1;
      }
    }
  }

  /// Defragmentation step: free remaps are applied immediately; a real
  /// migration occupies the port. Returns true when the port scan must
  /// restart — either this step took the port, or it admitted instances
  /// whose nested try_port may have (falling through to the backlog
  /// prefetch with a stale idle-port assumption would double-book it).
  /// Migrations already in flight do not stop another from starting: each
  /// spare port may carry its own relocation (the plan excludes in-flight
  /// sources and reserved destinations).
  bool start_defrag(std::size_t port, time_us t) {
    if (!pool_.head_fragmentation_blocked()) return false;
    build_movable(movable_scratch_);
    for (;;) {
      const auto plan = pool_.plan_defrag(movable_scratch_);
      if (!plan) return false;
      if (!plan->needs_port()) {
        // An empty held tile carries no bitstream: remapping it is free.
        pool_.apply_remap(*plan, t);
        remap_owner(*plan);
        // movable_scratch_ predates this remap: the relocated tile is
        // still the same idle empty holding (nothing can execute on a
        // configuration-less tile), so it stays movable for the
        // replanning below — otherwise it would falsely veto every
        // window containing it as held-but-unmovable.
        movable_scratch_[static_cast<std::size_t>(plan->dst)] = 1;
        if (!pool_.head_fragmentation_blocked()) {
          try_admit(t);
          return true;
        }
        continue;
      }
      pool_.begin_migration(*plan, t);
      const auto src = static_cast<std::size_t>(plan->src);
      DRHW_CHECK(!migration_active_[src]);
      migration_active_[src] = 1;
      migration_plans_[src] = *plan;
      const time_us duration = options_.platform.reconfig_latency;
      ports_.dispatch(port, t, duration);
      TraceEvent ev(TraceEvent::Kind::migration_start, t, plan->owner);
      ev.unit = static_cast<std::int32_t>(port);
      ev.duration = duration;
      ev.src = plan->src;
      ev.dst = plan->dst;
      fold_.record(ev);
      // The completion event carries the source tile so the handler can
      // retire the right plan when several moves are in flight.
      events_.push(t + duration, k_ev_load_done, k_migration_job,
                   static_cast<SubtaskId>(plan->src));
      return true;
    }
  }

  void remap_owner(const MigrationPlan& plan) {
    DRHW_CHECK(job_slot_[static_cast<std::size_t>(plan.owner)] >= 0);
    InstanceSlot& owner = slot_of(plan.owner);
    for (PhysTileId& p : owner.phys_of_tile)
      if (p == plan.src) p = plan.dst;
  }

  // -- preemptive checkpointing ------------------------------------------
  //
  // When a high-criticality arrival is still queued after try_admit, it
  // requests a preemption. The next idle port checkpoints a low-criticality
  // victim's resident configurations off-chip (one state-writeout charge on
  // the port; the configurations stay cached in the store) and re-enqueues
  // the victim, whose re-admission degrades the lost loads to cached reuse
  // hits. Victims must be quiescent — nothing currently executing, no load
  // or migration in flight — so freeing the tiles cannot corrupt a running
  // subtask; completed subtasks are re-executed after re-admission (the
  // checkpoint preserves configuration state, not execution state).

  /// Live instance that may be checkpointed for `requester`, or -1: a
  /// low-criticality instance with a later deadline than the requester,
  /// nothing currently executing (on tiles or ISPs), no load in flight,
  /// holding at least one tile none of which is migrating. Latest deadline
  /// first.
  std::int32_t pick_victim(std::int32_t requester) const {
    const time_us requester_deadline =
        job_deadline_[static_cast<std::size_t>(requester)];
    std::int32_t victim = -1;
    time_us victim_deadline = 0;
    for (const std::int32_t v : live_) {
      if (job_crit_[static_cast<std::size_t>(v)]) continue;
      const time_us deadline = job_deadline_[static_cast<std::size_t>(v)];
      if (deadline <= requester_deadline) continue;
      if (victim != -1 && deadline <= victim_deadline) continue;
      const InstanceSlot& slot = slot_of(v);
      if (!slot.sched_done || slot.pending_loads > 0) continue;
      const std::size_t base = base_of(v);
      const std::size_t n = prep_of(v).graph->size();
      bool busy = false;
      for (std::size_t s = 0; s < n && !busy; ++s)
        busy = (arena_.started[base + s] && !arena_.finished[base + s]) ||
               arena_.isp_queued[base + s];
      if (busy) continue;
      if (slot.phys_of_tile.empty()) continue;  // holds no tile
      if (std::any_of(slot.phys_of_tile.begin(), slot.phys_of_tile.end(),
                      [&](PhysTileId p) { return pool_.migrating(p); }))
        continue;
      victim = v;
      victim_deadline = deadline;
    }
    return victim;
  }

  /// Serves the oldest still-pending preemption request on an idle port.
  /// Returns true when a checkpoint writeout took the port.
  bool start_checkpoint(std::size_t port, time_us t) {
    if (checkpoint_victim_ != -1) return false;  // one writeout at a time
    while (!preempt_waiting_.empty()) {
      const std::int32_t requester = preempt_waiting_.front();
      if (job_slot_[static_cast<std::size_t>(requester)] != k_slot_queued) {
        // Admitted (or retired) in the meantime: request satisfied.
        preempt_waiting_.erase(preempt_waiting_.begin());
        continue;
      }
      const std::int32_t victim = pick_victim(requester);
      if (victim == -1) return false;  // keep the request for later
      // One checkpoint attempt per request: drop it now so a victim-less
      // re-check cannot spin the port.
      preempt_waiting_.erase(preempt_waiting_.begin());
      InstanceSlot& slot = slot_of(victim);
      for (const PhysTileId p : slot.phys_of_tile) pool_.begin_checkpoint(p);
      checkpoint_victim_ = victim;
      // One state-writeout charge on the port, at reconfiguration cost —
      // the migration-to-store this models.
      const time_us duration = options_.platform.reconfig_latency;
      ports_.dispatch(port, t, duration);
      TraceEvent ev(TraceEvent::Kind::checkpoint_start, t, victim);
      ev.unit = static_cast<std::int32_t>(port);
      ev.duration = duration;
      fold_.record(ev);
      events_.push(t + duration, k_ev_load_done, k_preempt_job, k_no_subtask);
      return true;
    }
    return false;
  }

  /// Checkpoint writeout landed: free the victim's tiles (configs stay
  /// cached), report its dropped stint, and send it back to the admission
  /// backlog with its original deadline.
  void finish_preempt(std::int32_t victim, time_us t) {
    const std::int32_t slot_id = job_slot_[static_cast<std::size_t>(victim)];
    InstanceSlot& slot = arena_.slot(slot_id);
    for (const PhysTileId p : slot.phys_of_tile) pool_.finish_checkpoint(p, t);
    // The fold charges the dropped stint's loads and gives back its
    // queueing (sim/online_accounting.cpp).
    TraceEvent ev(TraceEvent::Kind::preempt, t, victim);
    ev.loads = slot.loads;
    ev.init = static_cast<std::int64_t>(slot.init_count);
    fold_.record(ev);
    live_.erase(std::find(live_.begin(), live_.end(), victim));
    arena_.release(slot_id);
    job_slot_[static_cast<std::size_t>(victim)] = k_slot_queued;
    enqueue(victim, t);
  }

  void try_port(time_us t) {
    for (;;) {
      const std::size_t port = ports_.earliest();
      if (!ports_.idle_at(port, t)) return;  // its LoadDone will retrigger us

      // Urgent work first: a pending preemption outranks every other use of
      // the idle port — the writeout frees tiles a blocked high-criticality
      // arrival is waiting on, and under saturation there is always some
      // ordinary load that would otherwise starve the request forever.
      if (preempt_enabled_ && start_checkpoint(port, t)) continue;

      std::int32_t best_job = -1;
      SubtaskId best_subtask = k_no_subtask;
      for (const std::int32_t j : live_) {
        // A checkpoint writeout in flight owns the victim's tiles; its
        // remaining loads must not dispatch onto them mid-writeout.
        if (j == checkpoint_victim_) continue;
        const SubtaskId s = job_candidate(j);
        if (s == k_no_subtask) continue;
        if (options_.port_discipline == PortDiscipline::fifo) {
          best_job = j;
          best_subtask = s;
          break;  // live_ is in admission order
        }
        if (best_job == -1 ||
            prep_of(j).weights[static_cast<std::size_t>(s)] >
                prep_of(best_job)
                    .weights[static_cast<std::size_t>(best_subtask)]) {
          best_job = j;
          best_subtask = s;
        }
      }
      if (best_job != -1) {
        start_job_load(best_job, best_subtask, port, t);
        continue;
      }
      if (options_.pool.defrag && start_defrag(port, t)) continue;
      if (intertask_enabled() && start_backlog_prefetch(port, t)) continue;
      return;
    }
  }

  // -- event handlers ----------------------------------------------------

  void on_arrival(std::int32_t j, time_us t) {
    if (deadlines_enabled_)
      job_deadline_[static_cast<std::size_t>(j)] =
          t + prep_rel_deadline_[static_cast<std::size_t>(prep_index_of(j))];
    {
      TraceEvent ev(TraceEvent::Kind::arrival, t, j);
      ev.prep = prep_index_of(j);
      if (deadlines_enabled_) {
        ev.deadline = job_deadline_[static_cast<std::size_t>(j)];
        ev.aux = job_crit_[static_cast<std::size_t>(j)];
      }
      fold_.record(ev);
    }
    enqueue(j, t);
    try_admit(t);
    if (preempt_enabled_ &&
        job_slot_[static_cast<std::size_t>(j)] == k_slot_queued &&
        job_crit_[static_cast<std::size_t>(j)]) {
      // A high-criticality arrival the pool could not take: request a
      // preemption. The next idle port serves it (try_port below, or any
      // later port event).
      if (preempt_waiting_.size() == preempt_waiting_.capacity())
        perf_.note_alloc();
      preempt_waiting_.push_back(j);
    }
    try_port(t);
  }

  void on_sched_done(std::int32_t j, time_us t) {
    if (trace_) fold_.record(TraceEvent(TraceEvent::Kind::sched_done, t, j));
    slot_of(j).sched_done = true;
    const std::size_t n = prep_of(j).graph->size();
    for (std::size_t s = 0; s < n; ++s)
      try_exec(j, static_cast<SubtaskId>(s), t);
    try_port(t);
  }

  void on_load_done(std::int32_t j, SubtaskId s, time_us t) {
    if (j == k_migration_job) {  // defragmentation move landed
      const auto src = static_cast<std::size_t>(s);
      DRHW_CHECK_MSG(migration_active_[src],
                     "migration completion without a matching plan");
      const MigrationPlan plan = migration_plans_[src];
      migration_active_[src] = 0;
      if (pool_.finish_migration(plan, t)) remap_owner(plan);
      // Executions gated on the migrating tile may go now — whether or not
      // the transfer held (an aborted transfer leaves the owner on the
      // source tile, whose gate just lifted). Skip a retired owner.
      if (job_slot_[static_cast<std::size_t>(plan.owner)] >= 0) {
        const std::size_t n = prep_of(plan.owner).graph->size();
        for (std::size_t k = 0; k < n; ++k)
          try_exec(plan.owner, static_cast<SubtaskId>(k), t);
      }
      try_admit(t);
      try_port(t);
      return;
    }
    if (j == k_prefetch_job) {  // backlog prefetch; `s` carries the tile
      const auto tile = static_cast<PhysTileId>(s);
      const ConfigId config = pool_.finish_prefetch(tile, t);
      release_inflight(config);
      if (trace_) {
        TraceEvent ev(TraceEvent::Kind::prefetch_done, t);
        ev.config = config;
        ev.src = tile;
        fold_.record(ev);
      }
      try_admit(t);
      try_port(t);
      return;
    }
    if (j == k_preempt_job) {  // checkpoint writeout landed
      const std::int32_t victim = checkpoint_victim_;
      DRHW_CHECK_MSG(victim >= 0, "checkpoint completion without a victim");
      checkpoint_victim_ = -1;
      finish_preempt(victim, t);
      try_admit(t);
      try_port(t);
      return;
    }
    InstanceSlot& slot = slot_of(j);
    const PreparedScenario& prep = prep_of(j);
    const std::size_t idx = base_of(j) + static_cast<std::size_t>(s);
    arena_.config_done[idx] = 1;
    --slot.pending_loads;
    release_inflight(prep.graph->subtask(s).config);
    const TileId tile = prep.placement.tile_of[static_cast<std::size_t>(s)];
    pool_.store().record_load(
        slot.phys_of_tile[static_cast<std::size_t>(tile)],
        prep.graph->subtask(s).config, t,
        static_cast<double>(
            preps_.values(prep_index_of(j))[static_cast<std::size_t>(s)]));
    if (trace_) {
      TraceEvent ev(TraceEvent::Kind::load_done, t, j);
      ev.subtask = s;
      ev.src = slot.phys_of_tile[static_cast<std::size_t>(tile)];
      fold_.record(ev);
    }
    if (arena_.init_load[idx] && --slot.init_pending == 0) {
      slot.init_done = true;
      // The stored schedule starts now: release every execution whose other
      // gates already fired.
      for (std::size_t k = 0; k < prep.graph->size(); ++k)
        try_exec(j, static_cast<SubtaskId>(k), t);
    }
    try_exec(j, s, t);
    try_port(t);
  }

  void on_exec_done(std::int32_t j, SubtaskId s, time_us t) {
    InstanceSlot& slot = slot_of(j);
    const PreparedScenario& prep = prep_of(j);
    const SubtaskGraph& graph = *prep.graph;
    const Placement& placement = prep.placement;
    const std::size_t base = base_of(j);
    const std::size_t idx = base + static_cast<std::size_t>(s);
    arena_.finished[idx] = 1;
    ++slot.finished_count;
    if (trace_) {
      TraceEvent ev(TraceEvent::Kind::exec_done, t, j);
      ev.subtask = s;
      fold_.record(ev);
    }

    const TileId tile = placement.tile_of[static_cast<std::size_t>(s)];
    // A shared ISP server just freed: waiting executions requested it
    // before anything this completion enables, so they get it first.
    if (options_.shared_isps && tile == k_no_tile) dispatch_isp_waiters(t);
    const auto& seq =
        tile != k_no_tile
            ? placement.tile_sequence[static_cast<std::size_t>(tile)]
            : placement.isp_sequence[static_cast<std::size_t>(
                  placement.isp_of[static_cast<std::size_t>(s)])];
    const auto pos = static_cast<std::size_t>(
        placement.position_of[static_cast<std::size_t>(s)]);
    if (pos + 1 < seq.size()) mark_arrival(j, seq[pos + 1], t);
    if (tile != k_no_tile)
      pool_.store().record_use(
          slot.phys_of_tile[static_cast<std::size_t>(tile)], t);

    for (SubtaskId succ : graph.successors(s))
      if (--arena_.preds_left[base + static_cast<std::size_t>(succ)] == 0)
        mark_dag_ready(j, succ, t);
    if (slot.finished_count == graph.size()) retire(j, t);
    try_port(t);
  }

  void retire(std::int32_t j, time_us t) {
    const std::int32_t slot_id = job_slot_[static_cast<std::size_t>(j)];
    InstanceSlot& slot = arena_.slot(slot_id);
    pool_.release(j, slot.phys_of_tile, t);
    live_.erase(std::find(live_.begin(), live_.end(), j));

    if (deadlines_enabled_ && trace_) {
      const time_us lateness = t - job_deadline_[static_cast<std::size_t>(j)];
      if (lateness > 0) {
        TraceEvent ev(TraceEvent::Kind::deadline_miss, t, j);
        ev.deadline = lateness;
        fold_.record(ev);
      }
    }
    {
      TraceEvent ev(TraceEvent::Kind::retire, t, j);
      ev.loads = slot.loads;
      ev.init = static_cast<std::int64_t>(slot.init_count);
      fold_.record(ev);
    }

    // The slot returns to the free list; the next admission reuses its
    // vectors at capacity (the steady-state zero-allocation contract).
    arena_.release(slot_id);
    job_slot_[static_cast<std::size_t>(j)] = k_slot_retired;
    ++retired_;
    if (retired_ == warmup_retires_) perf_.end_warmup();

    if (options_.arrivals.kind == ArrivalProcess::Kind::closed_loop) {
      const auto next = static_cast<std::size_t>(j) + 1;
      if (next < job_prep_.size()) {
        job_arrival_[next] = t + options_.arrivals.think_time;
        events_.push(job_arrival_[next], k_ev_arrival,
                     static_cast<std::int32_t>(next), k_no_subtask);
      }
    }
    try_admit(t);
  }

  OnlineReport finalize() {
    TraceEvent end(TraceEvent::Kind::run_end, fold_.horizon());
    end.value = pool_.fragmentation_pct();
    fold_.record(end);
    // Every port and ISP dispatch reached the fold as an event.
    for (std::size_t p = 0; p < ports_.size(); ++p)
      DRHW_CHECK_EQ_MSG(fold_.ports().busy(p), ports_.busy(p),
                        "per-port busy accounting diverged");
    DRHW_CHECK_EQ_MSG(fold_.ports().total_busy(), ports_.total_busy(),
                      "total port busy accounting diverged");
    DRHW_CHECK_EQ_MSG(fold_.ports().latest_free(), ports_.latest_free(),
                      "port-free accounting diverged");
    if (options_.shared_isps)
      DRHW_CHECK_EQ_MSG(fold_.isp_busy(), isps_.total_busy(),
                        "shared-ISP busy accounting diverged");
    return fold_.finish();
  }

  OnlineSimOptions options_;
  TraceSink* trace_ = nullptr;  ///< the user's trace sink, or null
  /// Every report metric: the kernel hands it one event per accounting
  /// site, and it forwards each to trace_ when set.
  OnlineAccounting fold_;
  PerfCounters perf_;  ///< the report's perf counters, filled as we go
  std::unique_ptr<PrefetchPolicy> policy_;  ///< the scheduling strategy
  TilePoolManager pool_;  ///< tile occupancy, admission queue, defrag state
  Rng bind_rng_;

  // The arrival stream in SoA form: per job one int32 into preps_, the
  // arrival time, and the arena slot id (k_slot_queued before admission,
  // k_slot_retired after). The PR 2..5 kernel kept a ~150-byte Job struct
  // with three vectors per instance alive for the whole run.
  PrepTable preps_;  ///< the run's distinct preparations
  std::vector<std::int32_t> job_prep_;
  std::vector<time_us> job_arrival_;
  std::vector<std::int32_t> job_slot_;

  EventQueue events_{&perf_};
  std::vector<std::int32_t> arrival_order_;  ///< jobs by (arrival, id)
  std::size_t arrival_cursor_ = 0;

  InstanceArena arena_;  ///< live-instance slots + per-subtask SoA state
  std::vector<std::int32_t> live_;  ///< admitted, unretired; admission order

  // Shared-resource state: the reconfiguration ports, and (shared-ISP
  // mode) the contended ISP servers with their wait queue.
  PortSet ports_{1};  ///< re-built to the real shape in setup_arenas()
  PortSet isps_{1};
  struct IspWaiter {
    std::int32_t job = -1;
    SubtaskId subtask = 0;
    long seq = 0;  ///< request order (the fifo key; kept sorted by append)
  };
  std::vector<IspWaiter> isp_waiting_;
  long isp_seq_ = 0;
  std::vector<char> protected_scratch_;  ///< backlog-prefetch scratch
  std::vector<char> movable_scratch_;    ///< defrag-planning scratch
  std::vector<PhysTileId> free_tiles_scratch_; ///< offer_into() target
  std::vector<ConfigId> wanted_scratch_;       ///< reusable-config scratch
  Binding binding_scratch_;  ///< the instance's bind
  LoadPlan plan_scratch_;               ///< build_plan()'s policy plan

  /// In-flight defrag moves indexed by source tile (completion events
  /// carry the source). One per port at most.
  std::vector<MigrationPlan> migration_plans_;
  std::vector<char> migration_active_;
  std::vector<int> inflight_;  ///< loads in flight, indexed config + 1

  /// Per configuration (index config + 1): the head_generation_ that last
  /// stamped it, i.e. whether preparation stamped_prep_ uses it.
  std::vector<std::uint64_t> head_stamp_;
  std::uint64_t head_generation_ = 0;
  std::int32_t stamped_prep_ = -1;

  long retired_ = 0;
  long warmup_retires_ = 0;  ///< retire count ending the perf warm-up

  // Real-time mode (deadline_scale > 0); everything below stays empty and
  // untouched in best-effort runs.
  bool deadlines_enabled_ = false;
  bool preempt_enabled_ = false;
  AdmissionUrgency admission_urgency_ = AdmissionUrgency::arrival;
  std::vector<time_us> prep_rel_deadline_;  ///< per prep, derived or given
  std::vector<time_us> job_deadline_;       ///< absolute, stamped at arrival
  std::vector<char> job_crit_;              ///< 1 = high criticality
  std::vector<std::int32_t> preempt_waiting_;  ///< pending preempt requests
  std::int32_t checkpoint_victim_ = -1;  ///< writeout in flight, or -1
};

}  // namespace

OnlineReport run_online_simulation(const OnlineSimOptions& options,
                                   const IterationSampler& sampler) {
  return OnlineSimulation(options, sampler).run();
}

}  // namespace drhw
