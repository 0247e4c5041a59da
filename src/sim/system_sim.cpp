#include "sim/system_sim.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <utility>

#include "graph/algorithms.hpp"
#include "policy/prefetch_policy.hpp"
#include "policy/registry.hpp"
#include "reuse/config_store.hpp"
#include "schedule/list_scheduler.hpp"
#include "sim/prep_table.hpp"
#include "util/check.hpp"

namespace drhw {

PreparedScenario prepare_scenario(const SubtaskGraph& graph, int tiles,
                                  const PlatformConfig& platform,
                                  const HybridDesignOptions& options) {
  PreparedScenario prepared;
  prepared.graph = &graph;
  prepared.placement = list_schedule(graph, tiles, platform.isps);
  prepared.weights = subtask_weights(graph);
  for (std::size_t s = 0; s < graph.size(); ++s)
    if (prepared.placement.on_drhw(static_cast<SubtaskId>(s)))
      prepared.weight_order.push_back(static_cast<SubtaskId>(s));
  order_by_weight(prepared.weight_order, prepared.weights);
  FirstPass first_pass;
  prepared.hybrid = compute_hybrid_schedule(graph, prepared.placement,
                                            platform, options, &first_pass);
  prepared.design_order = std::move(first_pass.order);
  prepared.design_bnb_nodes = first_pass.bnb_nodes;
  prepared.design_bnb_budget_hits = first_pass.bnb_budget_hits;
  prepared.replacement_values = prepared.weights;
  constexpr time_us k_critical_bonus = 1'000'000'000'000LL;
  for (SubtaskId s : prepared.hybrid.critical)
    prepared.replacement_values[static_cast<std::size_t>(s)] +=
        k_critical_bonus;
  prepared.ideal = prepared.placement.ideal_makespan;
  return prepared;
}

void harmonize_replacement_values(std::vector<PreparedScenario>& scenarios) {
  if (scenarios.empty()) return;
  const std::size_t n = scenarios.front().graph->size();
  for (const auto& p : scenarios)
    DRHW_CHECK_EQ_MSG(p.graph->size(), n,
                      "scenarios of one task must share the subtask structure");

  std::vector<double> critical_count(n, 0.0);
  std::vector<double> weight_sum(n, 0.0);
  for (const auto& p : scenarios) {
    for (std::size_t s = 0; s < n; ++s)
      weight_sum[s] += static_cast<double>(p.weights[s]);
    for (SubtaskId s : p.hybrid.critical)
      critical_count[static_cast<std::size_t>(s)] += 1.0;
  }
  const auto count = static_cast<double>(scenarios.size());
  constexpr double k_critical_bonus = 1e12;
  for (auto& p : scenarios) {
    for (std::size_t s = 0; s < n; ++s)
      p.replacement_values[s] = static_cast<time_us>(
          critical_count[s] / count * k_critical_bonus +
          weight_sum[s] / count);
  }
}

namespace {

class SystemSimulation {
 public:
  SystemSimulation(const SimOptions& options, const IterationSampler& sampler)
      : options_(options),
        policy_(PolicyRegistry::instance().create(options.policy)),
        sampler_(sampler),
        rng_(options.seed),
        store_(options.platform.tiles),
        preps_(*policy_, options.replacement) {
    all_tiles_.resize(static_cast<std::size_t>(store_.tiles()));
    for (int t = 0; t < store_.tiles(); ++t)
      all_tiles_[static_cast<std::size_t>(t)] = t;
  }

  SimReport run() {
    options_.platform.validate();
    while (true) {
      refill();
      if (queue_.empty()) break;
      const QueuedInstance current = queue_.front();
      queue_.pop_front();
      ++consumed_;
      refill();
      // The inter-task optimisation can only look at tasks the run-time
      // scheduler has already emitted — within the same iteration batch,
      // or anywhere in the stream for repeating pipelines.
      upcoming_.clear();
      for (const QueuedInstance& queued : queue_) {
        if (static_cast<int>(upcoming_.size()) >= options_.intertask_lookahead)
          break;
        if (!options_.cross_iteration_lookahead &&
            queued.batch != current.batch)
          break;
        upcoming_.push_back(queued);
      }
      step(current, upcoming_);
    }
    report_.finish();
    return report_;
  }

 private:
  struct QueuedInstance {
    int batch = 0;  ///< iteration that emitted this instance
    std::int32_t prep = 0;  ///< index of its preparation in preps_
  };

  /// One memo entry: a plan and its timing.
  struct TimedPlan {
    LoadPlan plan;
    EvalResult eval;
    time_us port_time = 0;  ///< port busy time of all its loads
  };

  void refill() {
    // The oracle replacement policy is entitled to the full remaining
    // instance stream (it *is* an oracle): draw every iteration up front so
    // that "needed just past the lookahead window" and "never needed again"
    // rank differently. Eager drawing is stream-equivalent — the sampler is
    // the only rng_ consumer under the oracle policy, so the drawn sequence
    // is identical to the lazy one. Other policies keep the lazy window.
    const auto want =
        options_.replacement == ReplacementPolicy::oracle
            ? std::numeric_limits<std::size_t>::max()
            : static_cast<std::size_t>(
                  std::max(2, options_.intertask_lookahead + 1));
    while (queue_.size() < want && iterations_drawn_ < options_.iterations) {
      auto batch = sampler_(rng_);
      ++iterations_drawn_;
      for (const PreparedScenario* instance : batch)
        queue_.push_back({iterations_drawn_, preps_.append(instance)});
    }
    plan_memo_.resize(preps_.size());
  }

  void step(const QueuedInstance& current,
            const std::vector<QueuedInstance>& upcoming) {
    const PreparedScenario& inst = preps_.prep(current.prep);
    const SubtaskGraph& graph = *inst.graph;
    const Placement& placement = inst.placement;
    const bool reuse_on = policy_->uses_reuse();

    Binding& binding = binding_;
    if (reuse_on) {
      // refill() drew the whole stream into preps_: rank every instance
      // after the current one (stream position consumed_ - 1).
      NextUseRank oracle;
      if (options_.replacement == ReplacementPolicy::oracle)
        oracle = preps_.next_use_from(consumed_);
      bind_tiles(graph, placement, store_, all_tiles_, options_.replacement,
                 rng_, oracle, binding);
    } else {
      bind_without_reuse(graph, placement, all_tiles_, binding);
    }

    const TimedPlan& timed =
        schedule_instance(current, binding, upcoming.size());

    // Commit the timeline into the shared configuration store.
    if (reuse_on) commit_to_store(current, binding, timed);

    // Inter-task optimisation: use the port's final idle period for the
    // upcoming tasks' critical loads.
    if (policy_->uses_intertask() && !upcoming.empty())
      tail_prefetch(inst, binding, timed.eval, upcoming);

    account(current, binding, timed);
    const time_us span = timed.eval.makespan;
    if (options_.record_spans) report_.spans.push_back(span);
    clock_ += span;
  }

  /// Plans and times one instance. The returned entry lives in the plan
  /// memo and stays valid until the next call.
  const TimedPlan& schedule_instance(const QueuedInstance& current,
                                     const Binding& binding,
                                     std::size_t upcoming_count) {
    const PreparedScenario& inst = preps_.prep(current.prep);
    PolicyContext context;
    context.now = clock_;
    context.ports = options_.platform.reconfig_ports;
    context.port_busy = port_busy_;
    context.live_instances = 0;  // instances run strictly one at a time
    context.queued_instances = static_cast<int>(upcoming_count);
    policy_->plan(inst, binding.resident, context, plan_);
    const TimedPlan& timed = timed_plan(current, plan_);
    // Observed-pressure accounting for future PolicyContexts: the port was
    // busy for every init and scheduled load of this instance.
    port_busy_ += timed.port_time;
    return timed;
  }

  /// The plan memo: a schedule is a pure function of the preparation, the
  /// plan and the run's platform, and a run draws few distinct (preparation,
  /// plan) pairs, so each is timed once and looked up afterwards. Each
  /// entry's plan passed the evaluator's check_load_plan(), so a plan that
  /// matches one is sound too.
  const TimedPlan& timed_plan(const QueuedInstance& current,
                              const LoadPlan& plan) {
    std::vector<TimedPlan>& timed =
        plan_memo_[static_cast<std::size_t>(current.prep)];
    for (const TimedPlan& entry : timed)
      if (entry.plan.policy == plan.policy &&
          entry.plan.init_count == plan.init_count &&
          entry.plan.cancelled_loads == plan.cancelled_loads &&
          entry.plan.loads == plan.loads)
        return entry;
    const PreparedScenario& inst = preps_.prep(current.prep);
    TimedPlan entry;
    entry.plan = plan;
    workspace_.evaluate(*inst.graph, inst.placement, options_.platform, plan,
                        entry.eval);
    const EvalResult& eval = entry.eval;
    for (std::size_t s = 0; s < inst.graph->size(); ++s)
      if (eval.load_end[s] != k_no_time)
        entry.port_time += eval.load_end[s] - eval.load_start[s];
    timed.push_back(std::move(entry));
    return timed.back();
  }

  void commit_to_store(const QueuedInstance& current, const Binding& binding,
                       const TimedPlan& timed) {
    const PreparedScenario& inst = preps_.prep(current.prep);
    const SubtaskGraph& graph = *inst.graph;
    const Placement& placement = inst.placement;
    const EvalResult& eval = timed.eval;
    const std::vector<time_us>& values = preps_.values(current.prep);
    const auto init_begin = timed.plan.loads.begin();
    const auto init_end =
        init_begin + static_cast<std::ptrdiff_t>(timed.plan.init_count);

    // Initialization-phase loads occupy the port(s) from the instance
    // start and are recorded first, each at its actual completion (with
    // several ports the ends interleave, so a back-to-back cursor would
    // timestamp a load after stored-schedule loads that really completed
    // earlier and trip the store's per-tile monotonicity check).
    for (auto it = init_begin; it != init_end; ++it) {
      const auto idx = static_cast<std::size_t>(*it);
      const auto tile = static_cast<std::size_t>(placement.tile_of[idx]);
      store_.record_load(binding.phys_of_tile[tile], graph.subtask(*it).config,
                         clock_ + eval.load_end[idx],
                         static_cast<double>(values[idx]));
    }
    // Scheduled loads and executions, walked per tile in execution order so
    // that the last load on a tile determines its resident configuration.
    for (int v = 0; v < placement.tiles_used; ++v) {
      const PhysTileId phys =
          binding.phys_of_tile[static_cast<std::size_t>(v)];
      for (SubtaskId s :
           placement.tile_sequence[static_cast<std::size_t>(v)]) {
        const auto idx = static_cast<std::size_t>(s);
        if (eval.load_end[idx] != k_no_time &&
            std::find(init_begin, init_end, s) == init_end)
          store_.record_load(phys, graph.subtask(s).config,
                             clock_ + eval.load_end[idx],
                             static_cast<double>(values[idx]));
        store_.record_use(phys, clock_ + eval.exec_end[idx]);
      }
    }
  }

  void tail_prefetch(const PreparedScenario& inst, const Binding& binding,
                     const EvalResult& eval,
                     const std::vector<QueuedInstance>& upcoming) {
    const Placement& placement = inst.placement;
    const time_us window_end = clock_ + eval.makespan;

    // The port is free after the last load of this instance.
    time_us port_cursor = clock_;
    if (eval.last_load_end != k_no_time) port_cursor += eval.last_load_end;
    if (port_cursor >= window_end) return;

    // A tile may be reconfigured for a future task once this instance has
    // no executions left on it.
    std::vector<time_us>& tile_free = tile_free_;
    tile_free.assign(static_cast<std::size_t>(store_.tiles()), clock_);
    for (int v = 0; v < placement.tiles_used; ++v) {
      const PhysTileId phys = binding.phys_of_tile[static_cast<std::size_t>(v)];
      tile_free[static_cast<std::size_t>(phys)] =
          clock_ + eval.tile_last_exec_end[static_cast<std::size_t>(v)];
    }

    // Walk the emitted sequence outward. Configurations wanted by the
    // *immediately* next task must not be evicted (that would trade one
    // hidden load for one exposed one); for deeper tasks the value ordering
    // below already steers evictions toward cheap-to-reload configurations.
    const std::uint64_t call = ++tail_calls_;
    if (!upcoming.empty()) {
      const SubtaskGraph& next_graph =
          *preps_.prep(upcoming.front().prep).graph;
      for (std::size_t s = 0; s < next_graph.size(); ++s)
        mark_of(next_graph.subtask(static_cast<SubtaskId>(s)).config)
            .protected_in = call;
    }
    // Belady-style victim ranking within the emitted horizon: a resident
    // configuration used again soon is a worse victim than one whose next
    // use is far away (or unknown). The nearest use counts.
    for (std::size_t d = 0; d < upcoming.size(); ++d) {
      const SubtaskGraph& g = *preps_.prep(upcoming[d].prep).graph;
      for (std::size_t s = 0; s < g.size(); ++s) {
        ConfigMark& mark = mark_of(g.subtask(static_cast<SubtaskId>(s)).config);
        if (mark.ranked_in == call) continue;
        mark.ranked_in = call;
        mark.next_use = static_cast<long>(d);
      }
    }
    const auto use_rank = [&](ConfigId c) -> long {
      const ConfigMark& mark = mark_of(c);
      return mark.ranked_in == call ? mark.next_use
                                    : std::numeric_limits<long>::max();
    };

    std::vector<char>& targeted = targeted_;
    targeted.assign(static_cast<std::size_t>(store_.tiles()), 0);
    for (const QueuedInstance& queued : upcoming) {
      const SubtaskGraph& future_graph = *preps_.prep(queued.prep).graph;
      const std::vector<time_us>& values = preps_.values(queued.prep);

      for (SubtaskId s : preps_.candidates(queued.prep)) {
        const ConfigId config = future_graph.subtask(s).config;
        if (store_.holds(config)) continue;
        const time_us duration =
            options_.platform.load_latency(future_graph.subtask(s).load_time);

        // Eligible victim: not already targeted, not holding a protected
        // config, and free early enough for the load to fit. Among the
        // fitting tiles prefer the lowest-value (then oldest) resident so
        // pinned configurations survive.
        PhysTileId victim = k_no_phys_tile;
        time_us victim_start = 0;
        for (int t = 0; t < store_.tiles(); ++t) {
          const auto idx = static_cast<std::size_t>(t);
          if (targeted[idx]) continue;
          const ConfigId resident = store_.config_on(t);
          if (resident != k_no_config && mark_of(resident).protected_in == call)
            continue;
          const time_us start = std::max(port_cursor, tile_free[idx]);
          if (start + duration > window_end) continue;
          bool better = victim == k_no_phys_tile;
          if (!better) {
            const long rank_t = use_rank(store_.config_on(t));
            const long rank_v = use_rank(store_.config_on(victim));
            if (rank_t != rank_v)
              better = rank_t > rank_v;
            else if (store_.value_of(t) != store_.value_of(victim))
              better = store_.value_of(t) < store_.value_of(victim);
            else if (start != victim_start)
              better = start < victim_start;
            else
              better = store_.last_used(t) < store_.last_used(victim);
          }
          if (better) {
            victim = t;
            victim_start = start;
          }
        }
        if (victim == k_no_phys_tile) return;  // nothing later fits either
        targeted[static_cast<std::size_t>(victim)] = 1;
        const time_us done = victim_start + duration;
        store_.record_load(
            victim, config, done,
            static_cast<double>(values[static_cast<std::size_t>(s)]));
        port_cursor = done;
        port_busy_ += duration;
        ++report_.intertask_prefetches;
        ++report_.loads;
        report_.energy += options_.platform.reconfig_energy;
      }
    }
  }

  /// tail_prefetch()'s per-configuration marks, indexed config + 1 (so
  /// k_no_config has one too). A mark belongs to the current call only
  /// when it carries that call's number: nothing is cleared per call.
  struct ConfigMark {
    std::uint64_t protected_in = 0;  ///< call in which the next task uses it
    std::uint64_t ranked_in = 0;     ///< call in which next_use was set
    long next_use = 0;  ///< distance of its nearest use in the lookahead
  };
  ConfigMark& mark_of(ConfigId config) {
    const auto idx = static_cast<std::size_t>(config + 1);
    if (idx >= config_marks_.size()) config_marks_.resize(idx + 1);
    return config_marks_[idx];
  }

  void account(const QueuedInstance& current, const Binding& binding,
               const TimedPlan& timed) {
    report_.account_instance(preps_.retire(current.prep), timed.eval.makespan,
                             timed.eval.loads,
                             static_cast<long>(timed.plan.init_count),
                             options_.platform.reconfig_energy);
    report_.reused_subtasks += binding.reused_subtasks;
    report_.cancelled_loads += timed.plan.cancelled_loads;
  }

  SimOptions options_;
  std::unique_ptr<PrefetchPolicy> policy_;
  const IterationSampler& sampler_;
  Rng rng_;
  ConfigStore store_;
  std::vector<PhysTileId> all_tiles_;  ///< 0..tiles-1: every bind's candidates

  // Per-instance storage, reused across the whole stream so that binding,
  // timing and the tail prefetch allocate nothing at steady state.
  std::vector<QueuedInstance> upcoming_;  ///< emitted lookahead
  Binding binding_;
  LoadPlan plan_;  ///< schedule_instance(): the policy's plan
  EvalWorkspace workspace_;
  PrepTable preps_;  ///< the run's distinct preparations
  /// The plan memo (timed_plan()), indexed like preps_.
  std::vector<std::vector<TimedPlan>> plan_memo_;
  std::vector<time_us> tile_free_;  ///< tail_prefetch(): per tile
  std::vector<char> targeted_;      ///< tail_prefetch(): per tile
  std::vector<ConfigMark> config_marks_;
  std::uint64_t tail_calls_ = 0;  ///< tail_prefetch() calls so far
  std::deque<QueuedInstance> queue_;
  int iterations_drawn_ = 0;
  long consumed_ = 0;  ///< instances popped off the queue so far
  time_us clock_ = 0;
  /// Cumulative port busy time — the pressure signal of PolicyContext.
  time_us port_busy_ = 0;
  SimReport report_;
};

}  // namespace

void SimReport::account_instance(const TracePrep& prep, time_us span,
                                 long instance_loads, long instance_init,
                                 double reconfig_energy) {
  total_ideal += prep.ideal;
  total_actual += span;
  ++instances;
  drhw_subtask_instances += prep.drhw_subtasks;
  loads += instance_loads;
  init_loads += instance_init;
  energy += prep.exec_energy +
            reconfig_energy * static_cast<double>(instance_loads);
  energy_saved += reconfig_energy *
                  static_cast<double>(prep.drhw_subtasks - instance_loads);
}

void SimReport::finish() {
  if (total_ideal > 0)
    overhead_pct = 100.0 * static_cast<double>(total_actual - total_ideal) /
                   static_cast<double>(total_ideal);
  if (drhw_subtask_instances > 0)
    reuse_pct = 100.0 * static_cast<double>(reused_subtasks) /
                static_cast<double>(drhw_subtask_instances);
}

SimReport run_simulation(const SimOptions& options,
                         const IterationSampler& sampler) {
  return SystemSimulation(options, sampler).run();
}

}  // namespace drhw
