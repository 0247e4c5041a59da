#include "sim/system_sim.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "graph/algorithms.hpp"
#include "policy/prefetch_policy.hpp"
#include "policy/registry.hpp"
#include "reuse/config_store.hpp"
#include "schedule/list_scheduler.hpp"
#include "util/check.hpp"

namespace drhw {

NextUseRank NextUseIndex::rank_from(long position) const {
  return [this, position](ConfigId c) -> long {
    const auto idx = static_cast<std::size_t>(c);
    if (c < 0 || idx >= positions_.size() || positions_[idx].empty())
      return std::numeric_limits<long>::max();
    const std::vector<long>& uses = positions_[idx];
    const auto pos = std::lower_bound(uses.begin(), uses.end(), position);
    return pos == uses.end() ? std::numeric_limits<long>::max() : *pos;
  };
}

PreparedScenario prepare_scenario(const SubtaskGraph& graph, int tiles,
                                  const PlatformConfig& platform,
                                  const HybridDesignOptions& options) {
  PreparedScenario prepared;
  prepared.graph = &graph;
  prepared.placement = list_schedule(graph, tiles, platform.isps);
  prepared.weights = subtask_weights(graph);
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
        store_(options.platform.tiles) {}

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
      std::vector<const PreparedScenario*> upcoming;
      for (const QueuedInstance& queued : queue_) {
        if (static_cast<int>(upcoming.size()) >= options_.intertask_lookahead)
          break;
        if (!options_.cross_iteration_lookahead &&
            queued.batch != current.batch)
          break;
        upcoming.push_back(queued.scenario);
      }
      step(*current.scenario, upcoming);
    }
    report_.finish();
    return report_;
  }

 private:
  bool intertask_enabled() const { return policy_->uses_intertask(); }

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
      for (const PreparedScenario* instance : batch) {
        DRHW_CHECK(instance != nullptr);
        queue_.push_back(QueuedInstance{instance, iterations_drawn_});
      }
    }
  }

  /// Value vector the replacement machinery should see for this instance.
  const std::vector<time_us>& values_for(const PreparedScenario& inst) const {
    return policy_->replacement_values(inst, options_.replacement);
  }

  /// Reconfiguration latency of one subtask's bitstream.
  time_us load_duration(const SubtaskGraph& graph, SubtaskId s) const {
    const time_us own = graph.subtask(s).load_time;
    return own != k_no_time ? own : options_.platform.reconfig_latency;
  }

  /// Oracle help: rank of the config's next use, or a large value when it
  /// is never used again. Under the oracle policy refill() has drawn the
  /// whole remaining stream, so the ranking covers every future instance,
  /// not just a lookahead window — and the NextUseIndex is built once
  /// instead of rescanning the O(instances) queue on every step.
  NextUseRank make_next_use_oracle() {
    if (!oracle_index_built_) {
      oracle_index_built_ = true;
      long position = consumed_;
      for (const QueuedInstance& queued : queue_) {
        const SubtaskGraph& g = *queued.scenario->graph;
        for (std::size_t s = 0; s < g.size(); ++s)
          next_use_index_.add(g.subtask(static_cast<SubtaskId>(s)).config,
                              position);
        ++position;
      }
    }
    return next_use_index_.rank_from(consumed_);
  }

  void step(const PreparedScenario& inst,
            const std::vector<const PreparedScenario*>& upcoming) {
    const SubtaskGraph& graph = *inst.graph;
    const Placement& placement = inst.placement;
    const bool reuse_on = policy_->uses_reuse();

    Binding binding;
    if (reuse_on) {
      NextUseRank oracle;
      if (options_.replacement == ReplacementPolicy::oracle)
        oracle = make_next_use_oracle();
      binding = bind_tiles(graph, placement, store_, options_.replacement,
                           values_for(inst), rng_, oracle);
    } else {
      binding.phys_of_tile.resize(
          static_cast<std::size_t>(placement.tiles_used));
      for (int v = 0; v < placement.tiles_used; ++v)
        binding.phys_of_tile[static_cast<std::size_t>(v)] = v;
      binding.resident.assign(graph.size(), false);
    }

    const SequentialSchedule sched =
        schedule_instance(inst, binding, upcoming.size());

    // Commit the timeline into the shared configuration store.
    if (reuse_on) commit_to_store(inst, binding, sched);

    // Inter-task optimisation: use the port's final idle period for the
    // upcoming tasks' critical loads.
    if (intertask_enabled() && !upcoming.empty())
      tail_prefetch(inst, binding, sched, upcoming);

    account(inst, binding, sched);
    if (options_.record_spans) report_.spans.push_back(sched.span);
    clock_ += sched.span;
  }

  SequentialSchedule schedule_instance(const PreparedScenario& inst,
                                       const Binding& binding,
                                       std::size_t upcoming_count) {
    PolicyContext context;
    context.now = clock_;
    context.ports = options_.platform.reconfig_ports;
    context.port_busy = port_busy_;
    context.live_instances = 0;  // instances run strictly one at a time
    context.queued_instances = static_cast<int>(upcoming_count);
    const InstancePlan plan = policy_->plan(inst, binding.resident, context);
    const SequentialSchedule sched =
        evaluate_instance_plan(inst, options_.platform, plan);
    // Observed-pressure accounting for future PolicyContexts: the port was
    // busy for every init and scheduled load of this instance.
    const SubtaskGraph& graph = *inst.graph;
    for (const SubtaskId s : sched.init_loads)
      port_busy_ += load_duration(graph, s);
    for (std::size_t s = 0; s < graph.size(); ++s)
      if (sched.eval.load_end[s] != k_no_time)
        port_busy_ += sched.eval.load_end[s] - sched.eval.load_start[s];
    return sched;
  }

  void commit_to_store(const PreparedScenario& inst, const Binding& binding,
                       const SequentialSchedule& sched) {
    const SubtaskGraph& graph = *inst.graph;
    const Placement& placement = inst.placement;
    const time_us offset = clock_ + sched.init_duration;
    const std::vector<time_us>& values = values_for(inst);

    // Initialization-phase loads occupy the port(s) from the instance
    // start; each records at its actual completion (with several ports
    // the ends interleave, so a back-to-back cursor would timestamp a
    // load after stored-schedule loads that really completed earlier and
    // trip the store's per-tile monotonicity check).
    for (std::size_t i = 0; i < sched.init_loads.size(); ++i) {
      const SubtaskId s = sched.init_loads[i];
      const auto tile = static_cast<std::size_t>(
          placement.tile_of[static_cast<std::size_t>(s)]);
      store_.record_load(binding.phys_of_tile[tile], graph.subtask(s).config,
                         clock_ + sched.init_load_ends[i],
                         static_cast<double>(values[static_cast<std::size_t>(s)]));
    }
    // Scheduled loads and executions, walked per tile in execution order so
    // that the last load on a tile determines its resident configuration.
    for (int v = 0; v < placement.tiles_used; ++v) {
      const PhysTileId phys =
          binding.phys_of_tile[static_cast<std::size_t>(v)];
      for (SubtaskId s :
           placement.tile_sequence[static_cast<std::size_t>(v)]) {
        const auto idx = static_cast<std::size_t>(s);
        if (sched.eval.load_end[idx] != k_no_time)
          store_.record_load(phys, graph.subtask(s).config,
                             offset + sched.eval.load_end[idx],
                             static_cast<double>(values[idx]));
        store_.record_use(phys, offset + sched.eval.exec_end[idx]);
      }
    }
  }

  void tail_prefetch(const PreparedScenario& inst, const Binding& binding,
                     const SequentialSchedule& sched,
                     const std::vector<const PreparedScenario*>& upcoming) {
    const Placement& placement = inst.placement;
    const time_us offset = clock_ + sched.init_duration;
    const time_us window_end = clock_ + sched.span;

    // The port is free after the last load of this instance.
    time_us port_cursor = clock_ + sched.init_duration;
    if (sched.eval.last_load_end != k_no_time)
      port_cursor = offset + sched.eval.last_load_end;
    if (port_cursor >= window_end) return;

    // A tile may be reconfigured for a future task once this instance has
    // no executions left on it.
    std::vector<time_us> tile_free(
        static_cast<std::size_t>(store_.tiles()), clock_);
    for (int v = 0; v < placement.tiles_used; ++v) {
      const PhysTileId phys = binding.phys_of_tile[static_cast<std::size_t>(v)];
      tile_free[static_cast<std::size_t>(phys)] =
          offset +
          sched.eval.tile_last_exec_end[static_cast<std::size_t>(v)];
    }

    // Walk the emitted sequence outward. Configurations wanted by the
    // *immediately* next task must not be evicted (that would trade one
    // hidden load for one exposed one); for deeper tasks the value ordering
    // below already steers evictions toward cheap-to-reload configurations.
    std::unordered_set<ConfigId> protected_configs;
    if (!upcoming.empty()) {
      const SubtaskGraph& next_graph = *upcoming.front()->graph;
      for (std::size_t s = 0; s < next_graph.size(); ++s)
        protected_configs.insert(
            next_graph.subtask(static_cast<SubtaskId>(s)).config);
    }
    // Belady-style victim ranking within the emitted horizon: a resident
    // configuration used again soon is a worse victim than one whose next
    // use is far away (or unknown).
    std::unordered_map<ConfigId, long> next_use;
    for (std::size_t d = 0; d < upcoming.size(); ++d) {
      const SubtaskGraph& g = *upcoming[d]->graph;
      for (std::size_t s = 0; s < g.size(); ++s)
        next_use.try_emplace(g.subtask(static_cast<SubtaskId>(s)).config,
                             static_cast<long>(d));
    }
    const auto use_rank = [&](ConfigId c) -> long {
      const auto it = next_use.find(c);
      return it == next_use.end() ? std::numeric_limits<long>::max()
                                  : it->second;
    };

    std::vector<char> targeted(static_cast<std::size_t>(store_.tiles()), 0);
    for (const PreparedScenario* future : upcoming) {
      const SubtaskGraph& future_graph = *future->graph;

      for (SubtaskId s : policy_->intertask_candidates(*future)) {
        const ConfigId config = future_graph.subtask(s).config;
        if (store_.holds(config)) continue;
        const time_us duration = load_duration(future_graph, s);

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
          if (resident != k_no_config &&
              protected_configs.count(resident) > 0)
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
            static_cast<double>(
                values_for(*future)[static_cast<std::size_t>(s)]));
        port_cursor = done;
        port_busy_ += duration;
        ++report_.intertask_prefetches;
        ++report_.loads;
        report_.energy += options_.platform.reconfig_energy;
      }
    }
  }

  void account(const PreparedScenario& inst, const Binding& binding,
               const SequentialSchedule& sched) {
    const SubtaskGraph& graph = *inst.graph;
    long drhw = 0;
    double exec_energy = 0.0;
    for (std::size_t s = 0; s < graph.size(); ++s) {
      if (inst.placement.on_drhw(static_cast<SubtaskId>(s))) ++drhw;
      exec_energy += graph.subtask(static_cast<SubtaskId>(s)).exec_energy;
    }
    const auto init_loads = static_cast<long>(sched.init_loads.size());
    report_.account_instance(inst.ideal, sched.span, drhw,
                             init_loads + sched.eval.loads, init_loads,
                             exec_energy, options_.platform.reconfig_energy);
    report_.reused_subtasks += binding.reused_subtasks;
    report_.cancelled_loads += sched.cancelled_loads;
  }

  struct QueuedInstance {
    const PreparedScenario* scenario = nullptr;
    int batch = 0;  ///< iteration that emitted this instance
  };

  SimOptions options_;
  std::unique_ptr<PrefetchPolicy> policy_;
  const IterationSampler& sampler_;
  Rng rng_;
  ConfigStore store_;
  std::deque<QueuedInstance> queue_;
  int iterations_drawn_ = 0;
  long consumed_ = 0;  ///< instances popped off the queue so far
  /// Built once, on the first bind under the oracle policy (the queue then
  /// holds the whole remaining stream).
  bool oracle_index_built_ = false;
  NextUseIndex next_use_index_;
  time_us clock_ = 0;
  /// Cumulative port busy time — the pressure signal of PolicyContext.
  time_us port_busy_ = 0;
  SimReport report_;
};

}  // namespace

void SimReport::account_instance(time_us ideal, time_us span, long drhw,
                                 long instance_loads, long instance_init,
                                 double exec_energy, double reconfig_energy) {
  total_ideal += ideal;
  total_actual += span;
  ++instances;
  drhw_subtask_instances += drhw;
  loads += instance_loads;
  init_loads += instance_init;
  energy += exec_energy + reconfig_energy * static_cast<double>(instance_loads);
  energy_saved +=
      reconfig_energy * static_cast<double>(drhw - instance_loads);
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
