// The five scheduling approaches of the paper's Section 7, ported onto the
// PrefetchPolicy interface bit-identically to their former enum-dispatched
// implementations (pinned by tests/test_golden_campaign.cpp and the
// registry-driven rate->0 equivalence in tests/test_event_sim.cpp).

#include "policy/names.hpp"
#include "policy/registry.hpp"
#include "prefetch/hybrid.hpp"
#include "prefetch/load_plan.hpp"
#include "sim/system_sim.hpp"
#include "util/check.hpp"

namespace drhw {

const std::vector<std::string>& paper_policy_names() {
  static const std::vector<std::string> names = {
      policy_names::no_prefetch, policy_names::design_time,
      policy_names::runtime, policy_names::runtime_intertask,
      policy_names::hybrid};
  return names;
}

namespace {

/// "No prefetch module, no reuse: every load is issued on demand."
class NoPrefetchPolicy : public PrefetchPolicy {
 public:
  bool uses_reuse() const override { return false; }
  bool uses_intertask() const override { return false; }
  void plan(const PreparedScenario& prep, const std::vector<bool>&,
            const PolicyContext&, LoadPlan& out) override {
    on_demand_all(*prep.graph, prep.placement, out);
  }
};

/// Optimal prefetch order computed at design time; reuse impossible ("at
/// design-time there is not enough information available").
class DesignTimePolicy : public PrefetchPolicy {
 public:
  bool uses_reuse() const override { return false; }
  bool uses_intertask() const override { return false; }
  void plan(const PreparedScenario& prep, const std::vector<bool>&,
            const PolicyContext&, LoadPlan& out) override {
    out.reset(LoadPolicy::explicit_order);
    out.loads = prep.design_order;
  }
};

/// The run-time list-scheduling heuristic of ref. [7] with reuse support;
/// optionally extended with the Section 6 inter-task optimisation (the
/// "run-time+inter-task" curve).
class RuntimeHeuristicPolicy : public PrefetchPolicy {
 public:
  explicit RuntimeHeuristicPolicy(bool intertask) : intertask_(intertask) {}
  bool uses_reuse() const override { return true; }
  bool uses_intertask() const override { return intertask_; }
  time_us scheduler_cost() const override {
    return k_paper_list_scheduler_cost;
  }
  /// order_by_weight() is a total order, so dropping the resident loads
  /// from the prepared weight order sorts the rest.
  void plan(const PreparedScenario& prep, const std::vector<bool>& resident,
            const PolicyContext&, LoadPlan& out) override {
    DRHW_CHECK_MSG(prep.placement.tiles_used == 0 || !prep.weight_order.empty(),
                   "run-time plan of a preparation without its weight order");
    out.reset(LoadPolicy::priority);
    for (const SubtaskId s : prep.weight_order)
      if (!resident[static_cast<std::size_t>(s)]) out.loads.push_back(s);
  }
  std::vector<SubtaskId> intertask_candidates(
      const PreparedScenario& future) const override {
    // The run-time heuristic has no CS concept: it prefetches whatever it
    // would load first, i.e. every DRHW subtask by descending weight.
    return future.weight_order;
  }

 private:
  const bool intertask_;
};

/// The paper's hybrid design-time/run-time heuristic: initialization-phase
/// CS loads, the stored schedule with cancellations, and (by default) the
/// inter-task initialization-phase prefetch.
class HybridPolicy : public PrefetchPolicy {
 public:
  HybridPolicy(bool intertask, bool beyond_critical)
      : intertask_(intertask), beyond_critical_(beyond_critical) {}
  bool uses_reuse() const override { return true; }
  bool uses_intertask() const override { return intertask_; }
  time_us scheduler_cost() const override {
    return k_paper_hybrid_scheduler_cost;
  }
  void plan(const PreparedScenario& prep, const std::vector<bool>& resident,
            const PolicyContext&, LoadPlan& out) override {
    hybrid_decide(prep.hybrid, resident, out);
  }
  std::vector<SubtaskId> intertask_candidates(
      const PreparedScenario& future) const override {
    std::vector<SubtaskId> candidates = future.hybrid.critical;
    if (beyond_critical_)
      for (SubtaskId s : future.hybrid.stored_order) candidates.push_back(s);
    return candidates;
  }

 private:
  const bool intertask_;
  const bool beyond_critical_;
};

}  // namespace

namespace detail {

void register_paper_policies(PolicyRegistry& registry) {
  registry.add(policy_names::no_prefetch,
               "on-demand loading, no prefetch module, no reuse",
               [](const PolicyParams& params) {
                 reject_unknown_params(policy_names::no_prefetch, params, {});
                 return std::make_unique<NoPrefetchPolicy>();
               });
  registry.add(policy_names::design_time,
               "optimal load order fixed at design time, no reuse",
               [](const PolicyParams& params) {
                 reject_unknown_params(policy_names::design_time, params, {});
                 return std::make_unique<DesignTimePolicy>();
               });
  registry.add(policy_names::runtime,
               "run-time list-scheduling heuristic of ref. [7] with reuse",
               [](const PolicyParams& params) {
                 reject_unknown_params(policy_names::runtime, params, {});
                 return std::make_unique<RuntimeHeuristicPolicy>(false);
               });
  registry.add(
      policy_names::runtime_intertask,
      "run-time heuristic plus the Section 6 inter-task optimisation",
      [](const PolicyParams& params) {
        reject_unknown_params(policy_names::runtime_intertask, params, {});
        return std::make_unique<RuntimeHeuristicPolicy>(true);
      });
  registry.add(
      policy_names::hybrid,
      "hybrid design-time/run-time heuristic (params: intertask=0|1, "
      "beyond_critical=0|1)",
      [](const PolicyParams& params) {
        reject_unknown_params(policy_names::hybrid, params,
                              {"intertask", "beyond_critical"});
        return std::make_unique<HybridPolicy>(
            param_bool(params, "intertask", true),
            param_bool(params, "beyond_critical", false));
      });
}

}  // namespace detail

}  // namespace drhw
