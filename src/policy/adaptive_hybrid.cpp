// adaptive_hybrid — a pressure-adaptive policy built entirely on the public
// policy API, and the worked example for extending the registry: it lives
// in its own translation unit, composes the two strongest paper approaches
// through PolicyRegistry::create(), and needed zero edits to the timing
// kernels (event_sim.cpp / system_sim.cpp) to become available to every
// scenario descriptor, sweep axis, bench and CLI flag.
//
// Rationale: the paper's hybrid wins when the reconfiguration port is calm —
// its initialization phase hides the critical loads before execution starts.
// Under port pressure the same initialization phase becomes a barrier: the
// CS loads queue behind other live instances' loads and the whole stored
// schedule waits for the last of them. The run-time+inter-task heuristic
// has no such barrier — execution starts as soon as each individual
// configuration lands. adaptive_hybrid therefore inspects the observed port
// pressure at each admission (PolicyContext::contenders(): how many other
// live or queued instances are competing for the ports) and plans the
// instance as a full hybrid when calm, as run-time+inter-task when
// pressured (two or more contenders). It takes no parameters.

#include "policy/names.hpp"
#include "policy/registry.hpp"
#include "util/check.hpp"

namespace drhw {
namespace {

class AdaptiveHybridPolicy : public PrefetchPolicy {
 public:
  AdaptiveHybridPolicy()
      : calm_(PolicyRegistry::instance().create(
            PolicySpec(policy_names::hybrid))),
        pressured_(PolicyRegistry::instance().create(
            PolicySpec(policy_names::runtime_intertask))) {}

  bool uses_reuse() const override { return true; }
  bool uses_intertask() const override { return true; }
  /// The run-time decision is the hybrid's cheap phase plus one contention
  /// check; the Section 4 hybrid value is the honest order of magnitude.
  time_us scheduler_cost() const override { return calm_->scheduler_cost(); }

  void plan(const PreparedScenario& prep, const std::vector<bool>& resident,
            const PolicyContext& context, LoadPlan& out) override {
    PrefetchPolicy& pick =
        context.contenders() >= k_min_contenders ? *pressured_ : *calm_;
    pick.plan(prep, resident, context, out);
  }

  /// Backlog candidates must be a pure function of the preparation (both
  /// kernels cache them per prep), so they cannot follow the per-instance
  /// mode switch: use the calm hybrid's critical-set candidates — the
  /// loads either mode benefits from having resident.
  std::vector<SubtaskId> intertask_candidates(
      const PreparedScenario& future) const override {
    return calm_->intertask_candidates(future);
  }

 private:
  /// Contention at and above which the pressured plan is used.
  static constexpr int k_min_contenders = 2;
  const std::unique_ptr<PrefetchPolicy> calm_;
  const std::unique_ptr<PrefetchPolicy> pressured_;
};

}  // namespace

namespace detail {

void register_adaptive_hybrid(PolicyRegistry& registry) {
  registry.add(
      policy_names::adaptive_hybrid,
      "hybrid when the port is calm, run-time+inter-task under pressure "
      "(two or more contenders)",
      [](const PolicyParams& params) {
        reject_unknown_params(policy_names::adaptive_hybrid, params, {});
        return std::make_unique<AdaptiveHybridPolicy>();
      });
}

}  // namespace detail

}  // namespace drhw
