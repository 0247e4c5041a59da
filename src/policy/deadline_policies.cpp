// The real-time policy family: edf / llf / edf_hybrid.
//
// These policies change *when* a queued instance is admitted, not *what* is
// loaded for it: each wraps a proven prefetch planner (created through the
// registry, like adaptive_hybrid) and forwards every planning decision to
// it verbatim, overriding only admission_urgency(). The online kernel
// consults that hook when deadlines are enabled
// (OnlineSimOptions::deadline_scale > 0) and switches the backlog from the
// pool's arrival-ordered admission policy to most-urgent-first among the
// queued instances that currently fit:
//
//   edf         earliest absolute deadline first, prefetch planning
//               delegated to run-time+inter-task (loads resolve at run time,
//               idle ports prefetch for the backlog).
//   llf         least laxity first — deadline minus the instance's remaining
//               ideal work; at a common decision instant the `- now` term is
//               shared, so the kernel compares deadline - ideal. Same
//               delegated planner as edf.
//   edf_hybrid  earliest deadline first + the paper's hybrid planner: the
//               stored initialization phase hides the critical loads of the
//               urgent instance the moment it is admitted.
//
// With deadlines off the hook is never consulted and each policy is
// bit-identical to its delegate — this is what keeps the rate→0 equivalence
// pins of test_event_sim.cpp green for the whole family with zero test
// edits. None of the three takes parameters.

#include "policy/names.hpp"
#include "policy/registry.hpp"

namespace drhw {
namespace {

class DeadlinePolicy : public PrefetchPolicy {
 public:
  DeadlinePolicy(AdmissionUrgency urgency, const PolicySpec& delegate)
      : urgency_(urgency),
        delegate_(PolicyRegistry::instance().create(delegate)) {}

  bool uses_reuse() const override { return delegate_->uses_reuse(); }
  bool uses_intertask() const override { return delegate_->uses_intertask(); }
  time_us scheduler_cost() const override {
    return delegate_->scheduler_cost();
  }
  AdmissionUrgency admission_urgency() const override { return urgency_; }

  void plan(const PreparedScenario& prep, const std::vector<bool>& resident,
            const PolicyContext& context, LoadPlan& out) override {
    delegate_->plan(prep, resident, context, out);
  }

  std::vector<SubtaskId> intertask_candidates(
      const PreparedScenario& future) const override {
    return delegate_->intertask_candidates(future);
  }

  const std::vector<time_us>& replacement_values(
      const PreparedScenario& prep,
      ReplacementPolicy replacement) const override {
    return delegate_->replacement_values(prep, replacement);
  }

 private:
  const AdmissionUrgency urgency_;
  const std::unique_ptr<PrefetchPolicy> delegate_;
};

}  // namespace

namespace detail {

void register_deadline_policies(PolicyRegistry& registry) {
  registry.add(policy_names::edf,
               "earliest-deadline-first admission over run-time+inter-task "
               "prefetch planning (needs online --deadline-scale)",
               [](const PolicyParams& params) {
                 reject_unknown_params(policy_names::edf, params, {});
                 return std::make_unique<DeadlinePolicy>(
                     AdmissionUrgency::deadline,
                     PolicySpec(policy_names::runtime_intertask));
               });
  registry.add(policy_names::llf,
               "least-laxity-first admission over run-time+inter-task "
               "prefetch planning (needs online --deadline-scale)",
               [](const PolicyParams& params) {
                 reject_unknown_params(policy_names::llf, params, {});
                 return std::make_unique<DeadlinePolicy>(
                     AdmissionUrgency::laxity,
                     PolicySpec(policy_names::runtime_intertask));
               });
  registry.add(
      policy_names::edf_hybrid,
      "earliest-deadline-first admission over the paper's hybrid planner "
      "(needs online --deadline-scale)",
      [](const PolicyParams& params) {
        reject_unknown_params(policy_names::edf_hybrid, params, {});
        return std::make_unique<DeadlinePolicy>(
            AdmissionUrgency::deadline, PolicySpec(policy_names::hybrid));
      });
}

}  // namespace detail

}  // namespace drhw
