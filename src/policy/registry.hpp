#pragma once

/// \file registry.hpp
/// String-keyed factory registry for PrefetchPolicy implementations.
///
/// The registry is the single authority on which policies exist: Scenario
/// validation, campaign sweep axes, `drhw_sched online --approach` and
/// `drhw_sched list-policies`, the benches' policy enumeration and the
/// registry-driven equivalence tests all go through it, so registering a
/// factory is the *only* step needed to expose a new policy everywhere.
///
/// Built-in policies register from their own translation units via the
/// hook list in registry.cpp (a static library would otherwise drop
/// never-referenced self-registration objects at link time). External code
/// may also call PolicyRegistry::instance().add(...) during startup, before
/// any simulation runs; create() is const and safe to call concurrently
/// from campaign worker threads once registration settled.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "policy/policy_spec.hpp"
#include "policy/prefetch_policy.hpp"

namespace drhw {

class PolicyRegistry {
 public:
  /// Builds a policy from validated parameters. Factories must throw
  /// std::invalid_argument on unknown keys or bad values (see
  /// reject_unknown_params()).
  using Factory =
      std::function<std::unique_ptr<PrefetchPolicy>(const PolicyParams&)>;

  /// The process-wide registry, with every built-in policy registered.
  static PolicyRegistry& instance();

  /// Registers a policy. Throws std::invalid_argument on an empty or
  /// duplicate name.
  void add(std::string name, std::string description, Factory factory);

  bool contains(const std::string& name) const;

  /// Registered names in registration order (paper presentation order for
  /// the built-ins, extensions after) — deterministic, so registry-driven
  /// campaigns and tests enumerate identically on every run.
  std::vector<std::string> names() const;

  /// One-line description of a registered policy (`drhw_sched list-policies`).
  const std::string& description(const std::string& name) const;

  /// Creates a policy instance for one simulation run. Throws
  /// std::invalid_argument naming the registered policies when the spec's
  /// name is unknown, and propagates factory errors on bad parameters.
  std::unique_ptr<PrefetchPolicy> create(const PolicySpec& spec) const;

 private:
  struct Entry {
    std::string name;
    std::string description;
    Factory factory;
  };
  const Entry* find(const std::string& name) const;

  std::vector<Entry> entries_;
};

}  // namespace drhw
