#pragma once

/// \file policy_spec.hpp
/// Textual description of a prefetch scheduling policy: a registry name
/// plus optional key=value parameters. A PolicySpec is what travels through
/// scenario descriptors, sweep axes, CLI flags and campaign reports; the
/// PolicyRegistry (policy/registry.hpp) turns it into a live PrefetchPolicy
/// instance at simulation start. Keeping the spec purely textual means
/// every layer above the simulators (runner, report writers/readers,
/// benches, CLI) handles *any* registered policy without enumerating them.
///
/// Canonical text form, used by scenario names and the CLI:
///   "hybrid"                       name only
///   "hybrid[intertask=0]"          one parameter
///   "hybrid[beyond_critical=1,intertask=0]"
/// Parameter order is normalised (sorted by key) so equal specs always
/// render identically.

#include <map>
#include <string>

namespace drhw {

/// Policy parameters as parsed text. Factories validate keys and values;
/// unknown keys are an error so typos cannot silently change behaviour.
using PolicyParams = std::map<std::string, std::string>;

struct PolicySpec {
  std::string name = "hybrid";
  PolicyParams params;

  PolicySpec() = default;
  PolicySpec(std::string policy_name) : name(std::move(policy_name)) {}
  PolicySpec(const char* policy_name) : name(policy_name) {}
  PolicySpec(std::string policy_name, PolicyParams policy_params)
      : name(std::move(policy_name)), params(std::move(policy_params)) {}

  /// Builder-style parameter attachment:
  ///   PolicySpec("hybrid").with("intertask", "0")
  PolicySpec with(const std::string& key, std::string value) const;

  /// Canonical "name" / "name[k=v,...]" form (see file comment).
  std::string text() const;

  /// Parses the canonical form. Throws std::invalid_argument on malformed
  /// text (unbalanced brackets, empty key, duplicate key). The *name* is
  /// not checked against the registry here — that happens at create time.
  static PolicySpec parse(const std::string& text);

  friend bool operator==(const PolicySpec& a, const PolicySpec& b) {
    return a.name == b.name && a.params == b.params;
  }
  friend bool operator!=(const PolicySpec& a, const PolicySpec& b) {
    return !(a == b);
  }
};

/// Same as spec.text(); mirrors the to_string() style of the other
/// descriptor enums so call sites read uniformly.
std::string to_string(const PolicySpec& spec);

// --- parameter access helpers (for policy factories) ------------------------

/// Boolean parameter: "1"/"true" -> true, "0"/"false" -> false, absent ->
/// `fallback`. Throws std::invalid_argument on any other value.
bool param_bool(const PolicyParams& params, const std::string& key,
                bool fallback);

/// Throws std::invalid_argument when `params` contains a key not listed in
/// `allowed` — every factory calls this so unknown parameters fail loudly
/// with the accepted set in the message.
void reject_unknown_params(const std::string& policy,
                           const PolicyParams& params,
                           std::initializer_list<const char*> allowed);

}  // namespace drhw
