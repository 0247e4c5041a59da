#include "policy/policy_spec.hpp"

#include <sstream>
#include <stdexcept>

namespace drhw {

PolicySpec PolicySpec::with(const std::string& key, std::string value) const {
  PolicySpec out = *this;
  out.params[key] = std::move(value);
  return out;
}

std::string PolicySpec::text() const {
  if (params.empty()) return name;
  std::ostringstream os;
  os << name << '[';
  bool first = true;
  for (const auto& [key, value] : params) {
    if (!first) os << ',';
    os << key << '=' << value;
    first = false;
  }
  os << ']';
  return os.str();
}

PolicySpec PolicySpec::parse(const std::string& text) {
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument("policy spec '" + text + "': " + what);
  };
  PolicySpec spec;
  const std::size_t open = text.find('[');
  if (open == std::string::npos) {
    if (text.find(']') != std::string::npos) fail("']' without '['");
    spec.name = text;
  } else {
    if (text.empty() || text.back() != ']')
      fail("expected 'name[key=value,...]'");
    spec.name = text.substr(0, open);
    const std::string body = text.substr(open + 1, text.size() - open - 2);
    std::istringstream is(body);
    std::string item;
    while (std::getline(is, item, ',')) {
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0) fail("expected key=value");
      std::string key = item.substr(0, eq);
      if (spec.params.count(key)) fail("duplicate parameter '" + key + "'");
      spec.params.emplace(std::move(key), item.substr(eq + 1));
    }
  }
  if (spec.name.empty()) fail("empty policy name");
  return spec;
}

std::string to_string(const PolicySpec& spec) { return spec.text(); }

bool param_bool(const PolicyParams& params, const std::string& key,
                bool fallback) {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  if (it->second == "1" || it->second == "true") return true;
  if (it->second == "0" || it->second == "false") return false;
  throw std::invalid_argument("policy parameter '" + key + "': '" +
                              it->second + "' is not a boolean (use 0/1)");
}

void reject_unknown_params(const std::string& policy,
                           const PolicyParams& params,
                           std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : params) {
    bool known = false;
    for (const char* name : allowed) known = known || key == name;
    if (known) continue;
    std::string accepted;
    for (const char* name : allowed) {
      if (!accepted.empty()) accepted += ", ";
      accepted += name;
    }
    throw std::invalid_argument(
        "policy '" + policy + "': unknown parameter '" + key + "'" +
        (accepted.empty() ? " (the policy takes no parameters)"
                          : " (accepted: " + accepted + ")"));
  }
}

}  // namespace drhw
