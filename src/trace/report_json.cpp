/// \file report_json.cpp
/// OnlineReport <-> JSON, used for the trace footer. Both directions loop
/// over visit_report_fields() (sim/event_sim.hpp): every field except
/// `perf` round-trips, "sim.*" fields nest in a "sim" object. Doubles go
/// through the shortest-exact formatter, so a written report parses back
/// bit-identical and verify_trace() can compare bitwise.

#include <stdexcept>
#include <string_view>

#include "trace/trace_detail.hpp"

namespace drhw {

namespace {

constexpr std::string_view k_sim_prefix = "sim.";

bool is_sim_field(std::string_view name) {
  return name.substr(0, k_sim_prefix.size()) == k_sim_prefix;
}

/// The field's key inside its JSON object ("sim.loads" -> "loads").
std::string_view json_key(std::string_view name) {
  return is_sim_field(name) ? name.substr(k_sim_prefix.size()) : name;
}

constexpr std::string_view k_context = "trace report";

}  // namespace

std::string online_report_to_json(const OnlineReport& report) {
  std::string out = "{\"sim\":{";
  bool in_sim = true;
  bool first = true;
  visit_report_fields(
      [&](std::string_view name, const auto& value) {
        if (in_sim && !is_sim_field(name)) {
          out += '}';
          in_sim = false;
        }
        if (!first) out += ',';
        first = false;
        out += '"';
        out += json_key(name);
        out += "\":";
        trace_detail::write_json(out, value);
      },
      report);
  out += '}';
  return out;
}

OnlineReport online_report_from_json(const json::Value& root) {
  if (root.kind != json::Value::Kind::object)
    throw std::invalid_argument("trace report: expected a JSON object");
  const json::Value* sim = root.find("sim");
  if (sim != nullptr && sim->kind != json::Value::Kind::object)
    trace_detail::wrong_kind(k_context, "sim", "an object");
  // Missing keys keep their defaults, so footers written before a field
  // existed still read.
  OnlineReport report;
  visit_report_fields(
      [&](std::string_view name, auto& field) {
        const json::Value* scope = is_sim_field(name) ? sim : &root;
        if (scope == nullptr) return;
        if (const json::Value* v = scope->find(std::string(json_key(name))))
          trace_detail::read_json(*v, k_context, name, field);
      },
      report);
  return report;
}

}  // namespace drhw
