/// \file report_json.cpp
/// OnlineReport <-> JSON, used for the trace footer. Both directions loop
/// over visit_report_fields() (sim/event_sim.hpp): every field except
/// `perf` round-trips, "sim.*" fields nest in a "sim" object. Doubles go
/// through the shortest-exact formatter, so a written report parses back
/// bit-identical and verify_trace() can compare bitwise.

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "trace/trace.hpp"
#include "util/json.hpp"
#include "util/numfmt.hpp"

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

template <typename T>
void write_value(std::ostringstream& out, const T& value) {
  if constexpr (std::is_floating_point_v<T>)
    out << fmt_json_double(value);
  else
    out << value;
}

template <typename T>
void write_value(std::ostringstream& out, const std::vector<T>& values) {
  out << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ',';
    write_value(out, values[i]);
  }
  out << ']';
}

[[noreturn]] void wrong_kind(std::string_view name, const char* expected) {
  throw std::invalid_argument("trace report: key '" + std::string(name) +
                              "' is not " + expected);
}

/// Doubles accept null, the writer's spelling of a non-finite value.
/// Integers are read from the number's text, so no double round trip can
/// round them.
template <typename T>
void read_value(const json::Value& v, std::string_view name, T& out) {
  if constexpr (std::is_floating_point_v<T>) {
    if (v.kind == json::Value::Kind::null)
      out = std::numeric_limits<T>::quiet_NaN();
    else if (v.kind == json::Value::Kind::number)
      out = v.number;
    else
      wrong_kind(name, "a number");
  } else {
    if (v.kind != json::Value::Kind::number) wrong_kind(name, "an integer");
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(v.text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE) wrong_kind(name, "an integer");
    out = static_cast<T>(parsed);
  }
}

template <typename T>
void read_value(const json::Value& v, std::string_view name,
                std::vector<T>& out) {
  if (v.kind != json::Value::Kind::array) wrong_kind(name, "an array");
  out.assign(v.items.size(), T{});
  for (std::size_t i = 0; i < out.size(); ++i)
    read_value(v.items[i], name, out[i]);
}

}  // namespace

std::string online_report_to_json(const OnlineReport& report) {
  std::ostringstream out;
  out << "{\"sim\":{";
  bool in_sim = true;
  bool first = true;
  visit_report_fields(
      [&](std::string_view name, const auto& value) {
        if (in_sim && !is_sim_field(name)) {
          out << '}';
          in_sim = false;
        }
        if (!first) out << ',';
        first = false;
        out << '"' << json_key(name) << "\":";
        write_value(out, value);
      },
      report);
  out << '}';
  return out.str();
}

OnlineReport online_report_from_json(const json::Value& root) {
  if (root.kind != json::Value::Kind::object)
    throw std::invalid_argument("trace report: expected a JSON object");
  const json::Value* sim = root.find("sim");
  if (sim != nullptr && sim->kind != json::Value::Kind::object)
    wrong_kind("sim", "an object");
  // Missing keys keep their defaults, so footers written before a field
  // existed still read.
  OnlineReport report;
  visit_report_fields(
      [&](std::string_view name, auto& field) {
        const json::Value* scope = is_sim_field(name) ? sim : &root;
        if (scope == nullptr) return;
        if (const json::Value* v = scope->find(std::string(json_key(name))))
          read_value(*v, name, field);
      },
      report);
  return report;
}

}  // namespace drhw
