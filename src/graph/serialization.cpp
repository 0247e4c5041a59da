#include "graph/serialization.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "util/json.hpp"
#include "util/numfmt.hpp"

namespace drhw {

namespace {

[[noreturn]] void malformed(const std::string& what) {
  throw std::invalid_argument("graph JSON: " + what);
}

const std::string& text_of(const json::Value& v, const std::string& key) {
  if (v.kind != json::Value::Kind::string)
    malformed("'" + key + "' must be a string");
  return v.text;
}

const std::vector<json::Value>& items_of(const json::Value& v,
                                         const std::string& key) {
  if (v.kind != json::Value::Kind::array)
    malformed("'" + key + "' must be an array");
  return v.items;
}

/// A finite number; integer targets are range-checked before the cast
/// (a float-to-int cast of an out-of-range value is undefined).
template <typename T>
T number_of(const json::Value& v, const std::string& key) {
  if (v.kind != json::Value::Kind::number || !std::isfinite(v.number))
    malformed("'" + key + "' must be a finite number");
  if constexpr (std::is_integral_v<T>) {
    // 2^(bits-1): exact in a double for every signed target type.
    const double limit = -static_cast<double>(std::numeric_limits<T>::min());
    if (!(v.number >= -limit && v.number < limit))
      malformed("'" + key + "' is out of range");
  }
  return static_cast<T>(v.number);
}

Subtask subtask_from_json(const json::Value& v) {
  if (v.kind != json::Value::Kind::object)
    malformed("a subtask must be an object");
  Subtask node;
  for (const auto& [field, value] : v.members) {
    if (field == "name") {
      node.name = text_of(value, field);
    } else if (field == "exec_us") {
      node.exec_time = number_of<time_us>(value, field);
    } else if (field == "resource") {
      const std::string& res = text_of(value, field);
      if (res == "drhw")
        node.resource = Resource::drhw;
      else if (res == "isp")
        node.resource = Resource::isp;
      else
        throw std::invalid_argument("unknown resource '" + res + "'");
    } else if (field == "config") {
      node.config = number_of<ConfigId>(value, field);
    } else if (field == "energy") {
      node.exec_energy = number_of<double>(value, field);
    } else if (field == "load_us") {
      node.load_time = number_of<time_us>(value, field);
    } else {
      throw std::invalid_argument("unknown subtask field '" + field + "'");
    }
  }
  return node;
}

}  // namespace

std::string graph_to_json(const SubtaskGraph& graph) {
  std::ostringstream os;
  os << "{\n  \"name\": \"" << json_escape(graph.name())
     << "\",\n  \"subtasks\": [\n";
  for (std::size_t s = 0; s < graph.size(); ++s) {
    const Subtask& node = graph.subtask(static_cast<SubtaskId>(s));
    os << "    {\"name\": \"" << json_escape(node.name)
       << "\", \"exec_us\": " << node.exec_time << ", \"resource\": \""
       << (node.resource == Resource::drhw ? "drhw" : "isp")
       << "\", \"config\": " << node.config << ", \"energy\": "
       << node.exec_energy << ", \"load_us\": " << node.load_time << "}"
       << (s + 1 < graph.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"edges\": [";
  bool first = true;
  for (std::size_t v = 0; v < graph.size(); ++v) {
    for (SubtaskId succ : graph.successors(static_cast<SubtaskId>(v))) {
      if (!first) os << ", ";
      first = false;
      os << "[" << v << ", " << succ << "]";
    }
  }
  os << "]\n}\n";
  return os.str();
}

SubtaskGraph graph_from_json(const std::string& text) {
  const json::Value root = json::parse(text, "graph JSON");
  if (root.kind != json::Value::Kind::object)
    malformed("expected an object");
  SubtaskGraph graph;
  std::vector<std::pair<SubtaskId, SubtaskId>> edges;
  for (const auto& [key, value] : root.members) {
    if (key == "name") {
      graph.set_name(text_of(value, key));
    } else if (key == "subtasks") {
      for (const json::Value& item : items_of(value, key))
        graph.add_subtask(subtask_from_json(item));
    } else if (key == "edges") {
      for (const json::Value& edge : items_of(value, key)) {
        const auto& ends = items_of(edge, "edge");
        if (ends.size() != 2) malformed("an edge must be a [from, to] pair");
        edges.emplace_back(number_of<SubtaskId>(ends[0], "edge"),
                           number_of<SubtaskId>(ends[1], "edge"));
      }
    } else {
      throw std::invalid_argument("unknown top-level field '" + key + "'");
    }
  }
  // An empty graph has nothing to schedule; reject it here as the .dwl
  // reader does, before a scheduler's internal checks see it.
  if (graph.size() == 0) malformed("the graph has no subtasks");
  for (const auto& [from, to] : edges) graph.add_edge(from, to);
  graph.finalize();
  return graph;
}

}  // namespace drhw
