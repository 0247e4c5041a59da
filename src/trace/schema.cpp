/// \file schema.cpp
/// Name tables and the header/event serialisers of `drhw-trace-v1`,
/// shared by the recorder (writer side) and the reader.

#include <iterator>
#include <sstream>
#include <stdexcept>

#include "trace/trace_detail.hpp"
#include "util/json.hpp"
#include "util/numfmt.hpp"

namespace drhw {

namespace {

struct KindName {
  TraceEvent::Kind kind;
  const char* name;
};

// Index == numeric kind value (static_assert'd below via the lookup).
constexpr KindName k_kind_names[] = {
    {TraceEvent::Kind::arrival, "arrival"},
    {TraceEvent::Kind::admit, "admit"},
    {TraceEvent::Kind::sched_done, "sched_done"},
    {TraceEvent::Kind::load_start, "load_start"},
    {TraceEvent::Kind::load_done, "load_done"},
    {TraceEvent::Kind::prefetch_start, "prefetch_start"},
    {TraceEvent::Kind::prefetch_done, "prefetch_done"},
    {TraceEvent::Kind::migration_start, "migration_start"},
    {TraceEvent::Kind::migration_done, "migration_done"},
    {TraceEvent::Kind::remap, "remap"},
    {TraceEvent::Kind::checkpoint_start, "checkpoint_start"},
    {TraceEvent::Kind::preempt, "preempt"},
    {TraceEvent::Kind::exec_start, "exec_start"},
    {TraceEvent::Kind::exec_done, "exec_done"},
    {TraceEvent::Kind::retire, "retire"},
    {TraceEvent::Kind::deadline_miss, "deadline_miss"},
    {TraceEvent::Kind::queue_skip, "queue_skip"},
    {TraceEvent::Kind::frag, "frag"},
    {TraceEvent::Kind::run_end, "run_end"},
};

}  // namespace

const char* to_string(TraceFormat format) {
  return format == TraceFormat::binary ? "binary" : "jsonl";
}

TraceFormat trace_format_from_string(const std::string& text) {
  if (text == "jsonl") return TraceFormat::jsonl;
  if (text == "binary") return TraceFormat::binary;
  throw std::invalid_argument("unknown trace format '" + text +
                              "' (expected jsonl or binary)");
}

const char* to_string(TraceEvent::Kind kind) {
  const auto index = static_cast<std::size_t>(kind);
  if (index >= std::size(k_kind_names)) return "unknown";
  return k_kind_names[index].name;
}

namespace trace_detail {

bool kind_from_string(const std::string& text, TraceEvent::Kind& out) {
  for (const KindName& entry : k_kind_names) {
    if (text == entry.name) {
      out = entry.kind;
      return true;
    }
  }
  return false;
}

std::string header_to_json(const TraceHeader& header) {
  std::ostringstream out;
  out << "{\"schema\":\"" << json_escape(header.schema) << "\""
      << ",\"policy\":\"" << json_escape(header.policy) << "\""
      << ",\"arrivals\":\"" << json_escape(header.arrivals) << "\""
      << ",\"queue_backend\":\"" << json_escape(header.queue_backend) << "\""
      << ",\"seed\":" << header.seed
      << ",\"iterations\":" << header.iterations
      << ",\"tiles\":" << header.tiles
      << ",\"reconfig_ports\":" << header.reconfig_ports
      << ",\"isps\":" << header.isps
      << ",\"reconfig_latency\":" << header.reconfig_latency
      << ",\"reconfig_energy\":" << fmt_json_double(header.reconfig_energy)
      << ",\"deadline_scale\":" << fmt_json_double(header.deadline_scale)
      << ",\"shared_isps\":" << (header.shared_isps ? "true" : "false")
      << ",\"record_spans\":" << (header.record_spans ? "true" : "false")
      << ",\"preps\":[";
  for (std::size_t i = 0; i < header.preps.size(); ++i) {
    const TracePrep& prep = header.preps[i];
    if (i > 0) out << ',';
    out << "{\"name\":\"" << json_escape(prep.name) << "\""
        << ",\"ideal\":" << prep.ideal
        << ",\"drhw_subtasks\":" << prep.drhw_subtasks
        << ",\"exec_energy\":" << fmt_json_double(prep.exec_energy)
        << ",\"subtasks\":" << prep.subtasks << "}";
  }
  out << "]}";
  return out.str();
}

TraceHeader header_from_json(const std::string& text) {
  const json::Value root = json::parse(text, "trace header");
  if (root.kind != json::Value::Kind::object)
    throw std::invalid_argument("trace header: expected a JSON object");
  auto str = [&](const char* key) -> std::string {
    const json::Value* v = root.find(key);
    return v != nullptr ? v->text : std::string();
  };
  auto num = [](const json::Value& obj, const char* key, double fallback) {
    const json::Value* v = obj.find(key);
    return v != nullptr ? v->number : fallback;
  };
  TraceHeader header;
  header.schema = str("schema");
  if (header.schema != k_trace_schema)
    throw std::invalid_argument("trace header: schema '" + header.schema +
                                "' is not " + k_trace_schema);
  header.policy = str("policy");
  header.arrivals = str("arrivals");
  header.queue_backend = str("queue_backend");
  header.seed = static_cast<std::uint64_t>(num(root, "seed", 0.0));
  header.iterations = static_cast<int>(num(root, "iterations", 0.0));
  header.tiles = static_cast<int>(num(root, "tiles", 0.0));
  header.reconfig_ports = static_cast<int>(num(root, "reconfig_ports", 1.0));
  header.isps = static_cast<int>(num(root, "isps", 1.0));
  header.reconfig_latency =
      static_cast<time_us>(num(root, "reconfig_latency", 0.0));
  header.reconfig_energy = num(root, "reconfig_energy", 0.0);
  header.deadline_scale = num(root, "deadline_scale", 0.0);
  const json::Value* shared = root.find("shared_isps");
  header.shared_isps = shared != nullptr && shared->boolean;
  const json::Value* spans = root.find("record_spans");
  header.record_spans = spans != nullptr && spans->boolean;
  if (const json::Value* preps = root.find("preps")) {
    for (const json::Value& entry : preps->items) {
      TracePrep prep;
      if (const json::Value* name = entry.find("name")) prep.name = name->text;
      prep.ideal = static_cast<time_us>(num(entry, "ideal", 0.0));
      prep.drhw_subtasks = static_cast<long>(num(entry, "drhw_subtasks", 0.0));
      prep.exec_energy = num(entry, "exec_energy", 0.0);
      prep.subtasks = static_cast<std::size_t>(num(entry, "subtasks", 0.0));
      header.preps.push_back(std::move(prep));
    }
  }
  return header;
}

std::string event_to_json(const TraceEvent& ev) {
  std::ostringstream out;
  out << "{\"ev\":\"" << to_string(ev.kind) << "\",\"t\":" << ev.t;
  if (ev.job != -1) out << ",\"job\":" << ev.job;
  if (ev.subtask != -1) out << ",\"sub\":" << ev.subtask;
  if (ev.prep != -1) out << ",\"prep\":" << ev.prep;
  if (ev.config != -1) out << ",\"cfg\":" << ev.config;
  if (ev.unit != -1) out << ",\"unit\":" << ev.unit;
  if (ev.duration != 0) out << ",\"dur\":" << ev.duration;
  if (ev.src != -1) out << ",\"src\":" << ev.src;
  if (ev.dst != -1) out << ",\"dst\":" << ev.dst;
  if (ev.loads != 0) out << ",\"loads\":" << ev.loads;
  if (ev.aux != 0) out << ",\"aux\":" << ev.aux;
  if (ev.init != 0) out << ",\"init\":" << ev.init;
  if (ev.deadline != k_no_time) out << ",\"dl\":" << ev.deadline;
  if (ev.value != 0.0) out << ",\"val\":" << fmt_json_double(ev.value);
  if (ev.tile_count > 0) {
    out << ",\"tiles\":[";
    for (std::uint32_t i = 0; i < ev.tile_count; ++i) {
      if (i > 0) out << ',';
      out << ev.tiles[i];
    }
    out << ']';
  }
  out << '}';
  return out.str();
}

std::string event_to_binary(const TraceEvent& ev) {
  std::string payload;
  payload.reserve(88 + 2 + 4 * std::size_t{ev.tile_count});
  put_i64(payload, ev.t);
  put_i32(payload, ev.job);
  put_i32(payload, ev.subtask);
  put_i32(payload, ev.prep);
  put_i64(payload, ev.config);
  put_i32(payload, ev.unit);
  put_i64(payload, ev.duration);
  put_i32(payload, ev.src);
  put_i32(payload, ev.dst);
  put_i64(payload, ev.loads);
  put_i64(payload, ev.aux);
  put_i64(payload, ev.init);
  put_i64(payload, ev.deadline);
  put_f64(payload, ev.value);
  put_u16(payload, static_cast<std::uint16_t>(ev.tile_count));
  for (std::uint32_t i = 0; i < ev.tile_count; ++i)
    put_i32(payload, ev.tiles[i]);
  return payload;
}

}  // namespace trace_detail
}  // namespace drhw
