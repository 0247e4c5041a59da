/// \file schema.cpp
/// Name tables and the header/event serialisers of `drhw-trace-v1`,
/// shared by the recorder (writer side) and the reader.

#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "trace/trace_detail.hpp"

namespace drhw {

namespace {

// Index == numeric kind value.
constexpr const char* k_kind_names[] = {
    "arrival",        "admit",          "sched_done",       "load_start",
    "load_done",      "prefetch_start", "prefetch_done",    "migration_start",
    "migration_done", "remap",          "checkpoint_start", "preempt",
    "exec_start",     "exec_done",      "retire",           "deadline_miss",
    "queue_skip",     "frag",           "run_end"};
static_assert(std::size(k_kind_names) == trace_detail::k_kind_count);

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
  return k_kind_names[index];
}

namespace trace_detail {

bool kind_from_string(const std::string& text, TraceEvent::Kind& out) {
  for (std::size_t i = 0; i < std::size(k_kind_names); ++i)
    if (text == k_kind_names[i]) {
      out = static_cast<TraceEvent::Kind>(i);
      return true;
    }
  return false;
}

void wrong_kind(std::string_view context, std::string_view key,
                const char* expected) {
  throw std::invalid_argument(std::string(context) + ": key '" +
                              std::string(key) + "' is not " + expected);
}

std::string header_to_json(const TraceHeader& header) {
  std::ostringstream out;
  write_object(out, [&](auto&& f) { visit_header_fields(f, header); });
  return out.str();
}

TraceHeader header_from_json(const std::string& text) {
  TraceHeader header;
  header.schema.clear();  // a header without one is not drhw-trace-v1
  read_object(json::parse(text, "trace header"), "trace header",
              [&](auto&& f) { visit_header_fields(f, header); });
  if (header.schema != k_trace_schema)
    throw std::invalid_argument("trace header: schema '" + header.schema +
                                "' is not " + k_trace_schema);
  return header;
}

std::string event_to_json(const TraceEvent& ev) {
  std::ostringstream out;
  out << "{\"ev\":\"" << to_string(ev.kind) << '"';
  visit_event_fields(
      [&](const char* key, auto omitted, const auto& value) {
        if constexpr (!std::is_same_v<decltype(omitted), AlwaysWritten>)
          if (value == omitted) return;
        out << ",\"" << key << "\":";
        write_json(out, value);
      },
      ev);
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
  payload.reserve(k_fixed_payload + sizeof(std::uint16_t) +
                  sizeof(PhysTileId) * ev.tile_count);
  visit_event_fields(
      [&](const char*, auto, const auto& value) { put_le(payload, value); },
      ev);
  put_le(payload, static_cast<std::uint16_t>(ev.tile_count));
  for (std::uint32_t i = 0; i < ev.tile_count; ++i)
    put_le(payload, ev.tiles[i]);
  return payload;
}

}  // namespace trace_detail
}  // namespace drhw
