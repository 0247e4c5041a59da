/// \file schema.cpp
/// Name tables and the header/event serialisers of `drhw-trace-v2`,
/// shared by the recorder (writer side) and the reader.

#include <iterator>
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
  std::string out;
  write_object(out, [&](auto&& f) { visit_header_fields(f, header); });
  return out;
}

TraceHeader header_from_json(const std::string& text) {
  TraceHeader header;
  header.schema.clear();  // a header without one is not this schema
  read_object(json::parse(text, "trace header"), "trace header",
              [&](auto&& f) { visit_header_fields(f, header); });
  if (header.schema != k_trace_schema)
    throw std::invalid_argument("trace header: schema '" + header.schema +
                                "' is not " + k_trace_schema);
  return header;
}

namespace {

/// Whether an event field must be written: it is not its list default
/// (doubles compared bitwise, so -0.0 and NaN are written).
template <typename T, typename Default>
bool differs(T value, Default omitted) {
  return bits_of(value) != bits_of(static_cast<T>(omitted));
}

}  // namespace

void append_event_json(std::string& out, const TraceEvent& ev) {
  out += "{\"ev\":\"";
  out += to_string(ev.kind);
  out += '"';
  visit_event_fields(
      [&](const char* key, auto omitted, const auto& value) {
        if constexpr (!std::is_same_v<decltype(omitted), AlwaysWritten>)
          if (value == omitted) return;
        out += ",\"";
        out += key;
        out += "\":";
        write_json(out, value);
      },
      ev);
  if (ev.tile_count > 0) {
    out += ",\"tiles\":[";
    for (std::uint32_t i = 0; i < ev.tile_count; ++i) {
      if (i > 0) out += ',';
      write_json(out, ev.tiles[i]);
    }
    out += ']';
  }
  out += "}\n";
}

void append_event_binary(std::string& out, const TraceEvent& ev,
                         time_us& last_t) {
  out.push_back(static_cast<char>(ev.kind));
  // A one-byte length frame, widened below in the rare payload past 127 B.
  const std::size_t frame_at = out.size();
  out.push_back(0);
  std::uint64_t mask = ev.tile_count > 0 ? std::uint64_t{1} << k_tiles_bit : 0;
  unsigned bit = 0;
  visit_event_fields(
      [&](const char*, auto omitted, const auto& value) {
        if constexpr (!std::is_same_v<decltype(omitted), AlwaysWritten>) {
          if (differs(value, omitted)) mask |= std::uint64_t{1} << bit;
          ++bit;
        }
      },
      ev);
  put_varint(out, mask);
  bit = 0;
  visit_event_fields(
      [&](const char*, auto omitted, const auto& value) {
        if constexpr (std::is_same_v<decltype(omitted), AlwaysWritten>) {
          // Wrapping difference: any pair of instants round-trips.
          put_varint(out, zigzag(static_cast<std::int64_t>(
                              bits_of(value) - bits_of(last_t))));
        } else if ((mask >> bit++) & 1) {
          if constexpr (std::is_floating_point_v<
                            std::remove_reference_t<decltype(value)>>)
            put_le(out, value);
          else
            put_varint(out, zigzag(value));
        }
      },
      ev);
  if (ev.tile_count > 0) {
    put_varint(out, ev.tile_count);
    for (std::uint32_t i = 0; i < ev.tile_count; ++i)
      put_varint(out, zigzag(ev.tiles[i]));
  }
  last_t = ev.t;
  const std::size_t length = out.size() - frame_at - 1;
  char frame[k_max_varint];
  const std::size_t frame_size = encode_varint(length, frame);
  if (frame_size == 1)
    out[frame_at] = frame[0];
  else
    out.replace(frame_at, 1, frame, frame_size);
}

}  // namespace trace_detail
}  // namespace drhw
