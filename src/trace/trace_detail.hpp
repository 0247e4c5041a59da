#pragma once

/// \file trace_detail.hpp
/// Encoding constants, field lists and helpers shared by the trace writer
/// (recorder.cpp, schema.cpp) and reader (reader.cpp, report_json.cpp).
/// Not part of the public API.
///
/// Binary layout (`drhw-trace-v2`):
///   magic "DRHWTRC2"
///   u32 header-length (little-endian), header JSON bytes (same object as
///   the JSONL header line)
///   records: u8 kind, varint payload-length, payload — the length frame is
///   what lets a reader skip record kinds a later writer added
///   footer: a record of kind 0xFF whose payload is the report JSON bytes
/// Event payload: a varint presence mask, then the present
/// visit_event_fields() fields in list order. `t` is always written and
/// takes no mask bit: it is the zigzag varint delta from the previous
/// event's `t` (signed, so a stream that goes back in time still round-
/// trips). Every other field takes the next mask bit and is present when it
/// differs from its list default (a double compared bitwise, so -0.0 and
/// NaN round-trip exactly); the bit after the last field marks a tile
/// list. Integers are zigzag varints, a double is 8 raw little-endian
/// bytes, a tile list is a varint count followed by one zigzag varint per
/// tile. Varints are LEB128: 7 bits per byte, low group first, at most 10
/// bytes. A record of an unknown kind is skipped by its frame, but its
/// payload's mask and `t` delta are still read, so the running time the
/// next event's delta starts from stays right.

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "trace/trace.hpp"
#include "util/json.hpp"
#include "util/numfmt.hpp"

namespace drhw::trace_detail {

inline constexpr char k_magic[8] = {'D', 'R', 'H', 'W', 'T', 'R', 'C', '2'};
/// The magic without its version digit: what the reader sniffs, so that a
/// binary trace of another schema version fails on its header's schema id.
inline constexpr std::size_t k_magic_family = sizeof(k_magic) - 1;
inline constexpr std::uint8_t k_footer_kind = 0xFF;
inline constexpr std::size_t k_kind_count =
    static_cast<std::size_t>(TraceEvent::Kind::run_end) + 1;

/// Marks the one event field neither writer ever omits.
struct AlwaysWritten {};

/// The scalar payload fields of a TraceEvent, in payload order:
/// f(jsonl_key, omitted_default, event.field...). Both writers omit a field
/// equal to its default by one rule, differs() in schema.cpp, which compares
/// doubles bitwise, so -0.0 and NaN are written; the defaults are
/// TraceEvent's own, so a reader that starts from TraceEvent{} reads an
/// omitted field back unchanged. JSON has no NaN, so JSONL writes one as
/// null and reads it back as a positive quiet NaN: binary is the lossless
/// encoding. Both encodings' writers and readers loop over this list: a
/// field is one line here.
template <typename F, typename... Events>
constexpr void visit_event_fields(F&& f, Events&... ev) {
  f("t", AlwaysWritten{}, ev.t...);
  f("job", -1, ev.job...);
  f("sub", -1, ev.subtask...);
  f("prep", -1, ev.prep...);
  f("cfg", -1, ev.config...);
  f("unit", -1, ev.unit...);
  f("dur", 0, ev.duration...);
  f("src", -1, ev.src...);
  f("dst", -1, ev.dst...);
  f("loads", 0, ev.loads...);
  f("aux", 0, ev.aux...);
  f("init", 0, ev.init...);
  f("dl", k_no_time, ev.deadline...);
  f("val", 0.0, ev.value...);
}

/// The binary presence-mask bit of an event's tile list: the one after the
/// optional fields'. A mask bit above it names no field.
inline constexpr unsigned k_tiles_bit = [] {
  unsigned bits = 0;
  TraceEvent ev;
  visit_event_fields(
      [&](const char*, auto omitted, const auto&) {
        bits += !std::is_same_v<decltype(omitted), AlwaysWritten>;
      },
      ev);
  return bits;
}();
static_assert(k_tiles_bit < 64, "the presence mask is one u64");

/// The header object's fields, in JSON key order: f(key, header.field...).
/// The header writer and reader loop over it; "preps" is an array of
/// visit_prep_fields() objects.
template <typename F, typename... Headers>
void visit_header_fields(F&& f, Headers&... h) {
  f("schema", h.schema...);
  f("policy", h.policy...);
  f("arrivals", h.arrivals...);
  f("seed", h.seed...);
  f("iterations", h.iterations...);
  f("tiles", h.tiles...);
  f("reconfig_ports", h.reconfig_ports...);
  f("isps", h.isps...);
  f("reconfig_latency", h.reconfig_latency...);
  f("reconfig_energy", h.reconfig_energy...);
  f("deadline_scale", h.deadline_scale...);
  f("shared_isps", h.shared_isps...);
  f("record_spans", h.record_spans...);
  f("preps", h.preps...);
}

template <typename F, typename... Preps>
void visit_prep_fields(F&& f, Preps&... p) {
  f("name", p.name...);
  f("ideal", p.ideal...);
  f("drhw_subtasks", p.drhw_subtasks...);
  f("exec_energy", p.exec_energy...);
  f("subtasks", p.subtasks...);
}

/// Reverse of to_string(TraceEvent::Kind). False on an unknown name —
/// forward compatibility: JSONL readers drop such events.
bool kind_from_string(const std::string& text, TraceEvent::Kind& out);

// --- binary packing (shift-based: no aliasing, no host-endianness
// dependence; a double travels as its bits) -------------------------------

template <typename T>
std::uint64_t bits_of(T value) {
  std::uint64_t bits = 0;
  if constexpr (std::is_floating_point_v<T>)
    std::memcpy(&bits, &value, sizeof(value));
  else
    bits = static_cast<std::uint64_t>(value);
  return bits;
}

/// `value` little-endian at its own width.
template <typename T>
void put_le(std::string& out, T value) {
  const std::uint64_t bits = bits_of(value);
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
}

template <typename T>
T get_le(const unsigned char* p) {
  std::uint64_t bits = 0;
  for (std::size_t i = sizeof(T); i-- > 0;) bits = (bits << 8) | p[i];
  T value{};
  if constexpr (std::is_floating_point_v<T>)
    std::memcpy(&value, &bits, sizeof(value));
  else
    value = static_cast<T>(bits);
  return value;
}

inline constexpr std::size_t k_max_varint = 10;  ///< bytes of a u64

/// LEB128 bytes of `value` into `buffer`; returns how many.
inline std::size_t encode_varint(std::uint64_t value,
                                 char (&buffer)[k_max_varint]) {
  std::size_t n = 0;
  for (; value >= 0x80; value >>= 7)
    buffer[n++] = static_cast<char>((value & 0x7F) | 0x80);
  buffer[n++] = static_cast<char>(value);
  return n;
}

inline void put_varint(std::string& out, std::uint64_t value) {
  char buffer[k_max_varint];
  out.append(buffer, encode_varint(value, buffer));
}

/// Zigzag: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ..., so that small magnitudes
/// of either sign stay short as varints.
inline std::uint64_t zigzag(std::int64_t value) {
  const std::uint64_t sign = value < 0 ? ~std::uint64_t{0} : 0;
  return (static_cast<std::uint64_t>(value) << 1) ^ sign;
}

inline std::int64_t unzigzag(std::uint64_t bits) {
  return static_cast<std::int64_t>((bits >> 1) ^ (0 - (bits & 1)));
}

// --- JSON values, shared by the header, event and footer codecs ----------

/// Appends `{"key":value,...}`; visit(f) calls f(key, value) once per
/// field.
template <typename Visit>
void write_object(std::string& out, Visit&& visit);

/// Appends a string escaped, a bool as true/false, an integer as is, a
/// double shortest-exact (null when non-finite, so it parses back
/// bit-identical), a TracePrep as an object, a vector as an array.
template <typename T>
void write_json(std::string& out, const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    out += '"';
    out += json_escape(value);
    out += '"';
  } else if constexpr (std::is_same_v<T, bool>) {
    out += value ? "true" : "false";
  } else if constexpr (std::is_floating_point_v<T>) {
    char buffer[64];
    out += fmt_shortest_double(value, buffer) ? buffer : "null";
  } else if constexpr (std::is_integral_v<T>) {
    char buffer[24];
    out.append(buffer,
               std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
  } else if constexpr (std::is_same_v<T, TracePrep>) {
    write_object(out, [&](auto&& f) { visit_prep_fields(f, value); });
  } else {
    out += '[';
    for (std::size_t i = 0; i < value.size(); ++i) {
      if (i > 0) out += ',';
      write_json(out, value[i]);
    }
    out += ']';
  }
}

template <typename Visit>
void write_object(std::string& out, Visit&& visit) {
  char separator = '{';
  visit([&](const char* key, const auto& value) {
    out += separator;
    out += '"';
    out += key;
    out += "\":";
    write_json(out, value);
    separator = ',';
  });
  out += '}';
}

/// Throws std::invalid_argument "<context>: key '<key>' is not <expected>".
[[noreturn]] void wrong_kind(std::string_view context, std::string_view key,
                             const char* expected);

/// Reads the present keys of one field list (visit as for write_object);
/// missing keys keep their defaults.
template <typename Visit>
void read_object(const json::Value& obj, std::string_view context,
                 Visit&& visit);

/// Reverse of write_json(). Integers are parsed exactly from the number's
/// text at the field's own width and signedness, so no double round trip
/// can round or wrap them; doubles accept null. A wrong JSON kind, an
/// exponent or fraction on an integer, or an out-of-range integer throws
/// via wrong_kind().
template <typename T>
void read_json(const json::Value& v, std::string_view context,
               std::string_view key, T& out) {
  using Kind = json::Value::Kind;
  if constexpr (std::is_same_v<T, std::string>) {
    if (v.kind != Kind::string) wrong_kind(context, key, "a string");
    out = v.text;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (v.kind != Kind::boolean) wrong_kind(context, key, "a boolean");
    out = v.boolean;
  } else if constexpr (std::is_floating_point_v<T>) {
    if (v.kind == Kind::null)
      out = std::numeric_limits<T>::quiet_NaN();
    else if (v.kind == Kind::number)
      out = v.number;
    else
      wrong_kind(context, key, "a number");
  } else if constexpr (std::is_integral_v<T>) {
    const char* const last = v.text.data() + v.text.size();
    const auto [end, error] = std::from_chars(v.text.data(), last, out);
    if (v.kind != Kind::number || error != std::errc() || end != last)
      wrong_kind(context, key, "an integer");
  } else if constexpr (std::is_same_v<T, TracePrep>) {
    read_object(v, context, [&](auto&& f) { visit_prep_fields(f, out); });
  } else {
    if (v.kind != Kind::array) wrong_kind(context, key, "an array");
    out.assign(v.items.size(), {});
    for (std::size_t i = 0; i < out.size(); ++i)
      read_json(v.items[i], context, key, out[i]);
  }
}

template <typename Visit>
void read_object(const json::Value& obj, std::string_view context,
                 Visit&& visit) {
  if (obj.kind != json::Value::Kind::object)
    throw std::invalid_argument(std::string(context) +
                                ": expected a JSON object");
  visit([&](const char* key, auto& field) {
    if (const json::Value* v = obj.find(key))
      read_json(*v, context, key, field);
  });
}

/// Header JSON object — shared verbatim between the JSONL first line and
/// the binary header block.
std::string header_to_json(const TraceHeader& header);
TraceHeader header_from_json(const std::string& text);

/// Appends one event as a JSONL line: a compact JSON object (default-valued
/// fields omitted) and its newline.
void append_event_json(std::string& out, const TraceEvent& ev);
/// Appends one event as a binary record (kind, length frame, payload);
/// `last_t` is the previous event's `t` on entry and this one's on return.
void append_event_binary(std::string& out, const TraceEvent& ev,
                         time_us& last_t);

}  // namespace drhw::trace_detail
