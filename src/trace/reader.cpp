/// \file reader.cpp
/// Trace ingestion for both encodings. The format is sniffed from the
/// first bytes (the binary magic), so callers never pass a format flag.
/// Forward compatibility: unknown JSONL keys and event names, and unknown
/// framed binary record kinds, are skipped; a missing footer leaves
/// has_live false (truncated traces still read and render).

#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "trace/trace_detail.hpp"
#include "util/json.hpp"

namespace drhw {

namespace {

/// Collects the admit events' tile lists into one flat store while the
/// events are read, and points each event at its slice once the store no
/// longer grows.
class TileCollector {
 public:
  /// Appends one tile of the event about to be pushed as event `event`.
  void add(std::size_t event, PhysTileId tile) {
    if (owners_.empty() || owners_.back().event != event)
      owners_.push_back({event, flat_.size(), 0});
    ++owners_.back().count;
    flat_.push_back(tile);
  }

  void finish(TraceData& trace) {
    if (flat_.empty()) return;
    auto store =
        std::make_shared<const std::vector<PhysTileId>>(std::move(flat_));
    for (const Owner& owner : owners_) {
      TraceEvent& ev = trace.events[owner.event];
      ev.tiles = store->data() + owner.offset;
      ev.tile_count = owner.count;
    }
    trace.tile_store = std::move(store);
  }

 private:
  struct Owner {
    std::size_t event = 0;
    std::size_t offset = 0;
    std::uint32_t count = 0;
  };
  std::vector<PhysTileId> flat_;
  std::vector<Owner> owners_;
};

TraceEvent event_from_json(const json::Value& obj, TraceEvent::Kind kind,
                           const std::string& context, std::size_t index,
                           TileCollector& tiles) {
  namespace td = trace_detail;
  TraceEvent ev;
  ev.kind = kind;
  td::visit_event_fields(
      [&](const char* key, auto, auto& field) {
        if (const json::Value* v = obj.find(key))
          td::read_json(*v, context, key, field);
      },
      ev);
  if (const json::Value* list = obj.find("tiles")) {
    std::vector<PhysTileId> ids;
    td::read_json(*list, context, "tiles", ids);
    for (const PhysTileId tile : ids) tiles.add(index, tile);
  }
  return ev;
}

TraceData read_jsonl(const std::string& text) {
  TraceData trace;
  TileCollector tiles;
  std::istringstream in(text);
  std::string line;
  bool have_header = false;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (!have_header) {
      trace.header = trace_detail::header_from_json(line);
      have_header = true;
      continue;
    }
    const std::string context = "trace line " + std::to_string(line_no);
    const json::Value obj = json::parse(line, context);
    if (const json::Value* report = obj.find("report")) {
      trace.live = online_report_from_json(*report);
      trace.has_live = true;
      continue;
    }
    const json::Value* name = obj.find("ev");
    if (name == nullptr)
      throw std::invalid_argument(context +
                                  ": neither an event nor the footer");
    TraceEvent::Kind kind{};
    if (!trace_detail::kind_from_string(name->text, kind))
      continue;  // an event kind from a newer writer
    trace.events.push_back(
        event_from_json(obj, kind, context, trace.events.size(), tiles));
  }
  if (!have_header)
    throw std::invalid_argument("trace: empty file (no header line)");
  tiles.finish(trace);
  return trace;
}

/// Bounds-checked reads from one span of a binary trace. A read past the
/// span's end throws std::invalid_argument with the current overrun
/// message.
class ByteCursor {
 public:
  ByteCursor(const unsigned char* at, const unsigned char* end,
             const char* overrun)
      : at_(at), end_(end), overrun_(overrun) {}

  void on_overrun(const char* message) { overrun_ = message; }
  bool empty() const { return at_ == end_; }

  /// The next `count` bytes as a cursor of their own.
  ByteCursor take(std::uint64_t count) {
    need(count);
    const unsigned char* const start = at_;
    at_ += count;
    return {start, at_, overrun_};
  }

  std::string_view view() const {
    return {reinterpret_cast<const char*>(at_), left()};
  }

  std::uint8_t byte() {
    need(1);
    return *at_++;
  }

  template <typename T>
  T le() {
    need(sizeof(T));
    const T value = trace_detail::get_le<T>(at_);
    at_ += sizeof(T);
    return value;
  }

  std::uint64_t varint() {
    std::uint64_t value = 0;
    for (std::size_t i = 0;; ++i) {
      const std::uint8_t b = byte();
      if (i + 1 == trace_detail::k_max_varint && b > 1)
        throw std::invalid_argument(
            (b & 0x80) != 0 ? "trace: binary varint longer than 10 bytes"
                            : "trace: binary varint overflows 64 bits");
      value |= static_cast<std::uint64_t>(b & 0x7F) << (7 * i);
      if ((b & 0x80) == 0) return value;
    }
  }

  /// A zigzag varint that must fit T.
  template <typename T>
  T signed_varint() {
    const std::int64_t value = trace_detail::unzigzag(varint());
    if (value < std::numeric_limits<T>::min() ||
        value > std::numeric_limits<T>::max())
      throw std::invalid_argument("trace: binary event field out of range");
    return static_cast<T>(value);
  }

 private:
  std::size_t left() const { return static_cast<std::size_t>(end_ - at_); }
  void need(std::uint64_t count) const {
    if (count > left()) throw std::invalid_argument(overrun_);
  }

  const unsigned char* at_ = nullptr;
  const unsigned char* end_ = nullptr;
  const char* overrun_ = nullptr;
};

/// The payload's presence mask, then `t`: the running time `t` plus the
/// recorded delta (wrapping, as the writer subtracts).
std::uint64_t read_mask_and_time(ByteCursor& in, time_us& t) {
  const std::uint64_t mask = in.varint();
  t = static_cast<time_us>(trace_detail::bits_of(t) +
                           static_cast<std::uint64_t>(
                               trace_detail::unzigzag(in.varint())));
  return mask;
}

TraceEvent event_from_binary(ByteCursor in, TraceEvent::Kind kind,
                             time_us& t, std::size_t index,
                             TileCollector& tiles) {
  namespace td = trace_detail;
  TraceEvent ev;
  ev.kind = kind;
  const std::uint64_t mask = read_mask_and_time(in, t);
  if (mask >> td::k_tiles_bit >> 1 != 0)
    throw std::invalid_argument(
        "trace: binary event mask names a field past the list");
  unsigned bit = 0;
  td::visit_event_fields(
      [&](const char*, auto omitted, auto& field) {
        using T = std::remove_reference_t<decltype(field)>;
        if constexpr (std::is_same_v<decltype(omitted), td::AlwaysWritten>)
          field = t;
        else if (((mask >> bit++) & 1) == 0)
          return;
        else if constexpr (std::is_floating_point_v<T>)
          field = in.le<T>();
        else
          field = in.signed_varint<T>();
      },
      ev);
  if ((mask >> td::k_tiles_bit) & 1) {
    const std::uint64_t count = in.varint();
    for (std::uint64_t i = 0; i < count; ++i)
      tiles.add(index, in.signed_varint<PhysTileId>());
  }
  if (!in.empty())
    throw std::invalid_argument(
        "trace: binary event payload has trailing bytes");
  return ev;
}

TraceData read_binary(const std::string& text) {
  namespace td = trace_detail;
  const auto* data = reinterpret_cast<const unsigned char*>(text.data());
  ByteCursor in(data + sizeof(td::k_magic), data + text.size(),
                "trace: binary header frame truncated");
  const auto header_len = in.le<std::uint32_t>();
  in.on_overrun("trace: binary header truncated");
  TraceData trace;
  trace.header = td::header_from_json(
      std::string(in.take(header_len).view()));
  // The header names its schema; a matching header under another magic is
  // damage, not a version.
  if (std::memcmp(data, td::k_magic, sizeof(td::k_magic)) != 0)
    throw std::invalid_argument("trace: binary magic does not match schema " +
                                trace.header.schema);
  TileCollector tiles;
  time_us t = 0;
  while (!in.empty()) {
    in.on_overrun("trace: binary record frame truncated");
    const std::uint8_t kind_byte = in.byte();
    const std::uint64_t length = in.varint();
    in.on_overrun("trace: binary record truncated");
    ByteCursor payload = in.take(length);
    payload.on_overrun("trace: binary event field truncated");
    if (kind_byte == td::k_footer_kind) {
      trace.live = online_report_from_json(
          json::parse(std::string(payload.view()), "trace report"));
      trace.has_live = true;
    } else if (kind_byte < td::k_kind_count) {
      trace.events.push_back(event_from_binary(
          payload, static_cast<TraceEvent::Kind>(kind_byte), t,
          trace.events.size(), tiles));
    } else {
      read_mask_and_time(payload, t);  // a later writer's kind: skip the rest
    }
  }
  tiles.finish(trace);
  return trace;
}

}  // namespace

TraceData read_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open())
    throw std::runtime_error("trace: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad())
    throw std::runtime_error("trace: read from '" + path + "' failed");
  const std::string text = buffer.str();
  if (text.size() >= sizeof(trace_detail::k_magic) &&
      std::memcmp(text.data(), trace_detail::k_magic,
                  trace_detail::k_magic_family) == 0)
    return read_binary(text);
  return read_jsonl(text);
}

}  // namespace drhw
