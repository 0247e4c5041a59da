/// \file reader.cpp
/// Trace ingestion for both encodings. The format is sniffed from the
/// first bytes (the binary magic), so callers never pass a format flag.
/// Forward compatibility: unknown JSONL keys and event names, and unknown
/// framed binary record kinds, are skipped; a missing footer leaves
/// has_live false (truncated traces still read and render).

#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
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

TraceEvent event_from_binary(const unsigned char* p, std::size_t len,
                             TraceEvent::Kind kind, std::size_t index,
                             TileCollector& tiles) {
  namespace td = trace_detail;
  constexpr std::size_t k_before_tiles =
      td::k_fixed_payload + sizeof(std::uint16_t);
  if (len < k_before_tiles)
    throw std::invalid_argument("trace: truncated binary event payload");
  TraceEvent ev;
  ev.kind = kind;
  td::visit_event_fields(
      [&](const char*, auto, auto& field) {
        field = td::get_le<std::remove_reference_t<decltype(field)>>(p);
        p += sizeof(field);
      },
      ev);
  const auto n_tiles = td::get_le<std::uint16_t>(p);
  p += sizeof(n_tiles);
  if (len < k_before_tiles + sizeof(PhysTileId) * n_tiles)
    throw std::invalid_argument("trace: binary event tile list truncated");
  for (std::uint16_t i = 0; i < n_tiles; ++i, p += sizeof(PhysTileId))
    tiles.add(index, td::get_le<PhysTileId>(p));
  return ev;
}

TraceData read_binary(const std::string& text) {
  namespace td = trace_detail;
  const auto* data = reinterpret_cast<const unsigned char*>(text.data());
  const std::size_t size = text.size();
  std::size_t at = sizeof(td::k_magic);
  if (size < at + 4)
    throw std::invalid_argument("trace: binary header frame truncated");
  const std::uint32_t header_len = td::get_le<std::uint32_t>(data + at);
  at += 4;
  if (size < at + header_len)
    throw std::invalid_argument("trace: binary header truncated");
  TraceData trace;
  TileCollector tiles;
  trace.header = td::header_from_json(
      std::string(text, at, header_len));
  at += header_len;
  while (at < size) {
    const std::uint8_t kind_byte = data[at];
    ++at;
    if (kind_byte == td::k_footer_kind) {
      if (size < at + 4)
        throw std::invalid_argument("trace: binary footer frame truncated");
      const std::uint32_t report_len = td::get_le<std::uint32_t>(data + at);
      at += 4;
      if (size < at + report_len)
        throw std::invalid_argument("trace: binary footer truncated");
      trace.live = online_report_from_json(json::parse(
          std::string(text, at, report_len), "trace report"));
      trace.has_live = true;
      at += report_len;
      continue;
    }
    if (size < at + 2)
      throw std::invalid_argument("trace: binary record frame truncated");
    const std::uint16_t payload_len = td::get_le<std::uint16_t>(data + at);
    at += 2;
    if (size < at + payload_len)
      throw std::invalid_argument("trace: binary record truncated");
    if (kind_byte < td::k_kind_count)
      trace.events.push_back(event_from_binary(
          data + at, payload_len, static_cast<TraceEvent::Kind>(kind_byte),
          trace.events.size(), tiles));
    at += payload_len;  // unknown kinds: skip the frame
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
                  sizeof(trace_detail::k_magic)) == 0)
    return read_binary(text);
  return read_jsonl(text);
}

}  // namespace drhw
