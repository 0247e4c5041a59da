/// \file recorder.cpp
/// Buffered TraceSink: encodes every event into one member buffer and
/// writes the buffer to the output file whenever it passes
/// k_flush_bytes, and at finish(). The header is encoded lazily at the
/// first event so that the prep table (handed over during simulator setup)
/// lands in the header.

#include <fstream>
#include <stdexcept>

#include "trace/trace_detail.hpp"

namespace drhw {

namespace {

/// Buffered bytes past which record() writes the buffer to the file.
constexpr std::size_t k_flush_bytes = std::size_t{64} << 10;

}  // namespace

TraceRecorder::TraceRecorder(const std::string& path, TraceFormat format,
                             const OnlineSimOptions& options)
    : path_(path), format_(format) {
  header_.policy = to_string(options.policy);
  header_.arrivals = to_string(options.arrivals.kind);
  header_.seed = options.seed;
  header_.iterations = options.iterations;
  header_.tiles = options.platform.tiles;
  header_.reconfig_ports = options.platform.reconfig_ports;
  header_.isps = options.platform.isps;
  header_.reconfig_latency = options.platform.reconfig_latency;
  header_.reconfig_energy = options.platform.reconfig_energy;
  header_.deadline_scale = options.deadline_scale;
  header_.shared_isps = options.shared_isps;
  header_.record_spans = options.record_spans;

  out_ = std::make_unique<std::ofstream>(
      path, format == TraceFormat::binary
                ? std::ios::binary | std::ios::trunc
                : std::ios::openmode(std::ios::trunc));
  if (!out_->is_open())
    throw std::runtime_error("trace: cannot open '" + path +
                             "' for writing");
  buffer_.reserve(2 * k_flush_bytes);
}

// A recorder dropped without finish() (the run threw) still leaves the
// events it buffered: a trace without a footer, which reads as truncated.
TraceRecorder::~TraceRecorder() {
  if (!finished_) write_buffer();
}

void TraceRecorder::write_buffer() {
  out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
}

void TraceRecorder::append_header() {
  if (header_written_) return;
  header_written_ = true;
  const std::string json = trace_detail::header_to_json(header_);
  if (format_ == TraceFormat::jsonl) {
    buffer_ += json;
    buffer_ += '\n';
  } else {
    buffer_.append(trace_detail::k_magic, sizeof(trace_detail::k_magic));
    trace_detail::put_le(buffer_, static_cast<std::uint32_t>(json.size()));
    buffer_ += json;
  }
}

void TraceRecorder::record(const TraceEvent& ev) {
  append_header();
  if (format_ == TraceFormat::jsonl)
    trace_detail::append_event_json(buffer_, ev);
  else
    trace_detail::append_event_binary(buffer_, ev, last_t_);
  if (buffer_.size() > k_flush_bytes) write_buffer();
}

void TraceRecorder::finish(const OnlineReport& live) {
  if (finished_) return;
  finished_ = true;
  append_header();  // a run with zero events still gets a valid trace
  const std::string json = online_report_to_json(live);
  if (format_ == TraceFormat::jsonl) {
    buffer_ += "{\"report\":";
    buffer_ += json;
    buffer_ += "}\n";
  } else {
    buffer_.push_back(static_cast<char>(trace_detail::k_footer_kind));
    trace_detail::put_varint(buffer_, json.size());
    buffer_ += json;
  }
  write_buffer();
  out_->flush();
  if (!*out_)
    throw std::runtime_error("trace: write to '" + path_ + "' failed");
}

void TraceRecorder::on_preps(const std::vector<TracePrep>& preps) {
  header_.preps = preps;
}

}  // namespace drhw
