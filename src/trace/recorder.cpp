/// \file recorder.cpp
/// Streaming TraceSink: serialises every event straight to the output
/// file. The header is flushed lazily at the first event so that the prep
/// table (handed over during simulator setup) lands in the header.

#include <fstream>
#include <stdexcept>

#include "trace/trace_detail.hpp"

namespace drhw {

namespace {

/// Writes `frame` (the bytes before the length), the payload's length at
/// Length's width, then the payload.
template <typename Length>
void write_framed(std::ofstream& out, std::string frame,
                  const std::string& payload) {
  trace_detail::put_le(frame, static_cast<Length>(payload.size()));
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

}  // namespace

TraceRecorder::TraceRecorder(const std::string& path, TraceFormat format,
                             const OnlineSimOptions& options)
    : path_(path), format_(format) {
  header_.policy = to_string(options.policy);
  header_.arrivals = to_string(options.arrivals.kind);
  header_.queue_backend = to_string(options.queue_backend);
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
}

TraceRecorder::~TraceRecorder() = default;

void TraceRecorder::flush_header() {
  if (header_written_) return;
  header_written_ = true;
  const std::string json = trace_detail::header_to_json(header_);
  if (format_ == TraceFormat::jsonl)
    *out_ << json << '\n';
  else
    write_framed<std::uint32_t>(
        *out_,
        std::string(trace_detail::k_magic, sizeof(trace_detail::k_magic)),
        json);
}

void TraceRecorder::record(const TraceEvent& ev) {
  flush_header();
  if (format_ == TraceFormat::jsonl)
    *out_ << trace_detail::event_to_json(ev) << '\n';
  else
    write_framed<std::uint16_t>(*out_,
                                std::string(1, static_cast<char>(ev.kind)),
                                trace_detail::event_to_binary(ev));
}

void TraceRecorder::finish(const OnlineReport& live) {
  if (finished_) return;
  finished_ = true;
  flush_header();  // a run with zero events still gets a valid trace
  const std::string json = online_report_to_json(live);
  if (format_ == TraceFormat::jsonl)
    *out_ << "{\"report\":" << json << "}\n";
  else
    write_framed<std::uint32_t>(
        *out_, std::string(1, static_cast<char>(trace_detail::k_footer_kind)),
        json);
  out_->flush();
  if (!*out_)
    throw std::runtime_error("trace: write to '" + path_ + "' failed");
}

void TraceRecorder::on_preps(const std::vector<TracePrep>& preps) {
  header_.preps = preps;
}

}  // namespace drhw
