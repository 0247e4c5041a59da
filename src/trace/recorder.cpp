/// \file recorder.cpp
/// Streaming TraceSink: serialises every event straight to the output
/// file. The header is flushed lazily at the first event so that the prep
/// table (handed over during simulator setup) lands in the header.

#include <fstream>
#include <stdexcept>

#include "trace/trace_detail.hpp"

namespace drhw {

namespace {

std::ofstream& stream(void* out) { return *static_cast<std::ofstream*>(out); }

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

  auto* out = new std::ofstream(
      path, format == TraceFormat::binary
                ? std::ios::binary | std::ios::trunc
                : std::ios::openmode(std::ios::trunc));
  if (!out->is_open()) {
    delete out;
    throw std::runtime_error("trace: cannot open '" + path +
                             "' for writing");
  }
  out_ = out;
}

TraceRecorder::~TraceRecorder() {
  delete static_cast<std::ofstream*>(out_);
  out_ = nullptr;
}

void TraceRecorder::flush_header() {
  if (header_written_) return;
  header_written_ = true;
  const std::string json = trace_detail::header_to_json(header_);
  std::ofstream& out = stream(out_);
  if (format_ == TraceFormat::jsonl) {
    out << json << '\n';
  } else {
    out.write(trace_detail::k_magic, sizeof(trace_detail::k_magic));
    std::string frame;
    trace_detail::put_u32(frame, static_cast<std::uint32_t>(json.size()));
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    out.write(json.data(), static_cast<std::streamsize>(json.size()));
  }
}

void TraceRecorder::record(const TraceEvent& ev) {
  flush_header();
  std::ofstream& out = stream(out_);
  if (format_ == TraceFormat::jsonl) {
    out << trace_detail::event_to_json(ev) << '\n';
  } else {
    const std::string payload = trace_detail::event_to_binary(ev);
    std::string frame;
    frame.push_back(static_cast<char>(ev.kind));
    trace_detail::put_u16(frame, static_cast<std::uint16_t>(payload.size()));
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
}

void TraceRecorder::finish(const OnlineReport& live) {
  if (finished_) return;
  finished_ = true;
  flush_header();  // a run with zero events still gets a valid trace
  const std::string json = online_report_to_json(live);
  std::ofstream& out = stream(out_);
  if (format_ == TraceFormat::jsonl) {
    out << "{\"report\":" << json << "}\n";
  } else {
    std::string frame;
    frame.push_back(static_cast<char>(trace_detail::k_footer_kind));
    trace_detail::put_u32(frame, static_cast<std::uint32_t>(json.size()));
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    out.write(json.data(), static_cast<std::streamsize>(json.size()));
  }
  out.flush();
  if (!out) throw std::runtime_error("trace: write to '" + path_ + "' failed");
}

void TraceRecorder::on_preps(const std::vector<TracePrep>& preps) {
  header_.preps = preps;
}

}  // namespace drhw
