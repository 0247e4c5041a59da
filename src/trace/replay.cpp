/// \file replay.cpp
/// Re-derives an OnlineReport from a trace's event stream and compares it
/// with the recorded live report. The derivation is the kernel's own fold
/// (sim/online_accounting.hpp) run over the recorded events, so a trace
/// that reached the file intact replays bit for bit.

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "sim/online_accounting.hpp"
#include "trace/trace.hpp"

namespace drhw {

OnlineReport replay_trace(const TraceData& trace) {
  const TraceHeader& header = trace.header;
  AccountingConstants constants;
  constants.reconfig_ports = header.reconfig_ports;
  constants.isps = header.isps;
  constants.reconfig_energy = header.reconfig_energy;
  constants.deadlines = header.deadline_scale > 0.0;
  constants.record_spans = header.record_spans;
  OnlineAccounting fold(constants);
  fold.on_preps(header.preps);
  for (const TraceEvent& ev : trace.events) fold.record(ev);
  return fold.finish();
}

namespace {

/// Doubles compare bitwise: replay must reproduce the kernel's exact
/// floating-point accumulation, not a value merely close to it.
template <typename T>
bool same(const T& live, const T& replay) {
  if constexpr (std::is_floating_point_v<T>)
    return std::memcmp(&live, &replay, sizeof(T)) == 0;
  else
    return live == replay;
}

template <typename T>
void compare(std::vector<std::string>& out, const std::string& name,
             const T& live, const T& replay) {
  if (same(live, replay)) return;
  std::ostringstream msg;
  msg.precision(17);
  msg << name << ": live=" << live << " replay=" << replay;
  if constexpr (std::is_floating_point_v<T>) msg << " (bitwise compare)";
  out.push_back(msg.str());
}

template <typename T>
void compare(std::vector<std::string>& out, const std::string& name,
             const std::vector<T>& live, const std::vector<T>& replay) {
  compare(out, name + ".size", live.size(), replay.size());
  if (live.size() != replay.size()) return;
  for (std::size_t i = 0; i < live.size(); ++i)
    if (!same(live[i], replay[i]))
      compare(out, name + "[" + std::to_string(i) + "]", live[i], replay[i]);
}

}  // namespace

std::vector<std::string> verify_trace(const TraceData& trace) {
  if (!trace.has_live)
    throw std::invalid_argument(
        "trace verify: no recorded report (truncated trace?)");
  const OnlineReport replay = replay_trace(trace);
  std::vector<std::string> out;
  visit_report_fields(
      [&out](const char* name, const auto& live, const auto& replayed) {
        compare(out, name, live, replayed);
      },
      trace.live, replay);
  return out;
}

}  // namespace drhw
