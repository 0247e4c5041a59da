#include "util/perf_stats.hpp"

#include <iomanip>
#include <sstream>

namespace drhw {

int log2_bucket(std::uint64_t v) {
  int b = 0;
  while (v > 1) {
    v >>= 1;
    ++b;
  }
  return b;
}

void PerfCounters::note_push(int kind, std::size_t depth) {
  ++queue_pushes;
  if (kind >= 0 && static_cast<std::size_t>(kind) < events_by_kind.size())
    ++events_by_kind[static_cast<std::size_t>(kind)];
  if (depth > queue_depth_max) queue_depth_max = depth;
  const auto bucket = static_cast<std::size_t>(log2_bucket(depth));
  ++queue_depth_log2[bucket < queue_depth_log2.size()
                         ? bucket
                         : queue_depth_log2.size() - 1];
}

namespace {

const char* kind_name(std::size_t kind) {
  switch (kind) {
    case 0:
      return "load_done";
    case 2:
      return "exec_done";
    case 3:
      return "arrival";
    case 4:
      return "sched_done";
  }
  return "other";
}

double to_ms_d(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

std::string perf_summary(const PerfCounters& perf) {
  std::ostringstream os;
  os << "perf: events " << perf.events_total << " (pushes "
     << perf.queue_pushes << ", pops " << perf.queue_pops << ")\n";
  os << "  by kind:";
  for (std::size_t k = 0; k < perf.events_by_kind.size(); ++k)
    if (perf.events_by_kind[k] > 0)
      os << ' ' << kind_name(k) << '=' << perf.events_by_kind[k];
  os << '\n';
  os << "  queue depth max " << perf.queue_depth_max << ", log2 histogram:";
  for (std::size_t b = 0; b < perf.queue_depth_log2.size(); ++b)
    if (perf.queue_depth_log2[b] > 0)
      os << " [2^" << b << "]=" << perf.queue_depth_log2[b];
  os << '\n';
  os << "  calendar resizes " << perf.calendar_resizes << ", arena slots peak "
     << perf.arena_slots_peak << " (created " << perf.arena_slots_created
     << ")\n";
  os << "  tracked allocations " << perf.allocations << " (warm-up "
     << perf.warmup_allocations << ", steady " << perf.steady_allocations()
     << ")\n";
  os << "  admission picks " << perf.admission_picks << ", backlog entries "
     << "examined " << perf.admission_examined << ", backlog walks "
     << perf.backlog_walks << '\n';
  os << std::fixed << std::setprecision(3);
  os << "  phases: setup " << to_ms_d(perf.setup_ns) << " ms, loop "
     << to_ms_d(perf.loop_ns) << " ms, finalize "
     << to_ms_d(perf.finalize_ns) << " ms\n";
  return os.str();
}

}  // namespace drhw
