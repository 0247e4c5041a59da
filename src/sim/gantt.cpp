#include "sim/gantt.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/table.hpp"

namespace drhw {

void gantt_draw_box(std::string& row, int a, int b, const std::string& label,
                    char fill) {
  if (b <= a) b = a + 1;
  for (int i = a; i < b && i < static_cast<int>(row.size()); ++i)
    row[static_cast<std::size_t>(i)] = fill;
  // Overlay as much of the label as fits (leave the box edges as fill).
  const int space = b - a;
  const int len = std::min<int>(static_cast<int>(label.size()), space);
  const int at = a + std::max(0, (space - len) / 2);
  for (int i = 0; i < len && at + i < static_cast<int>(row.size()); ++i)
    row[static_cast<std::size_t>(at + i)] = label[static_cast<std::size_t>(i)];
}

std::string render_gantt(const SubtaskGraph& graph, const Placement& placement,
                         const EvalResult& eval, const GanttOptions& options) {
  const time_us total = eval.makespan;
  DRHW_CHECK(total > 0);
  const int width = std::max(options.width, 10);
  auto x = [&](time_us t) {
    return static_cast<int>((t * width) / total);
  };

  std::ostringstream out;
  const std::string empty(static_cast<std::size_t>(width) + 1, ' ');

  // Port row: init loads, then the other loads.
  std::string port = empty;
  const auto& init = options.init_loads;
  for (SubtaskId s : init) {
    const auto idx = static_cast<std::size_t>(s);
    gantt_draw_box(port, x(eval.load_start[idx]), x(eval.load_end[idx]),
                   "I" + std::to_string(s), '#');
  }
  for (std::size_t s = 0; s < graph.size(); ++s) {
    if (eval.load_start[s] == k_no_time ||
        std::find(init.begin(), init.end(), static_cast<SubtaskId>(s)) !=
            init.end())
      continue;
    gantt_draw_box(port, x(eval.load_start[s]), x(eval.load_end[s]),
                   "L" + std::to_string(s), '#');
  }
  out << "  port  |" << port << "|\n";
  // Unit rows follow with their labels padded to match "port ".

  auto draw_unit = [&](std::string name, const std::vector<SubtaskId>& seq) {
    std::string row = empty;
    for (SubtaskId s : seq) {
      const auto idx = static_cast<std::size_t>(s);
      gantt_draw_box(row, x(eval.exec_start[idx]), x(eval.exec_end[idx]),
                     graph.subtask(s).name, '=');
    }
    name.resize(5, ' ');  // align with the "port " label
    out << "  " << name << " |" << row << "|\n";
  };

  for (int t = 0; t < placement.tiles_used; ++t)
    draw_unit("tile" + std::to_string(t),
              placement.tile_sequence[static_cast<std::size_t>(t)]);
  for (int i = 0; i < placement.isps_used; ++i)
    draw_unit("isp" + std::to_string(i),
              placement.isp_sequence[static_cast<std::size_t>(i)]);
  out << "  scale: " << fmt_ms(total, 2) << " ms total, '"
      << "#' = load, '=' = execution\n";
  return out.str();
}

}  // namespace drhw
