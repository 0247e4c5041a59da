// Ablation: multi-port reconfiguration controllers, a platform-model
// extension beyond the paper, evaluated on the Table 1 tasks without reuse,
// like the paper's deterministic columns (every task scenario once, optimal
// prefetch order).
//
// The sweep is expressed as campaign-engine scenarios: a cartesian
// build_sweep() over ports x approach.

#include <iostream>
#include <map>

#include "policy/names.hpp"
#include "runner/campaign.hpp"
#include "runner/scenario.hpp"
#include "util/table.hpp"

namespace {

using namespace drhw;

Scenario multimedia_exhaustive(const std::string& name,
                               const std::string& family) {
  Scenario s;
  s.name = name;
  s.family = family;
  s.workload = WorkloadKind::multimedia;
  s.exhaustive = true;
  s.sim.platform = virtex2_platform(8);
  s.sim.iterations = 1;
  return s;
}

}  // namespace

int main() {
  using namespace drhw;

  std::cout << "Reconfiguration-port sweep (multimedia set, no reuse)\n\n";
  SweepConfig sweep;
  sweep.family = "ablation_ports";
  sweep.base = multimedia_exhaustive("ablation_ports/base", "ablation_ports");
  sweep.ports = {1, 2, 3, 4};
  sweep.policies = {policy_names::no_prefetch, policy_names::design_time};
  const auto port_results = CampaignRunner().run(build_sweep(sweep));

  std::map<int, std::map<std::string, double>> port_rows;
  for (const ScenarioResult& result : port_results) {
    if (!result.ok) {
      std::cerr << result.scenario.name << " failed: " << result.error
                << "\n";
      return 1;
    }
    port_rows[result.scenario.sim.platform.reconfig_ports]
             [result.scenario.sim.policy.name] = result.report.overhead_pct;
  }

  TablePrinter port_table({"ports", "on-demand", "optimal prefetch"});
  for (const auto& [ports, by_approach] : port_rows)
    port_table.add_row(
        {std::to_string(ports),
         "+" + fmt_pct(by_approach.at(policy_names::no_prefetch), 1),
         "+" + fmt_pct(by_approach.at(policy_names::design_time), 1)});
  port_table.print(std::cout);
  std::cout << "\nExtra ports barely help the prefetched schedules: on these "
               "graphs a single\nserialised port is already hidden behind "
               "computation — the paper's premise.\n";
  return 0;
}
