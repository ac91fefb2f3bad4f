// Ablation for the Section-4 premise that channel idle ratios are
// observable: compares the schedule-oracle idle ratio (what an optimally
// scheduled network would exhibit) against the idle ratio a CSMA/CA node
// actually measures on the air, across increasing background load.
// The DCF's contention overhead makes measured idle lower than the oracle
// at every load — one more reason idle-based estimators under-estimate
// under heavy background (the paper's closing observation in Sec. 5.3).
#include <iostream>

#include "core/idle_time.hpp"
#include "core/interference.hpp"
#include "geom/topology.hpp"
#include "mac/parallel_sim.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace mrwsn;
  const net::Network network(geom::chain(4, 70.0), phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(network);
  const std::vector<net::LinkId> path{*network.find_link(0, 1),
                                      *network.find_link(1, 2),
                                      *network.find_link(2, 3)};

  std::cout << "Ablation — schedule-oracle idle ratio vs CSMA/CA-measured "
               "idle ratio\n4-node chain at 70 m, one 3-hop background flow, "
               "load swept up to the path capacity (12 Mbps)\n\n";

  Table table({"load [Mbps]", "oracle mean idle", "measured mean idle",
               "measured - oracle", "delivered [Mbps]"});
  for (double load : {0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0}) {
    const std::vector<core::LinkFlow> background{core::LinkFlow{path, load}};
    const core::IdleResult oracle =
        core::schedule_idle_ratios(network, model, background);

    mac::ParallelCsmaSimulator sim(network, mac::MacParams{},
                                   mac::ShardParams::one_region(),
                                   /*seed=*/17);
    sim.add_flow(path, load);
    const mac::SimReport report = sim.run(3.0);

    const double oracle_mean = stats::mean(oracle.node_idle);
    const double measured_mean = stats::mean(report.node_idle);
    table.add_row({Table::num(load, 1), Table::num(oracle_mean, 3),
                   Table::num(measured_mean, 3),
                   Table::num(measured_mean - oracle_mean, 3),
                   Table::num(report.flows[0].delivered_mbps, 2)});
  }
  table.print(std::cout);
  std::cout << "\n(The gap widens with load: DCF spends airtime on backoff, "
               "collisions and retries that an\noptimal schedule does not, "
               "so carrier-sensed idle time under-states what coordinated\n"
               "scheduling could still deliver.)\n";
  return 0;
}
