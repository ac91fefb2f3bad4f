// Example: measure channel idle ratios on the air with the CSMA/CA
// simulator (what Section 4's distributed nodes would observe via carrier
// sensing) and feed them into the paper's estimators — the full
// distributed-estimation pipeline, with the Eq. 6 LP as ground truth.
//
//   $ ./build/examples/idle_probing
#include <iostream>

#include "core/available_bandwidth.hpp"
#include "core/estimation.hpp"
#include "core/interference.hpp"
#include "geom/topology.hpp"
#include "mac/parallel_sim.hpp"
#include "net/path.hpp"
#include "util/table.hpp"

int main() {
  using namespace mrwsn;

  // A 6-node chain at 70 m. Background: a 3 Mbps flow over the first two
  // hops. Question: what bandwidth is available on the last three hops?
  net::Network network(geom::chain(6, 70.0), phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(network);

  const net::Path bg_path = net::Path::from_nodes(network, {0, 1, 2});
  const net::Path new_path = net::Path::from_nodes(network, {3, 4, 5});
  const double bg_demand = 3.0;

  // --- measure idle ratios on the air ------------------------------------
  mac::ParallelCsmaSimulator sim(network, mac::MacParams{},
                                 mac::ShardParams::one_region(),
                                 /*seed=*/2026);
  sim.add_flow(bg_path.links(), bg_demand);
  const mac::SimReport report = sim.run(/*duration_s=*/3.0);

  std::cout << "CSMA/CA-measured idle ratios after 3 s of background "
               "traffic (3 Mbps over 0->1->2):\n";
  Table idles({"node", "measured idle"});
  for (net::NodeId n = 0; n < network.num_nodes(); ++n)
    idles.add_row({std::to_string(n), Table::num(report.node_idle[n], 3)});
  idles.print(std::cout);

  // --- estimate the new path's bandwidth from those measurements ----------
  const auto input = core::make_path_estimate_input(
      network, model, new_path.links(), report.node_idle);
  const std::vector<core::LinkFlow> background{
      core::LinkFlow{bg_path.links(), bg_demand}};
  const auto lp = core::max_path_bandwidth(model, background, new_path.links());

  std::cout << "\nAvailable bandwidth of path 3->4->5:\n";
  Table table({"method", "Mbps"});
  table.add_row({"Eq. 6 LP (ground truth)", Table::num(lp.available_mbps, 2)});
  table.add_row({"Eq. 10 bottleneck node",
                 Table::num(core::estimate_bottleneck_node(input), 2)});
  table.add_row({"Eq. 11 clique constraint",
                 Table::num(core::estimate_clique_constraint(input), 2)});
  table.add_row({"Eq. 12 min of both",
                 Table::num(core::estimate_min_clique_bottleneck(input), 2)});
  table.add_row({"Eq. 13 conservative clique",
                 Table::num(core::estimate_conservative_clique(input), 2)});
  table.add_row({"Eq. 15 expected clique time",
                 Table::num(core::estimate_expected_clique_time(input), 2)});
  table.print(std::cout);
  std::cout << "\n(the estimators only see local rates and measured idle "
               "time; the LP sees everything.)\n";
  return 0;
}
