// MAC ablation around the hidden-terminal problem — the phenomenon behind
// the paper's Section-4 observation that carrier sensing alone misjudges
// the channel. A victim link suffers from an interferer its transmitter
// cannot sense; we sweep the MAC countermeasures (ARF rate fallback,
// RTS/CTS virtual carrier sensing, both) in two PHY regimes:
//  - CS range = decode range (factor 1.0): the classic textbook regime,
//    where the interferer can decode the victim's CTS and NAV works;
//  - the paper's CS range (factor 1.78): carrier sensing is so wide that
//    any node within decode range of a receiver already senses the
//    transmitter — hidden nodes are only those BEYOND decode range, and
//    RTS/CTS can do nothing about them. Only rate fallback helps.
#include <iostream>

#include "mac/parallel_sim.hpp"
#include "util/table.hpp"

namespace {

using namespace mrwsn;

phy::PhyModel paper_phy_with_cs(double cs_factor) {
  return phy::PhyModel::calibrated({{54.0, 59.0, 24.56},
                                    {36.0, 79.0, 18.80},
                                    {18.0, 119.0, 10.79},
                                    {6.0, 158.0, 6.02}},
                                   4.0, 0.1, cs_factor);
}

void run_regime(const char* title, const net::Network& network) {
  std::cout << title << '\n';
  Table table({"MAC variant", "victim [Mbps]", "interferer [Mbps]",
               "DATA losses", "control losses"});
  for (int variant = 0; variant < 4; ++variant) {
    mac::MacParams params;
    params.enable_arf = (variant & 1) != 0;
    params.enable_rts_cts = (variant & 2) != 0;
    mac::ParallelCsmaSimulator sim(network, params,
                                   mac::ShardParams::one_region(), 13);
    sim.add_flow({*network.find_link(0, 1)}, 8.0);
    sim.add_flow({*network.find_link(2, 3)}, 8.0);
    const mac::SimReport report = sim.run(3.0);
    std::string name = "basic";
    if (params.enable_arf && params.enable_rts_cts) {
      name = "ARF + RTS/CTS";
    } else if (params.enable_arf) {
      name = "ARF";
    } else if (params.enable_rts_cts) {
      name = "RTS/CTS";
    }
    table.add_row({name, Table::num(report.flows[0].delivered_mbps, 2),
                   Table::num(report.flows[1].delivered_mbps, 2),
                   std::to_string(report.failed_receptions),
                   std::to_string(report.control_failures)});
  }
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() {
  std::cout << "Hidden-terminal MAC ablation — victim 0->1 vs hidden "
               "interferer 2->3, both offered 8 Mbps\n\n";
  {
    const std::vector<geom::Point> positions{
        {0.0, 0.0}, {110.0, 0.0}, {267.0, 0.0}, {377.0, 0.0}};
    const net::Network network(positions, paper_phy_with_cs(1.0));
    run_regime("Regime A — CS range = decode range (158 m); interferer "
               "decodes the victim's CTS:",
               network);
  }
  {
    const std::vector<geom::Point> positions{
        {0.0, 0.0}, {110.0, 0.0}, {282.0, 0.0}, {392.0, 0.0}};
    const net::Network network(positions, paper_phy_with_cs(1.78));
    run_regime("Regime B — the paper's CS range (281 m); the interferer is "
               "beyond decode range, NAV cannot reach it:",
               network);
  }
  std::cout << "Reading: the two countermeasures are complementary, not "
               "interchangeable.\n- Regime A (interferer close, 157 m from "
               "the receiver): no rate survives the overlap\n  (SINR < the "
               "6 Mbps threshold), so ARF cannot help — but the interferer "
               "decodes the CTS,\n  so RTS/CTS does (DATA losses 1652 -> "
               "304).\n- Regime B (interferer at 172 m): 6 Mbps IS "
               "SINR-proof, so ARF recovers most goodput,\n  while the "
               "interferer is beyond decode range and NAV never reaches it."
               "\nWide carrier sensing narrows the hidden-terminal window "
               "but cannot close it — the\ncarrier-sense blind spot the "
               "paper's idle-time discussion rests on.\n";
  return 0;
}
