#include "core/available_bandwidth.hpp"

#include <gtest/gtest.h>

#include "core/admission_engine.hpp"
#include "core/scenarios.hpp"
#include "geom/topology.hpp"
#include "oracles/reference_eq6.hpp"
#include "util/error.hpp"

namespace mrwsn::core {
namespace {

constexpr double kTol = 1e-7;

net::Network chain_network(std::size_t nodes, double spacing) {
  return net::Network(geom::chain(nodes, spacing), phy::PhyModel::paper_default());
}

std::vector<net::LinkId> chain_path(const net::Network& net, std::size_t hops) {
  std::vector<net::LinkId> links;
  for (std::size_t i = 0; i < hops; ++i) {
    const auto id = net.find_link(i, i + 1);
    EXPECT_TRUE(id.has_value());
    links.push_back(*id);
  }
  return links;
}

TEST(PathCapacity, SingleLinkIsItsLoneRate) {
  const net::Network net = chain_network(2, 70.0);
  PhysicalInterferenceModel model(net);
  EXPECT_NEAR(path_capacity(model, chain_path(net, 1)), 36.0, kTol);
}

TEST(PathCapacity, TwoHopChainHalvesTheRate) {
  const net::Network net = chain_network(3, 70.0);
  PhysicalInterferenceModel model(net);
  // Both links share node 1 -> pure time division: 1/(2/36) = 18.
  EXPECT_NEAR(path_capacity(model, chain_path(net, 2)), 18.0, kTol);
}

TEST(PathCapacity, ThreeHopChainIsOneThird) {
  const net::Network net = chain_network(4, 70.0);
  PhysicalInterferenceModel model(net);
  EXPECT_NEAR(path_capacity(model, chain_path(net, 3)), 12.0, kTol);
}

TEST(PathCapacity, FourHopChainGainsFromRateCoupling) {
  // Hand-derived optimum (see interference tests for the {L0@18, L3@36}
  // pair): f = 72/7 ≈ 10.2857, strictly better than the 36/4 = 9 a
  // fixed-rate TDMA round-robin achieves.
  const net::Network net = chain_network(5, 70.0);
  PhysicalInterferenceModel model(net);
  const double capacity = path_capacity(model, chain_path(net, 4));
  EXPECT_NEAR(capacity, 72.0 / 7.0, kTol);
  EXPECT_GT(capacity, 9.0);
}

TEST(MaxPathBandwidth, RateCouplingCanMakeBackgroundFree) {
  // Background 18 Mbps on L(0->1); new path = single link L(3->4).
  // The pair {L0@18, L3@36} serves both at once: f = 36 with zero cost.
  const net::Network net = chain_network(5, 70.0);
  PhysicalInterferenceModel model(net);
  const auto l0 = *net.find_link(0, 1);
  const auto l3 = *net.find_link(3, 4);
  const std::vector<LinkFlow> background{LinkFlow{{l0}, 18.0}};
  const auto result =
      max_path_bandwidth(model, background, std::vector<net::LinkId>{l3});
  ASSERT_TRUE(result.background_feasible);
  EXPECT_NEAR(result.available_mbps, 36.0, kTol);
}

TEST(MaxPathBandwidth, ScheduleRespectsUnitTime) {
  const net::Network net = chain_network(5, 70.0);
  PhysicalInterferenceModel model(net);
  const auto result = max_path_bandwidth(model, {}, chain_path(net, 4));
  double total = 0.0;
  for (const ScheduledSet& entry : result.schedule) {
    EXPECT_GT(entry.time_share, 0.0);
    total += entry.time_share;
  }
  EXPECT_LE(total, 1.0 + kTol);
}

TEST(MaxPathBandwidth, ScheduleDeliversBackgroundAndNewFlow) {
  const net::Network net = chain_network(4, 70.0);
  PhysicalInterferenceModel model(net);
  const auto l01 = *net.find_link(0, 1);
  const std::vector<LinkFlow> background{LinkFlow{{l01}, 9.0}};
  const std::vector<net::LinkId> new_path{*net.find_link(2, 3)};
  const auto result = max_path_bandwidth(model, background, new_path);
  ASSERT_TRUE(result.background_feasible);

  std::vector<double> delivered(net.num_links(), 0.0);
  for (const ScheduledSet& entry : result.schedule)
    for (std::size_t i = 0; i < entry.set.size(); ++i)
      delivered[entry.set.links[i]] += entry.time_share * entry.set.mbps[i];
  EXPECT_GE(delivered[l01] + kTol, 9.0);
  EXPECT_GE(delivered[new_path[0]] + kTol, result.available_mbps);
}

TEST(MaxPathBandwidth, MoreBackgroundNeverHelps) {
  const net::Network net = chain_network(4, 70.0);
  PhysicalInterferenceModel model(net);
  const auto new_path = chain_path(net, 2);
  const auto l23 = *net.find_link(2, 3);
  double previous = 1e9;
  for (double demand : {0.0, 3.0, 6.0, 9.0, 12.0}) {
    std::vector<LinkFlow> background;
    if (demand > 0.0) background.push_back(LinkFlow{{l23}, demand});
    const auto result = max_path_bandwidth(model, background, new_path);
    ASSERT_TRUE(result.background_feasible);
    EXPECT_LE(result.available_mbps, previous + kTol);
    previous = result.available_mbps;
  }
}

TEST(ShadowPrices, SingleLinkPriceIsOne) {
  // f = 36 - bg on a lone link: one Mbps of background costs one Mbps of
  // available bandwidth, and one more unit of airtime is worth 36 Mbps.
  const net::Network net = chain_network(2, 70.0);
  PhysicalInterferenceModel model(net);
  const auto link = *net.find_link(0, 1);
  const std::vector<LinkFlow> background{LinkFlow{{link}, 9.0}};
  const auto result =
      max_path_bandwidth(model, background, std::vector<net::LinkId>{link});
  ASSERT_TRUE(result.background_feasible);
  ASSERT_EQ(result.link_shadow_prices.size(), 1u);
  EXPECT_EQ(result.link_shadow_prices[0].first, link);
  EXPECT_NEAR(result.link_shadow_prices[0].second, 1.0, kTol);
  EXPECT_NEAR(result.airtime_shadow_price, 36.0, kTol);
}

TEST(ShadowPrices, MatchFiniteDifferences) {
  // The dual-derived price of extra background on a link must equal the
  // finite-difference sensitivity of the optimum (away from degeneracy).
  const net::Network net = chain_network(4, 70.0);
  PhysicalInterferenceModel model(net);
  const auto new_path = chain_path(net, 2);
  const auto l23 = *net.find_link(2, 3);
  const double base_demand = 6.0;
  const std::vector<LinkFlow> background{LinkFlow{{l23}, base_demand}};
  const auto result = max_path_bandwidth(model, background, new_path);
  ASSERT_TRUE(result.background_feasible);

  double price_l23 = -1.0;
  for (const auto& [link, price] : result.link_shadow_prices)
    if (link == l23) price_l23 = price;
  ASSERT_GE(price_l23, 0.0);

  const double delta = 1e-4;
  const std::vector<LinkFlow> perturbed{LinkFlow{{l23}, base_demand + delta}};
  const auto shifted = max_path_bandwidth(model, perturbed, new_path);
  ASSERT_TRUE(shifted.background_feasible);
  const double fd = (result.available_mbps - shifted.available_mbps) / delta;
  EXPECT_NEAR(price_l23, fd, 1e-5);
}

TEST(ShadowPrices, SlackLinksHaveZeroPrice) {
  // Background on a far-away link that rides the rate-coupled pair for
  // free (see RateCouplingCanMakeBackgroundFree) is not a bottleneck.
  const net::Network net = chain_network(5, 70.0);
  PhysicalInterferenceModel model(net);
  const auto l0 = *net.find_link(0, 1);
  const auto l3 = *net.find_link(3, 4);
  const std::vector<LinkFlow> background{LinkFlow{{l0}, 9.0}};
  const auto result =
      max_path_bandwidth(model, background, std::vector<net::LinkId>{l3});
  ASSERT_TRUE(result.background_feasible);
  // f = 36 regardless of small changes to the 9 Mbps background (the pair
  // column delivers 18 on l0 for free while serving l3).
  for (const auto& [link, price] : result.link_shadow_prices) {
    if (link == l0) {
      EXPECT_NEAR(price, 0.0, kTol);
    }
  }
}

TEST(MaxPathBandwidth, RejectsEmptyNewPath) {
  const net::Network net = chain_network(2, 70.0);
  PhysicalInterferenceModel model(net);
  EXPECT_THROW(max_path_bandwidth(model, {}, {}), PreconditionError);
}

/// The minimum-airtime schedule of `flows` from an engine holding them as
/// background, held to the enumeration oracle's minimum.
AirtimeSchedule min_airtime(const InterferenceModel& model,
                            const std::vector<LinkFlow>& flows) {
  AdmissionEngine engine(model);
  for (const LinkFlow& flow : flows) engine.add_background(flow);
  AirtimeSchedule schedule = engine.background_schedule();
  std::vector<net::LinkId> universe;
  for (const LinkFlow& flow : flows)
    universe.insert(universe.end(), flow.links.begin(), flow.links.end());
  const auto reference = reference_min_airtime_schedule(
      model, universe, accumulate_link_demands(model, flows));
  EXPECT_TRUE(reference.has_value());
  if (reference) {
    EXPECT_NEAR(schedule.total_airtime, reference->total_airtime, kTol);
  }
  return schedule;
}

/// Feasibility of `flows` (Eqs. 2/4) as an engine holding them decides it.
bool flows_schedulable(const InterferenceModel& model,
                       const std::vector<LinkFlow>& flows) {
  AdmissionEngine engine(model);
  for (const LinkFlow& flow : flows) engine.add_background(flow);
  return engine.background_feasible();
}

TEST(MinAirtime, MatchesHandComputedShare) {
  // One 36 Mbps link with demand 9 -> needs exactly 0.25 of the time.
  const net::Network net = chain_network(2, 70.0);
  PhysicalInterferenceModel model(net);
  const auto link = *net.find_link(0, 1);
  const AirtimeSchedule schedule = min_airtime(model, {LinkFlow{{link}, 9.0}});
  EXPECT_NEAR(schedule.total_airtime, 0.25, kTol);
}

TEST(MinAirtime, ExploitsConcurrency) {
  // Demands of 9 Mbps on L(0->1) and L(3->4). Serving them separately
  // costs 9/36 + 9/36 = 0.5. The optimum rides the rate-coupled pair
  // {L0@18, L3@36} for 0.25 (delivering all of L3's demand plus 4.5 Mbps
  // of L0's) and tops L0 up alone: (9 - 4.5)/36 = 0.125. Total 0.375.
  const net::Network net = chain_network(5, 70.0);
  PhysicalInterferenceModel model(net);
  const auto l0 = *net.find_link(0, 1);
  const auto l3 = *net.find_link(3, 4);
  const AirtimeSchedule schedule =
      min_airtime(model, {LinkFlow{{l0}, 9.0}, LinkFlow{{l3}, 9.0}});
  EXPECT_NEAR(schedule.total_airtime, 0.375, kTol);
}

TEST(FlowsFeasible, DetectsOverAndUnderLoad) {
  const net::Network net = chain_network(3, 70.0);
  PhysicalInterferenceModel model(net);
  const auto path = chain_path(net, 2);
  // Capacity of the 2-hop path is 18.
  EXPECT_TRUE(flows_schedulable(model, {LinkFlow{path, 17.9}}));
  EXPECT_FALSE(flows_schedulable(model, {LinkFlow{path, 18.1}}));
}

TEST(FlowsFeasible, EmptySetIsFeasible) {
  const net::Network net = chain_network(2, 70.0);
  PhysicalInterferenceModel model(net);
  EXPECT_TRUE(flows_schedulable(model, {}));
}

TEST(AccumulateLinkDemands, SumsOverlappingFlows) {
  const net::Network net = chain_network(3, 70.0);
  PhysicalInterferenceModel model(net);
  const auto path = chain_path(net, 2);
  const std::vector<LinkFlow> flows{LinkFlow{path, 2.0},
                                    LinkFlow{{path[0]}, 3.0}};
  const auto demand = accumulate_link_demands(model, flows);
  EXPECT_DOUBLE_EQ(demand[path[0]], 5.0);
  EXPECT_DOUBLE_EQ(demand[path[1]], 2.0);
}

TEST(AccumulateLinkDemands, RejectsNegativeDemand) {
  const net::Network net = chain_network(2, 70.0);
  PhysicalInterferenceModel model(net);
  EXPECT_THROW(
      accumulate_link_demands(model, std::vector<LinkFlow>{LinkFlow{{0}, -1.0}}),
      PreconditionError);
}

}  // namespace
}  // namespace mrwsn::core
