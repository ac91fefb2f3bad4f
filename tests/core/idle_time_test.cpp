#include "core/idle_time.hpp"

#include <gtest/gtest.h>

#include "core/interference.hpp"
#include "geom/topology.hpp"

namespace mrwsn::core {
namespace {

constexpr double kTol = 1e-7;

TEST(IdleOracle, NoBackgroundMeansFullyIdle) {
  const net::Network net(geom::chain(3, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  const IdleResult result = schedule_idle_ratios(net, model, {});
  EXPECT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.total_airtime, 0.0);
  for (double idle : result.node_idle) EXPECT_DOUBLE_EQ(idle, 1.0);
}

TEST(IdleOracle, SingleLinkLoadBusiesEveryoneInCsRange) {
  // 9 Mbps on a 36 Mbps link -> airtime 0.25. All three chain nodes are
  // within carrier-sense range (281 m) of the transmitter.
  const net::Network net(geom::chain(3, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  const auto link = *net.find_link(0, 1);
  const std::vector<LinkFlow> background{LinkFlow{{link}, 9.0}};
  const IdleResult result = schedule_idle_ratios(net, model, background);
  ASSERT_TRUE(result.feasible);
  EXPECT_NEAR(result.total_airtime, 0.25, kTol);
  for (double idle : result.node_idle) EXPECT_NEAR(idle, 0.75, kTol);
}

TEST(IdleOracle, FarNodeStaysIdle) {
  // Two nodes close together plus one node 400 m away — outside the
  // 281 m carrier-sense range of both.
  const std::vector<geom::Point> positions{{0.0, 0.0}, {70.0, 0.0}, {470.0, 0.0}};
  const net::Network net(positions, phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  const auto link = *net.find_link(0, 1);
  const std::vector<LinkFlow> background{LinkFlow{{link}, 18.0}};
  const IdleResult result = schedule_idle_ratios(net, model, background);
  ASSERT_TRUE(result.feasible);
  EXPECT_NEAR(result.node_idle[0], 0.5, kTol);
  EXPECT_NEAR(result.node_idle[1], 0.5, kTol);
  EXPECT_NEAR(result.node_idle[2], 1.0, kTol);
}

TEST(IdleOracle, InfeasibleBackgroundIsFlagged) {
  const net::Network net(geom::chain(3, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  const auto link = *net.find_link(0, 1);
  const std::vector<LinkFlow> background{LinkFlow{{link}, 40.0}};  // > 36
  const IdleResult result = schedule_idle_ratios(net, model, background);
  EXPECT_FALSE(result.feasible);
  EXPECT_GT(result.total_airtime, 1.0);
}

TEST(IdleOracle, ConcurrentSlotsBusyBothNeighborhoods) {
  // The rate-coupled pair {L(0->1)@18, L(3->4)@36} lets the oracle serve
  // both demands with overlapping airtime; every node of the 5-chain is
  // within CS range of some transmitter in each slot, so busy fractions
  // reflect the *union*, not the sum.
  const net::Network net(geom::chain(5, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  const auto l0 = *net.find_link(0, 1);
  const auto l3 = *net.find_link(3, 4);
  const std::vector<LinkFlow> background{LinkFlow{{l0}, 9.0}, LinkFlow{{l3}, 9.0}};
  const IdleResult result = schedule_idle_ratios(net, model, background);
  ASSERT_TRUE(result.feasible);
  EXPECT_NEAR(result.total_airtime, 0.375, kTol);
  // Node 0 hears everything scheduled (tx of l0; within 281 m of node 3).
  EXPECT_NEAR(result.node_idle[0], 1.0 - 0.375, kTol);
}

TEST(IdleOracle, IdleRatiosReadTheGivenSchedule) {
  // Two slots on the 5-chain: L(0->1) alone for 0.25, then L(3->4) alone
  // for 0.5. Every node lies within carrier-sense range (281 m) of both
  // transmitters, nodes 0 and 3, so each is busy for 0.75. A schedule over
  // unit airtime is reported infeasible.
  const net::Network net(geom::chain(5, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  const auto l0 = *net.find_link(0, 1);
  const auto l3 = *net.find_link(3, 4);
  AirtimeSchedule schedule;
  schedule.total_airtime = 0.75;
  for (const auto& [link, share] : {std::pair{l0, 0.25}, std::pair{l3, 0.5}}) {
    IndependentSet set;
    set.links = {link};
    set.rates = {*model.max_rate_alone(link)};
    set.mbps = {model.rate_table()[set.rates[0]].mbps};
    schedule.entries.push_back({set, share});
  }
  const IdleResult result = idle_ratios(net, schedule);
  EXPECT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.total_airtime, 0.75);
  ASSERT_EQ(result.node_idle.size(), 5u);
  for (double idle : result.node_idle) EXPECT_NEAR(idle, 0.25, kTol);

  schedule.total_airtime = 1.5;
  EXPECT_FALSE(idle_ratios(net, schedule).feasible);
}

TEST(IdleOracle, UnroutableDemandReturnsInfeasible) {
  // A demanded link that exists but whose flow also demands a link id that
  // cannot carry anything is impossible; here: demand on a link with no
  // usable rate cannot happen by construction (links always have a rate),
  // so instead check a demand the universe cannot satisfy jointly.
  const net::Network net(geom::chain(3, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  const auto l01 = *net.find_link(0, 1);
  const auto l12 = *net.find_link(1, 2);
  // Two links sharing node 1: joint capacity 36/2 = 18 each at most.
  const std::vector<LinkFlow> background{LinkFlow{{l01}, 20.0},
                                         LinkFlow{{l12}, 20.0}};
  const IdleResult result = schedule_idle_ratios(net, model, background);
  EXPECT_FALSE(result.feasible);
}

}  // namespace
}  // namespace mrwsn::core
