#include "core/interference.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

#include "core/scenarios.hpp"
#include "core/topology_delta.hpp"
#include "geom/topology.hpp"
#include "phy/phy_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mrwsn::core {
namespace {

net::Network chain_network(std::size_t nodes, double spacing) {
  return net::Network(geom::chain(nodes, spacing), phy::PhyModel::paper_default());
}

net::LinkId link_of(const net::Network& net, net::NodeId a, net::NodeId b) {
  const auto id = net.find_link(a, b);
  EXPECT_TRUE(id.has_value());
  return *id;
}

// ---------------------------------------------------------------- physical

std::vector<geom::Point> random_layout() {
  Rng rng(20261018);
  return geom::random_rectangle(300, 1000.0, 1000.0, rng);
}

/// Brute force: every ordered pair through Network::received_power,
/// compared bit for bit against the model's eager table.
std::size_t power_table_mismatches(const PhysicalInterferenceModel& model) {
  const net::Network& net = model.network();
  std::size_t mismatches = 0;
  for (net::NodeId from = 0; from < net.num_nodes(); ++from) {
    for (net::NodeId at = 0; at < net.num_nodes(); ++at) {
      const double want = net.received_power(from, at);
      const double got = model.rx_power(from, at);
      if (std::memcmp(&want, &got, sizeof(double)) != 0) ++mismatches;
    }
  }
  return mismatches;
}

TEST(PhysicalModelPowerTable, MatchesBruteForceOnRandomLayout) {
  const net::Network net(random_layout(), phy::PhyModel::paper_default());
  const PhysicalInterferenceModel model(net);
  EXPECT_EQ(power_table_mismatches(model), 0u);
}

TEST(PhysicalModelPowerTable, MatchesBruteForceWithShadowing) {
  const net::Network net(random_layout(), phy::PhyModel::paper_default(),
                         phy::Shadowing(4.0, 7));
  const PhysicalInterferenceModel model(net);
  EXPECT_EQ(power_table_mismatches(model), 0u);
}

TEST(PhysicalModelPowerTable, MatchesBruteForceAfterPowerChangeAndJoinRefill) {
  net::Network net(random_layout(), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  TopologyDelta delta(&net, &model);
  delta.set_power(17, 0.25);  // row/column repair
  delta.set_power(250, 0.03);
  EXPECT_EQ(power_table_mismatches(model), 0u);
  const ModelRepair join = delta.add_node({500.0, 500.0});  // full refill
  EXPECT_TRUE(join.nodes_added);
  EXPECT_EQ(net.num_nodes(), 301u);
  EXPECT_EQ(power_table_mismatches(model), 0u);
}

/// The live links as (tx, rx, lone rate) triples, ordered.
using LinkKey = std::tuple<net::NodeId, net::NodeId, phy::RateIndex>;
std::vector<LinkKey> live_links(const net::Network& net) {
  std::vector<LinkKey> keys;
  for (net::LinkId id = 0; id < net.num_links(); ++id) {
    const net::Link& link = net.link(id);
    if (link.alive) keys.emplace_back(link.tx, link.rx, link.best_rate_alone);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Brute force: every ordered pair of live nodes at the current powers.
std::vector<LinkKey> brute_force_links(const net::Network& net) {
  const phy::PhyModel& phy = net.phy();
  std::vector<LinkKey> keys;
  for (net::NodeId tx = 0; tx < net.num_nodes(); ++tx) {
    for (net::NodeId rx = 0; rx < net.num_nodes(); ++rx) {
      if (tx == rx || !net.node(tx).alive || !net.node(rx).alive) continue;
      const double pr = net.received_power(tx, rx);
      if (const auto rate = phy.rates().max_supported(pr, phy.sinr(pr, 0.0)))
        keys.emplace_back(tx, rx, *rate);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(TopologyDeltaDiscovery, HugePowerFindsEveryLinkTheSweepFinds) {
  // `mrwsn generate --nodes 6 --seed 3`. A 1e300 W radio reaches past any
  // cell index the spatial grid can hold; it must gain the same links as
  // a merely large power that reaches every node.
  const std::vector<geom::Point> points{
      {189.531, 348.339}, {104.883, 208.664}, {119.111, 283.83},
      {153.154, 324.836}, {240.736, 229.118}, {242.723, 158.767}};
  std::vector<std::vector<LinkKey>> replays;
  for (const double watt : {1e300, 1e6}) {
    net::Network net(points, phy::PhyModel::paper_default());
    PhysicalInterferenceModel model(net);
    TopologyDelta delta(&net, &model);
    delta.set_power(1, watt);
    EXPECT_EQ(live_links(net), brute_force_links(net)) << watt << " W";
    replays.push_back(live_links(net));
  }
  EXPECT_EQ(replays[0], replays[1]);
}

TEST(PhysicalModel, LinksSharingANodeAlwaysInterfere) {
  const net::Network net = chain_network(3, 70.0);
  PhysicalInterferenceModel model(net);
  const net::LinkId l01 = link_of(net, 0, 1);
  const net::LinkId l12 = link_of(net, 1, 2);
  for (phy::RateIndex ra = 0; ra < model.rate_table().size(); ++ra)
    for (phy::RateIndex rb = 0; rb < model.rate_table().size(); ++rb)
      EXPECT_TRUE(model.interferes(l01, ra, l12, rb));
}

TEST(PhysicalModel, InterferesIsSymmetric) {
  const net::Network net = chain_network(5, 70.0);
  PhysicalInterferenceModel model(net);
  const net::LinkId a = link_of(net, 0, 1);
  const net::LinkId b = link_of(net, 3, 4);
  for (phy::RateIndex ra = 0; ra < model.rate_table().size(); ++ra)
    for (phy::RateIndex rb = 0; rb < model.rate_table().size(); ++rb)
      EXPECT_EQ(model.interferes(a, ra, b, rb), model.interferes(b, rb, a, ra));
}

TEST(PhysicalModel, RateDependentConflict) {
  // L(0->1) and L(3->4) on a 70 m chain: concurrent SINR supports 18 Mbps
  // on the first link and 36 on the second — so they interfere at
  // (36, 36) (link 1 cannot hold 36) but not at (18, 36).
  const net::Network net = chain_network(5, 70.0);
  PhysicalInterferenceModel model(net);
  const net::LinkId a = link_of(net, 0, 1);
  const net::LinkId b = link_of(net, 3, 4);
  // Rate indices in the paper table: 0=54, 1=36, 2=18, 3=6.
  EXPECT_TRUE(model.interferes(a, 1, b, 1));   // 36 & 36: a fails
  EXPECT_FALSE(model.interferes(a, 2, b, 1));  // 18 & 36: both fine
}

TEST(PhysicalModel, MaxRateVectorMatchesHandComputation) {
  const net::Network net = chain_network(5, 70.0);
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> pair{link_of(net, 0, 1), link_of(net, 3, 4)};
  const auto rates = model.max_rate_vector(pair);
  ASSERT_TRUE(rates.has_value());
  EXPECT_DOUBLE_EQ(model.rate_table()[(*rates)[0]].mbps, 18.0);
  EXPECT_DOUBLE_EQ(model.rate_table()[(*rates)[1]].mbps, 36.0);
}

TEST(PhysicalModel, MaxRateVectorRejectsNodeSharingSets) {
  const net::Network net = chain_network(3, 70.0);
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> pair{link_of(net, 0, 1), link_of(net, 1, 2)};
  EXPECT_EQ(model.max_rate_vector(pair), std::nullopt);
}

TEST(PhysicalModel, MaxRateVectorRejectsOverwhelmedSets) {
  // Adjacent parallel links (0->1 and 2->1 impossible — shares rx).
  // Use 0->1 and 2->3 at 70 m spacing: interferer 70 m from each rx.
  const net::Network net = chain_network(4, 70.0);
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> pair{link_of(net, 0, 1), link_of(net, 2, 3)};
  EXPECT_EQ(model.max_rate_vector(pair), std::nullopt);
}

TEST(PhysicalModel, UsableAloneCoversSlowerRatesOnly) {
  const net::Network net = chain_network(2, 70.0);  // 36 Mbps link
  PhysicalInterferenceModel model(net);
  EXPECT_FALSE(model.usable_alone(0, 0));  // 54: out of range
  EXPECT_TRUE(model.usable_alone(0, 1));   // 36
  EXPECT_TRUE(model.usable_alone(0, 2));   // 18
  EXPECT_TRUE(model.usable_alone(0, 3));   // 6
}

TEST(PhysicalModel, MisOnThreeLinkChainAreSingletons) {
  const net::Network net = chain_network(4, 70.0);
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> universe{
      link_of(net, 0, 1), link_of(net, 1, 2), link_of(net, 2, 3)};
  const auto sets = model.maximal_independent_sets(universe);
  ASSERT_EQ(sets.size(), 3u);
  for (const IndependentSet& s : sets) {
    EXPECT_EQ(s.size(), 1u);
    EXPECT_DOUBLE_EQ(s.mbps[0], 36.0);
  }
}

TEST(PhysicalModel, MisCapturesRateCoupledPair) {
  // 5-node chain: the maximal sets are {L0@36}, {L1@36}, {L2@36} and the
  // rate-coupled pair {L0@18, L3@36}. {L3} alone is NOT maximal because
  // L0 can join without lowering L3's rate.
  const net::Network net = chain_network(5, 70.0);
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> universe{
      link_of(net, 0, 1), link_of(net, 1, 2), link_of(net, 2, 3),
      link_of(net, 3, 4)};
  const auto sets = model.maximal_independent_sets(universe);
  ASSERT_EQ(sets.size(), 4u);
  bool found_pair = false;
  for (const IndependentSet& s : sets) {
    if (s.size() == 2) {
      found_pair = true;
      EXPECT_EQ(s.links, (std::vector<net::LinkId>{universe[0], universe[3]}));
      EXPECT_DOUBLE_EQ(s.mbps_on(universe[0]), 18.0);
      EXPECT_DOUBLE_EQ(s.mbps_on(universe[3]), 36.0);
    } else {
      EXPECT_EQ(s.size(), 1u);
      EXPECT_NE(s.links[0], universe[3]);  // the dominated {L3} singleton
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST(PhysicalModel, MisUniverseDeduplicates) {
  const net::Network net = chain_network(3, 70.0);
  PhysicalInterferenceModel model(net);
  const net::LinkId l = link_of(net, 0, 1);
  const auto sets = model.maximal_independent_sets(std::vector<net::LinkId>{l, l, l});
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].links, (std::vector<net::LinkId>{l}));
}

TEST(PhysicalModel, RejectsUnknownLinks) {
  const net::Network net = chain_network(2, 70.0);
  PhysicalInterferenceModel model(net);
  EXPECT_THROW(model.maximal_independent_sets(std::vector<net::LinkId>{99}),
               PreconditionError);
}

// ---------------------------------------------------------------- protocol

TEST(ProtocolModel, ConflictsAreSymmetricAndPerRate) {
  ProtocolInterferenceModel model(2, abstract_rate_table({54.0, 36.0}));
  model.add_conflict(0, 0, 1, 1);
  EXPECT_TRUE(model.interferes(0, 0, 1, 1));
  EXPECT_TRUE(model.interferes(1, 1, 0, 0));
  EXPECT_FALSE(model.interferes(0, 1, 1, 1));
  EXPECT_FALSE(model.interferes(0, 0, 1, 0));
}

TEST(ProtocolModel, UsableRatesRestrictMaxAlone) {
  ProtocolInterferenceModel model(1, abstract_rate_table({54.0, 36.0}));
  EXPECT_EQ(model.max_rate_alone(0), phy::RateIndex{0});
  model.set_usable_rates(0, {0, 1});  // only 36
  EXPECT_EQ(model.max_rate_alone(0), phy::RateIndex{1});
  EXPECT_FALSE(model.usable_alone(0, 0));
  model.set_usable_rates(0, {0, 0});  // nothing
  EXPECT_EQ(model.max_rate_alone(0), std::nullopt);
}

TEST(ProtocolModel, MisWithNoConflictsIsTheWholeUniverseAtTopRates) {
  ProtocolInterferenceModel model(3, abstract_rate_table({54.0, 36.0}));
  const auto sets = model.maximal_independent_sets(std::vector<net::LinkId>{0, 1, 2});
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].links, (std::vector<net::LinkId>{0, 1, 2}));
  for (double mbps : sets[0].mbps) EXPECT_DOUBLE_EQ(mbps, 54.0);
}

TEST(ProtocolModel, MisDropsDominatedLowRateCliques) {
  // Full conflicts between the two links: the only maximal sets are the
  // singletons at the TOP rate; {L@36} variants are dominated.
  ProtocolInterferenceModel model(2, abstract_rate_table({54.0, 36.0}));
  model.add_conflict_all_rates(0, 1);
  const auto sets = model.maximal_independent_sets(std::vector<net::LinkId>{0, 1});
  ASSERT_EQ(sets.size(), 2u);
  for (const IndependentSet& s : sets) {
    EXPECT_EQ(s.size(), 1u);
    EXPECT_DOUBLE_EQ(s.mbps[0], 54.0);
  }
}

TEST(ProtocolModel, RejectsSelfConflict) {
  ProtocolInterferenceModel model(2, abstract_rate_table({54.0}));
  EXPECT_THROW(model.add_conflict(0, 0, 0, 0), PreconditionError);
  EXPECT_THROW((void)model.interferes(1, 0, 1, 0), PreconditionError);
}

TEST(ProtocolModel, RejectsBadIds) {
  ProtocolInterferenceModel model(2, abstract_rate_table({54.0}));
  EXPECT_THROW(model.add_conflict(0, 0, 5, 0), PreconditionError);
  EXPECT_THROW(model.add_conflict(0, 3, 1, 0), PreconditionError);
  EXPECT_THROW(model.set_usable_rates(0, {1, 1}), PreconditionError);
}

}  // namespace
}  // namespace mrwsn::core
