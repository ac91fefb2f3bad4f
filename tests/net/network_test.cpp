#include "net/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "geom/topology.hpp"
#include "net/path.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mrwsn::net {
namespace {

Network make_chain(std::size_t nodes, double spacing) {
  return Network(geom::chain(nodes, spacing), phy::PhyModel::paper_default());
}

TEST(Network, ChainAt70mGets36MbpsLinks) {
  // 70 m is beyond 54's 59 m range but within 36's 79 m.
  const Network net = make_chain(3, 70.0);
  ASSERT_EQ(net.num_nodes(), 3u);
  const auto link = net.find_link(0, 1);
  ASSERT_TRUE(link.has_value());
  EXPECT_DOUBLE_EQ(net.link(*link).best_mbps_alone, 36.0);
}

TEST(Network, LinksAreDirectedAndSymmetricInGeometry) {
  const Network net = make_chain(2, 50.0);
  const auto forward = net.find_link(0, 1);
  const auto backward = net.find_link(1, 0);
  ASSERT_TRUE(forward.has_value());
  ASSERT_TRUE(backward.has_value());
  EXPECT_NE(*forward, *backward);
  EXPECT_DOUBLE_EQ(net.link(*forward).length_m, net.link(*backward).length_m);
}

TEST(Network, NoLinkBeyondMaxRange) {
  const Network net = make_chain(3, 100.0);
  // 100 m: 18 Mbps link exists; 200 m (two hops apart): nothing.
  EXPECT_TRUE(net.find_link(0, 1).has_value());
  EXPECT_FALSE(net.find_link(0, 2).has_value());
}

TEST(Network, TwoHopNeighborReachableAtCloseSpacing) {
  const Network net = make_chain(3, 60.0);
  const auto skip = net.find_link(0, 2);  // 120 m -> 6 Mbps only
  ASSERT_TRUE(skip.has_value());
  EXPECT_DOUBLE_EQ(net.link(*skip).best_mbps_alone, 6.0);
}

TEST(Network, LinksFromListsOutgoingLinks) {
  const Network net = make_chain(3, 60.0);
  // Node 1 reaches nodes 0 and 2 (60 m) but not itself.
  const auto& out = net.links_from(1);
  EXPECT_EQ(out.size(), 2u);
  for (LinkId id : out) EXPECT_EQ(net.link(id).tx, 1u);
}

TEST(Network, DistanceAndReceivedPowerAgreeWithPhy) {
  const Network net = make_chain(2, 79.0);
  EXPECT_DOUBLE_EQ(net.distance(0, 1), 79.0);
  EXPECT_DOUBLE_EQ(net.received_power(0, 1), net.phy().received_power(79.0));
}

TEST(Network, RejectsOutOfRangeIds) {
  const Network net = make_chain(2, 50.0);
  EXPECT_THROW(net.node(5), PreconditionError);
  EXPECT_THROW(net.link(999), PreconditionError);
  EXPECT_THROW(net.distance(0, 9), PreconditionError);
  EXPECT_THROW((void)net.find_link(9, 0), PreconditionError);
}

TEST(Network, RejectsEmptyPlacement) {
  EXPECT_THROW(Network({}, phy::PhyModel::paper_default()), PreconditionError);
}

TEST(Network, IsolatedNodeHasNoLinks) {
  Network net({{0.0, 0.0}, {50.0, 0.0}, {5000.0, 0.0}},
              phy::PhyModel::paper_default());
  EXPECT_TRUE(net.links_from(2).empty());
  EXPECT_EQ(net.num_links(), 2u);
}

// --------------------------------------------- link discovery, brute force

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The link list a sweep over every ordered pair produces: each pair's
/// received power through received_power(), kept when some rate decodes
/// it alone, in (tx, rx) order.
std::vector<Link> brute_force_links(const Network& net) {
  std::vector<Link> links;
  const phy::PhyModel& phy = net.phy();
  for (NodeId tx = 0; tx < net.num_nodes(); ++tx) {
    for (NodeId rx = 0; rx < net.num_nodes(); ++rx) {
      if (tx == rx) continue;
      const double pr = net.received_power(tx, rx);
      const auto rate = phy.rates().max_supported(pr, phy.sinr(pr, 0.0));
      if (!rate) continue;
      Link link;
      link.id = links.size();
      link.tx = tx;
      link.rx = rx;
      link.length_m = net.distance(tx, rx);
      link.best_rate_alone = *rate;
      link.best_mbps_alone = phy.rates()[*rate].mbps;
      links.push_back(link);
    }
  }
  return links;
}

void expect_links_match_brute_force(const Network& net) {
  const std::vector<Link> expected = brute_force_links(net);
  ASSERT_EQ(net.num_links(), expected.size());
  for (const Link& want : expected) {
    const Link& got = net.link(want.id);
    EXPECT_EQ(got.tx, want.tx);
    EXPECT_EQ(got.rx, want.rx);
    EXPECT_TRUE(got.alive);
    EXPECT_TRUE(same_bits(got.length_m, want.length_m)) << "link " << want.id;
    EXPECT_EQ(got.best_rate_alone, want.best_rate_alone);
    EXPECT_TRUE(same_bits(got.best_mbps_alone, want.best_mbps_alone));
    EXPECT_EQ(got.rate_cap, 0u);
    EXPECT_EQ(net.find_link(want.tx, want.rx), want.id);
  }
  std::size_t out_links = 0;
  for (NodeId node = 0; node < net.num_nodes(); ++node)
    out_links += net.links_from(node).size();
  EXPECT_EQ(out_links, expected.size());
}

std::vector<geom::Point> random_layout() {
  Rng rng(20261018);
  return geom::random_rectangle(300, 1000.0, 1000.0, rng);
}

TEST(NetworkDiscovery, RandomLayoutMatchesBruteForce) {
  const Network net(random_layout(), phy::PhyModel::paper_default());
  ASSERT_GT(net.num_links(), 1000u);
  expect_links_match_brute_force(net);
}

TEST(NetworkDiscovery, ShadowedLayoutMatchesBruteForce) {
  const Network net(random_layout(), phy::PhyModel::paper_default(),
                    phy::Shadowing(4.0, 7));
  ASSERT_GT(net.num_links(), 1000u);
  expect_links_match_brute_force(net);
}

TEST(NetworkDiscovery, PairAtTheLongestRangeKeepsItsLink) {
  const Network net({{0.0, 0.0}, {158.0, 0.0}}, phy::PhyModel::paper_default());
  expect_links_match_brute_force(net);
  const auto link = net.find_link(0, 1);
  ASSERT_TRUE(link.has_value());
  EXPECT_DOUBLE_EQ(net.link(*link).best_mbps_alone, 6.0);
  EXPECT_TRUE(net.find_link(1, 0).has_value());
}

TEST(NetworkDiscovery, PairJustBeyondTheLongestRangeHasNoLink) {
  const Network net({{0.0, 0.0}, {158.0 * (1.0 + 1e-5), 0.0}},
                    phy::PhyModel::paper_default());
  expect_links_match_brute_force(net);
  EXPECT_EQ(net.num_links(), 0u);
}

TEST(NetworkDiscovery, ReachBoundsTheDecodeRange) {
  const Network plain({{0.0, 0.0}}, phy::PhyModel::paper_default());
  const double reach = plain.reach(plain.phy().tx_power_watt(),
                                   plain.decode_threshold_watt());
  EXPECT_GE(reach, 158.0);
  EXPECT_LT(reach, 158.0 * (1.0 + 1e-5));
  // Doubling the power stretches a d^-4 reach by 2^(1/4).
  EXPECT_NEAR(plain.reach(2.0 * plain.phy().tx_power_watt(),
                          plain.decode_threshold_watt()),
              reach * std::pow(2.0, 0.25), 1e-9);
  const Network shadowed({{0.0, 0.0}}, phy::PhyModel::paper_default(),
                         phy::Shadowing(4.0, 7));
  EXPECT_TRUE(std::isinf(shadowed.reach(shadowed.phy().tx_power_watt(),
                                        shadowed.decode_threshold_watt())));
}

TEST(NetworkDiscovery, FillReceivedPowerMatchesEveryPair) {
  for (const double sigma : {0.0, 4.0}) {
    Network net(random_layout(), phy::PhyModel::paper_default(),
                phy::Shadowing(sigma, 7));
    net.set_node_tx_power(17, 0.25);
    net.set_node_tx_power(250, 0.03);
    std::vector<double> table;
    net.fill_received_power(table);
    const std::size_t n = net.num_nodes();
    ASSERT_EQ(table.size(), n * n);
    std::size_t mismatches = 0;
    for (NodeId from = 0; from < n; ++from)
      for (NodeId at = 0; at < n; ++at)
        if (!same_bits(table[from * n + at], net.received_power(from, at)))
          ++mismatches;
    EXPECT_EQ(mismatches, 0u) << "sigma " << sigma;
  }
}

TEST(Path, FromNodesBuildsContiguousPath) {
  const Network net = make_chain(4, 60.0);
  const Path path = Path::from_nodes(net, {0, 1, 2, 3});
  EXPECT_EQ(path.hop_count(), 3u);
  EXPECT_EQ(path.source(), 0u);
  EXPECT_EQ(path.destination(), 3u);
  EXPECT_TRUE(path.contains_node(2));
  EXPECT_FALSE(path.contains_node(4));
}

TEST(Path, RejectsDisconnectedNodes) {
  const Network net = make_chain(4, 100.0);
  EXPECT_THROW(Path::from_nodes(net, {0, 2}), PreconditionError);
}

TEST(Path, RejectsNonContiguousLinks) {
  const Network net = make_chain(4, 60.0);
  const auto l01 = net.find_link(0, 1);
  const auto l23 = net.find_link(2, 3);
  ASSERT_TRUE(l01 && l23);
  EXPECT_THROW(Path(net, {*l01, *l23}), PreconditionError);
}

TEST(Path, RejectsLoops) {
  const Network net = make_chain(3, 60.0);
  const auto l01 = net.find_link(0, 1);
  const auto l10 = net.find_link(1, 0);
  ASSERT_TRUE(l01 && l10);
  EXPECT_THROW(Path(net, {*l01, *l10}), PreconditionError);
}

TEST(Path, RejectsEmpty) {
  const Network net = make_chain(2, 60.0);
  EXPECT_THROW(Path(net, {}), PreconditionError);
  EXPECT_THROW(Path::from_nodes(net, {0}), PreconditionError);
}

TEST(Path, ContainsLink) {
  const Network net = make_chain(3, 60.0);
  const Path path = Path::from_nodes(net, {0, 1, 2});
  for (LinkId id : path.links()) EXPECT_TRUE(path.contains_link(id));
  const auto reverse = net.find_link(1, 0);
  ASSERT_TRUE(reverse.has_value());
  EXPECT_FALSE(path.contains_link(*reverse));
}

TEST(Path, EqualityComparesLinkSequences) {
  const Network net = make_chain(3, 60.0);
  EXPECT_EQ(Path::from_nodes(net, {0, 1, 2}), Path::from_nodes(net, {0, 1, 2}));
  EXPECT_FALSE(Path::from_nodes(net, {0, 1}) == Path::from_nodes(net, {1, 2}));
}

}  // namespace
}  // namespace mrwsn::net
