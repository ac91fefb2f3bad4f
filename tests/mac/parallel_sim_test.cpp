#include "mac/parallel_sim.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <vector>

#include "geom/topology.hpp"
#include "mac/partition.hpp"

namespace mrwsn::mac {
namespace {

// The determinism contract: SimReport must be bit-identical for every
// grid shape and thread count. Doubles are compared with exact equality
// on purpose — "close" is not good enough; the merge order is designed
// to make the floating-point arithmetic itself partition-independent.
void expect_identical(const SimReport& a, const SimReport& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.measured_s, b.measured_s);
  EXPECT_EQ(a.data_transmissions, b.data_transmissions);
  EXPECT_EQ(a.failed_receptions, b.failed_receptions);
  EXPECT_EQ(a.control_failures, b.control_failures);
  ASSERT_EQ(a.node_idle.size(), b.node_idle.size());
  for (std::size_t n = 0; n < a.node_idle.size(); ++n) {
    EXPECT_EQ(a.node_idle[n], b.node_idle[n]) << "node " << n;
  }
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    SCOPED_TRACE("flow " + std::to_string(f));
    EXPECT_EQ(a.flows[f].offered_mbps, b.flows[f].offered_mbps);
    EXPECT_EQ(a.flows[f].delivered_mbps, b.flows[f].delivered_mbps);
    EXPECT_EQ(a.flows[f].generated_packets, b.flows[f].generated_packets);
    EXPECT_EQ(a.flows[f].delivered_packets, b.flows[f].delivered_packets);
    EXPECT_EQ(a.flows[f].dropped_packets, b.flows[f].dropped_packets);
    EXPECT_EQ(a.flows[f].mean_latency_s, b.flows[f].mean_latency_s);
    EXPECT_EQ(a.flows[f].p95_latency_s, b.flows[f].p95_latency_s);
    EXPECT_EQ(a.flows[f].max_latency_s, b.flows[f].max_latency_s);
  }
}

struct ShardCase {
  std::size_t grid_x, grid_y, threads;
};

std::vector<ShardCase> shard_cases() {
  std::vector<ShardCase> cases;
  for (std::size_t grid : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      cases.push_back({grid, grid, threads});
    }
  }
  return cases;
}

std::string case_name(const ShardCase& c) {
  std::ostringstream os;
  os << c.grid_x << "x" << c.grid_y << " grid, " << c.threads << " threads";
  return os.str();
}

// Runs `run_one` for every (grid, threads) combination and checks every
// report against the 1x1 single-thread baseline.
SimReport check_all_shardings(
    const std::function<SimReport(ShardParams)>& run_one) {
  SimReport baseline;
  bool have_baseline = false;
  for (const ShardCase& c : shard_cases()) {
    ShardParams shard;
    shard.grid_x = c.grid_x;
    shard.grid_y = c.grid_y;
    shard.threads = c.threads;
    const SimReport report = run_one(shard);
    if (!have_baseline) {
      baseline = report;
      have_baseline = true;
    } else {
      expect_identical(baseline, report, case_name(c));
    }
  }
  return baseline;
}

net::Network grid_network(std::size_t rows, std::size_t cols, double spacing) {
  return net::Network(geom::grid(rows, cols, spacing),
                      phy::PhyModel::paper_default());
}

std::vector<net::LinkId> path_of(const net::Network& net,
                                 std::initializer_list<net::NodeId> nodes) {
  std::vector<net::LinkId> links;
  auto it = nodes.begin();
  for (auto next = std::next(it); next != nodes.end(); ++it, ++next) {
    auto link = net.find_link(*it, *next);
    EXPECT_TRUE(link.has_value());
    links.push_back(*link);
  }
  return links;
}

// --- CSMA determinism ------------------------------------------------------

TEST(ParallelCsma, GridTopologyIsShardingInvariant) {
  // A 3x3 grid spans multiple cells in both axes for the 2x2 and 4x4
  // partitions, with two crossing multihop flows so contention, forwarding
  // and ACK traffic all cross region boundaries.
  const net::Network net = grid_network(3, 3, 70.0);
  const auto flow_a = path_of(net, {0, 1, 2});   // top row, west to east
  const auto flow_b = path_of(net, {6, 4, 2});   // diagonal via the centre
  const SimReport report = check_all_shardings([&](ShardParams shard) {
    ParallelCsmaSimulator sim(net, MacParams{}, shard, 7);
    sim.add_flow(flow_a, 4.0);
    sim.add_flow(flow_b, 4.0);
    return sim.run(1.0, 0.2);
  });
  // Light load on a dense grid: both flows should deliver most of their
  // demand under any correct MAC model.
  EXPECT_GT(report.flows[0].delivered_mbps, 2.0);
  EXPECT_GT(report.flows[1].delivered_mbps, 2.0);
  EXPECT_EQ(report.node_idle.size(), net.num_nodes());
}

TEST(ParallelCsma, HiddenTerminalsAreShardingInvariant) {
  // The classic hidden-terminal layout (senders out of carrier-sense
  // range, receivers in each other's interference range). The horizontal
  // chain collapses the grid to Nx1 columns, so the two conversations land
  // in different regions while their collisions cross the boundary.
  std::vector<geom::Point> pts{{0.0, 0.0}, {110.0, 0.0}, {282.0, 0.0},
                               {392.0, 0.0}};
  const net::Network net(pts, phy::PhyModel::paper_default());
  const auto ab = path_of(net, {0, 1});
  const auto cd = path_of(net, {2, 3});
  const SimReport report = check_all_shardings([&](ShardParams shard) {
    ParallelCsmaSimulator sim(net, MacParams{}, shard, 11);
    sim.add_flow(ab, 10.0);
    sim.add_flow(cd, 10.0);
    return sim.run(2.0, 0.3);
  });
  // Hidden terminals must actually collide in this layout.
  EXPECT_GT(report.failed_receptions, 0u);
}

TEST(ParallelCsma, RtsCtsAcrossRegionsIsShardingInvariant) {
  // RTS/CTS with a carrier-sense range equal to the communication range,
  // so NAV is the only protection and every control frame matters. The
  // layout straddles the 2x2 and 4x4 column boundaries.
  const auto phy = phy::PhyModel::calibrated({{54.0, 59.0, 24.56},
                                              {36.0, 79.0, 18.80},
                                              {18.0, 119.0, 10.79},
                                              {6.0, 158.0, 6.02}},
                                             4.0, 0.1,
                                             /*cs_range_factor=*/1.0);
  std::vector<geom::Point> pts{{0.0, 0.0}, {110.0, 0.0}, {267.0, 0.0},
                               {377.0, 0.0}};
  const net::Network net(pts, phy);
  const auto ab = path_of(net, {0, 1});
  const auto cd = path_of(net, {2, 3});
  MacParams params;
  params.enable_rts_cts = true;
  const SimReport with_rts = check_all_shardings([&](ShardParams shard) {
    ParallelCsmaSimulator sim(net, params, shard, 13);
    sim.add_flow(ab, 8.0);
    sim.add_flow(cd, 8.0);
    return sim.run(2.0, 0.3);
  });

  MacParams no_rts = params;
  no_rts.enable_rts_cts = false;
  ParallelCsmaSimulator plain(net, no_rts, ShardParams{}, 13);
  plain.add_flow(ab, 8.0);
  plain.add_flow(cd, 8.0);
  const SimReport without = plain.run(2.0, 0.3);

  // NAV suppresses the hidden-terminal data collisions (control-frame
  // losses may remain); without it this layout collides heavily.
  EXPECT_GT(without.failed_receptions, with_rts.failed_receptions);
  const double rts_goodput =
      with_rts.flows[0].delivered_mbps + with_rts.flows[1].delivered_mbps;
  EXPECT_GT(rts_goodput, 1.0);
}

TEST(ParallelCsma, ArfIsShardingInvariant) {
  const net::Network net = grid_network(2, 3, 90.0);
  const auto flow = path_of(net, {0, 1, 2});
  MacParams params;
  params.enable_arf = true;
  const SimReport report = check_all_shardings([&](ShardParams shard) {
    ParallelCsmaSimulator sim(net, params, shard, 17);
    sim.add_flow(flow, 6.0);
    return sim.run(1.0, 0.2);
  });
  EXPECT_GT(report.flows[0].delivered_packets, 0u);
}

TEST(ParallelCsma, RepeatRunsAreIdentical) {
  const net::Network net = grid_network(3, 3, 70.0);
  const auto flow = path_of(net, {0, 4, 8});
  const auto run_once = [&] {
    ShardParams shard;
    shard.grid_x = shard.grid_y = 2;
    shard.threads = 4;
    ParallelCsmaSimulator sim(net, MacParams{}, shard, 23);
    sim.add_flow(flow, 5.0);
    return sim.run(1.0, 0.2);
  };
  const SimReport first = run_once();
  const SimReport second = run_once();
  expect_identical(first, second, "same seed, same sharding, run twice");
}

TEST(ParallelCsma, DifferentSeedsDiffer) {
  const net::Network net = grid_network(3, 3, 70.0);
  const auto flow = path_of(net, {0, 4, 8});
  const auto run_seed = [&](std::uint64_t seed) {
    ParallelCsmaSimulator sim(net, MacParams{}, ShardParams{}, seed);
    sim.add_flow(flow, 5.0);
    return sim.run(1.0, 0.2);
  };
  const SimReport a = run_seed(1);
  const SimReport b = run_seed(2);
  // Arrival phases and backoff draws change; byte-identical reports would
  // mean the seed is being ignored somewhere.
  EXPECT_NE(a.flows[0].mean_latency_s, b.flows[0].mean_latency_s);
}

TEST(ParallelCsma, LightLoadDeliversDemand) {
  const net::Network net = grid_network(1, 4, 70.0);
  const auto flow = path_of(net, {0, 1, 2, 3});
  ParallelCsmaSimulator sim(net, MacParams{}, ShardParams{}, 3);
  sim.add_flow(flow, 2.0);
  const SimReport report = sim.run(3.0, 0.5);
  EXPECT_NEAR(report.flows[0].delivered_mbps, 2.0, 0.2);
  EXPECT_EQ(report.flows[0].dropped_packets, 0u);
}

// --- Partition plumbing ----------------------------------------------------

TEST(GridPartition, AssignsEveryNodeExactlyOnce) {
  const net::Network net = grid_network(4, 4, 50.0);
  const GridPartition part = make_grid_partition(net, 2, 2);
  ASSERT_EQ(part.num_regions(), 4u);
  std::vector<int> seen(net.num_nodes(), 0);
  for (std::size_t r = 0; r < part.num_regions(); ++r) {
    for (net::NodeId n : part.nodes_of_region[r]) {
      EXPECT_EQ(part.region_of_node[n], r);
      ++seen[n];
    }
  }
  for (std::size_t n = 0; n < seen.size(); ++n) EXPECT_EQ(seen[n], 1);
}

TEST(GridPartition, CollinearTopologyCollapsesEmptyAxis) {
  const net::Network net(geom::chain(8, 60.0), phy::PhyModel::paper_default());
  const GridPartition part = make_grid_partition(net, 4, 4);
  EXPECT_EQ(part.grid_x, 4u);
  EXPECT_EQ(part.grid_y, 1u);  // all nodes share y = 0
  EXPECT_EQ(part.num_regions(), 4u);
}

TEST(GridPartition, AutoPartitionTracksCarrierSenseRange) {
  const net::Network net = grid_network(6, 6, 100.0);
  const GridPartition part = auto_grid_partition(net);
  EXPECT_GE(part.num_regions(), 1u);
  // Cells are never smaller than the carrier-sense range along an axis.
  const double cs = net.phy().carrier_sense_range();
  EXPECT_LE(static_cast<double>(part.grid_x), 500.0 / cs + 1.0);
}

}  // namespace
}  // namespace mrwsn::mac
