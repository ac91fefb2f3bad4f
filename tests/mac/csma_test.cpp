#include "mac/parallel_sim.hpp"

#include <gtest/gtest.h>

#include "geom/topology.hpp"
#include "util/error.hpp"

// The DCF property suite, run on the small-topology preset: one region,
// one worker, 1 us cross-node latency (ShardParams::one_region()).
namespace mrwsn::mac {
namespace {

net::Network chain_network(std::size_t nodes, double spacing) {
  return net::Network(geom::chain(nodes, spacing), phy::PhyModel::paper_default());
}

TEST(Csma, LightSingleHopFlowDeliversItsDemand) {
  const net::Network net = chain_network(2, 70.0);
  ParallelCsmaSimulator sim(net, MacParams{}, ShardParams::one_region(),
                            /*seed=*/1);
  sim.add_flow({*net.find_link(0, 1)}, 2.0);
  const SimReport report = sim.run(2.0);
  ASSERT_EQ(report.flows.size(), 1u);
  EXPECT_NEAR(report.flows[0].delivered_mbps, 2.0, 0.2);
  EXPECT_EQ(report.flows[0].dropped_packets, 0u);
  EXPECT_GT(report.data_transmissions, 0u);
}

TEST(Csma, TransmitterSensesItsOwnBusyTime) {
  const net::Network net = chain_network(2, 70.0);
  ParallelCsmaSimulator sim(net, MacParams{}, ShardParams::one_region(), 1);
  sim.add_flow({*net.find_link(0, 1)}, 10.0);
  const SimReport report = sim.run(2.0);
  // 10 Mbps over a 36 Mbps link keeps the channel busy a noticeable
  // fraction of the time — and both nodes are within CS range.
  EXPECT_LT(report.node_idle[0], 0.9);
  EXPECT_LT(report.node_idle[1], 0.9);
  EXPECT_GT(report.node_idle[0], 0.3);
}

TEST(Csma, IdleNetworkIsFullyIdle) {
  const net::Network net = chain_network(3, 70.0);
  ParallelCsmaSimulator sim(net, MacParams{}, ShardParams::one_region(), 1);
  const SimReport report = sim.run(0.5);
  for (double idle : report.node_idle) EXPECT_DOUBLE_EQ(idle, 1.0);
  EXPECT_EQ(report.data_transmissions, 0u);
}

TEST(Csma, SameSeedIsDeterministic) {
  auto run_once = [] {
    const net::Network net = chain_network(4, 70.0);
    ParallelCsmaSimulator sim(net, MacParams{}, ShardParams::one_region(), 42);
    sim.add_flow({*net.find_link(0, 1), *net.find_link(1, 2),
                  *net.find_link(2, 3)},
                 1.5);
    return sim.run(1.0);
  };
  const SimReport a = run_once();
  const SimReport b = run_once();
  EXPECT_EQ(a.flows[0].delivered_packets, b.flows[0].delivered_packets);
  EXPECT_EQ(a.data_transmissions, b.data_transmissions);
  EXPECT_EQ(a.node_idle, b.node_idle);
}

TEST(Csma, MultihopFlowForwardsEndToEnd) {
  const net::Network net = chain_network(4, 70.0);
  ParallelCsmaSimulator sim(net, MacParams{}, ShardParams::one_region(), 7);
  sim.add_flow({*net.find_link(0, 1), *net.find_link(1, 2),
                *net.find_link(2, 3)},
               1.0);
  const SimReport report = sim.run(2.0);
  EXPECT_NEAR(report.flows[0].delivered_mbps, 1.0, 0.15);
  EXPECT_GT(report.flows[0].delivered_packets, 0u);
}

TEST(Csma, FarApartPairsDoNotShareAirtime) {
  // Two transmitter/receiver pairs 800 m apart: out of carrier-sense and
  // interference range; both flows should meet demand concurrently.
  const std::vector<geom::Point> positions{
      {0.0, 0.0}, {70.0, 0.0}, {800.0, 0.0}, {870.0, 0.0}};
  const net::Network net(positions, phy::PhyModel::paper_default());
  ParallelCsmaSimulator sim(net, MacParams{}, ShardParams::one_region(), 3);
  sim.add_flow({*net.find_link(0, 1)}, 12.0);
  sim.add_flow({*net.find_link(2, 3)}, 12.0);
  const SimReport report = sim.run(2.0);
  EXPECT_NEAR(report.flows[0].delivered_mbps, 12.0, 1.0);
  EXPECT_NEAR(report.flows[1].delivered_mbps, 12.0, 1.0);
  // Node 0 never senses the far pair.
  EXPECT_GT(report.node_idle[0], report.node_idle[1] - 1.0);  // sanity
}

TEST(Csma, OverloadSaturatesBelowLinkRate) {
  const net::Network net = chain_network(2, 70.0);
  ParallelCsmaSimulator sim(net, MacParams{}, ShardParams::one_region(), 5);
  sim.add_flow({*net.find_link(0, 1)}, 60.0);  // far beyond 36 Mbps
  const SimReport report = sim.run(2.0);
  // DCF overhead keeps goodput beneath the PHY rate but it must still
  // move a substantial fraction of it.
  EXPECT_LT(report.flows[0].delivered_mbps, 36.0);
  EXPECT_GT(report.flows[0].delivered_mbps, 15.0);
  // Even saturated, DCF leaves the channel idle during DIFS + backoff —
  // roughly (34 + 7.5*9) / 500 us of each cycle — so ~0.2-0.3 idle.
  EXPECT_LT(report.node_idle[0], 0.4);
}

TEST(Csma, ContendingFlowsShareTheChannel) {
  // Two single-hop flows in mutual carrier-sense range must split roughly
  // fairly and their goodputs must sum below the link rate.
  const net::Network net = chain_network(3, 70.0);
  ParallelCsmaSimulator sim(net, MacParams{}, ShardParams::one_region(), 11);
  sim.add_flow({*net.find_link(0, 1)}, 30.0);
  sim.add_flow({*net.find_link(2, 1)}, 30.0);
  const SimReport report = sim.run(2.0);
  const double total =
      report.flows[0].delivered_mbps + report.flows[1].delivered_mbps;
  EXPECT_LT(total, 36.0);
  EXPECT_GT(total, 10.0);
  const double ratio = report.flows[0].delivered_mbps /
                       std::max(report.flows[1].delivered_mbps, 1e-9);
  EXPECT_GT(ratio, 0.25);
  EXPECT_LT(ratio, 4.0);
}

TEST(Csma, LatencyStatsAreSaneAtLightLoad) {
  const net::Network net = chain_network(2, 70.0);
  ParallelCsmaSimulator sim(net, MacParams{}, ShardParams::one_region(), 21);
  sim.add_flow({*net.find_link(0, 1)}, 2.0);
  const SimReport report = sim.run(2.0);
  const FlowStats& stats = report.flows[0];
  ASSERT_GT(stats.delivered_packets, 0u);
  // One frame exchange is ~0.4 ms (DIFS + backoff + 227 us of payload at
  // 36 Mbps + SIFS + ACK); light load should stay well under 5 ms.
  EXPECT_GT(stats.mean_latency_s, 0.0002);
  EXPECT_LT(stats.mean_latency_s, 0.005);
  EXPECT_GE(stats.p95_latency_s, stats.mean_latency_s * 0.5);
  EXPECT_GE(stats.max_latency_s, stats.p95_latency_s);
}

TEST(Csma, MultihopLatencyExceedsSingleHop) {
  const net::Network net = chain_network(4, 70.0);
  ParallelCsmaSimulator one_hop(net, MacParams{}, ShardParams::one_region(),
                                33);
  one_hop.add_flow({*net.find_link(0, 1)}, 1.0);
  const double single = one_hop.run(2.0).flows[0].mean_latency_s;

  ParallelCsmaSimulator three_hop(net, MacParams{}, ShardParams::one_region(),
                                  33);
  three_hop.add_flow({*net.find_link(0, 1), *net.find_link(1, 2),
                      *net.find_link(2, 3)},
                     1.0);
  const double multi = three_hop.run(2.0).flows[0].mean_latency_s;
  EXPECT_GT(multi, 2.0 * single);
}

/// A hidden-terminal layout: the interferer (node 2) is outside the
/// victim transmitter's carrier-sense range (282 m > 281.2 m) but close
/// enough to the victim's receiver (172 m) to kill 18 Mbps receptions
/// while 6 Mbps still decodes.
struct HiddenTerminalFixture {
  net::Network net{std::vector<geom::Point>{
                       {0.0, 0.0}, {110.0, 0.0}, {282.0, 0.0}, {392.0, 0.0}},
                   phy::PhyModel::paper_default()};

  SimReport run(bool enable_arf, std::uint64_t seed = 77) {
    MacParams params;
    params.enable_arf = enable_arf;
    ParallelCsmaSimulator sim(net, params, ShardParams::one_region(), seed);
    sim.add_flow({*net.find_link(0, 1)}, 10.0);  // victim
    sim.add_flow({*net.find_link(2, 3)}, 10.0);  // hidden interferer
    return sim.run(3.0);
  }
};

TEST(CsmaArf, HiddenTerminalHurtsFixedRateVictim) {
  HiddenTerminalFixture f;
  const SimReport report = f.run(/*enable_arf=*/false);
  // The interferer is unaffected (its receiver is far from the victim's
  // transmitter); the victim loses most receptions.
  EXPECT_GT(report.failed_receptions, 100u);
  EXPECT_LT(report.flows[0].delivered_mbps,
            report.flows[1].delivered_mbps * 0.6);
}

TEST(CsmaArf, RateAdaptationRecoversThroughput) {
  HiddenTerminalFixture f;
  const SimReport fixed = f.run(/*enable_arf=*/false);
  const SimReport adaptive = f.run(/*enable_arf=*/true);
  // Falling back to 6 Mbps (SINR-proof against the hidden interferer)
  // delivers more than insisting on 18 Mbps and losing frames.
  EXPECT_GT(adaptive.flows[0].delivered_mbps,
            fixed.flows[0].delivered_mbps * 1.2);
  // And drops fewer packets to the retry limit.
  EXPECT_LT(adaptive.flows[0].dropped_packets,
            fixed.flows[0].dropped_packets);
}

TEST(CsmaArf, CleanChannelStaysAtTopRate) {
  // Without interference ARF must not change behaviour materially.
  const net::Network net = chain_network(2, 70.0);
  MacParams params;
  params.enable_arf = true;
  ParallelCsmaSimulator sim(net, params, ShardParams::one_region(), 5);
  sim.add_flow({*net.find_link(0, 1)}, 8.0);
  const SimReport report = sim.run(2.0);
  EXPECT_NEAR(report.flows[0].delivered_mbps, 8.0, 0.8);
  EXPECT_EQ(report.flows[0].dropped_packets, 0u);
}

/// RTS/CTS fixture. Note the PHY choice: with the paper's default 1.78x
/// carrier-sense range (281 m), every node within decode range (158 m) of
/// a receiver is necessarily within CS range of its transmitter
/// (110 + 158 < 281), so hidden terminals cannot be silenced by NAV at
/// all. A CS range equal to the decode range (factor 1.0) re-creates the
/// classic regime where RTS/CTS earns its keep.
struct RtsFixture {
  net::Network net{std::vector<geom::Point>{
                       {0.0, 0.0}, {110.0, 0.0}, {267.0, 0.0}, {377.0, 0.0}},
                   phy::PhyModel::calibrated({{54.0, 59.0, 24.56},
                                              {36.0, 79.0, 18.80},
                                              {18.0, 119.0, 10.79},
                                              {6.0, 158.0, 6.02}},
                                             4.0, 0.1, /*cs_range_factor=*/1.0)};

  SimReport run(bool enable_rts, std::uint64_t seed = 13) {
    MacParams params;
    params.enable_rts_cts = enable_rts;
    ParallelCsmaSimulator sim(net, params, ShardParams::one_region(), seed);
    sim.add_flow({*net.find_link(0, 1)}, 8.0);  // victim
    sim.add_flow({*net.find_link(2, 3)}, 8.0);  // hidden interferer
    return sim.run(3.0);
  }
};

TEST(CsmaRtsCts, HiddenTerminalCrippledWithoutIt) {
  RtsFixture f;
  const SimReport basic = f.run(false);
  EXPECT_GT(basic.failed_receptions, 200u);
  EXPECT_LT(basic.flows[0].delivered_mbps, 5.0);
}

TEST(CsmaRtsCts, VirtualCarrierSenseRecoversTheVictim) {
  RtsFixture f;
  const SimReport basic = f.run(false);
  const SimReport rts = f.run(true);
  // The CTS from the victim's receiver (157 m from the interferer) sets
  // the interferer's NAV, so DATA frames stop colliding.
  EXPECT_GT(rts.flows[0].delivered_mbps, 1.5 * basic.flows[0].delivered_mbps);
  EXPECT_LT(rts.failed_receptions, basic.failed_receptions / 2);
  // RTS losses replace DATA losses — far cheaper.
  EXPECT_GT(rts.control_failures, 0u);
}

TEST(CsmaRtsCts, CleanChannelStillMeetsDemandDespiteOverhead) {
  const net::Network net = chain_network(2, 70.0);
  MacParams params;
  params.enable_rts_cts = true;
  ParallelCsmaSimulator sim(net, params, ShardParams::one_region(), 5);
  sim.add_flow({*net.find_link(0, 1)}, 6.0);
  const SimReport report = sim.run(2.0);
  EXPECT_NEAR(report.flows[0].delivered_mbps, 6.0, 0.6);
  EXPECT_EQ(report.flows[0].dropped_packets, 0u);
  // But the channel is busier than without the handshake.
  MacParams plain;
  ParallelCsmaSimulator sim2(net, plain, ShardParams::one_region(), 5);
  sim2.add_flow({*net.find_link(0, 1)}, 6.0);
  const SimReport base = sim2.run(2.0);
  EXPECT_LT(report.node_idle[0], base.node_idle[0] + 1e-9);
}

TEST(CsmaRtsCts, PaperPhyMakesNavUseless) {
  // Under the paper's 1.78x CS range the hidden interferer (282 m from
  // the victim transmitter, 172 m from its receiver) cannot decode RTS or
  // CTS, so RTS/CTS burns overhead without protecting anything.
  HiddenTerminalFixture f;  // the ARF fixture: paper PHY, CS 281 m
  MacParams params;
  params.enable_rts_cts = true;
  ParallelCsmaSimulator sim(f.net, params, ShardParams::one_region(), 77);
  sim.add_flow({*f.net.find_link(0, 1)}, 10.0);
  sim.add_flow({*f.net.find_link(2, 3)}, 10.0);
  const SimReport rts = sim.run(3.0);
  const SimReport basic = f.run(false);
  // No meaningful recovery: still far below the interferer's goodput.
  EXPECT_LT(rts.flows[0].delivered_mbps, basic.flows[1].delivered_mbps * 0.6);
}

/// Conservation sweep: packets generated in the measurement window are
/// either delivered, dropped, or still in flight — never duplicated.
class CsmaConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(CsmaConservationTest, PacketsAreConserved) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const net::Network net = chain_network(4, 70.0);
  ParallelCsmaSimulator sim(net, MacParams{}, ShardParams::one_region(), seed);
  const double demand = 1.0 + static_cast<double>(seed % 5) * 2.5;
  sim.add_flow({*net.find_link(0, 1), *net.find_link(1, 2),
                *net.find_link(2, 3)},
               demand);
  const SimReport report = sim.run(1.5);
  const FlowStats& stats = report.flows[0];
  EXPECT_LE(stats.delivered_packets + stats.dropped_packets,
            stats.generated_packets + 600u /* warmup backlog + in flight */);
  // Goodput can never exceed the offered load (plus quantization).
  EXPECT_LE(stats.delivered_mbps, demand + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsmaConservationTest, ::testing::Range(1, 9));

TEST(Csma, RunTwiceIsRejected) {
  const net::Network net = chain_network(2, 70.0);
  ParallelCsmaSimulator sim(net, MacParams{}, ShardParams::one_region(), 1);
  sim.add_flow({*net.find_link(0, 1)}, 1.0);
  (void)sim.run(0.2);
  EXPECT_THROW((void)sim.run(0.2), PreconditionError);
}

TEST(Csma, ValidatesFlowPaths) {
  const net::Network net = chain_network(4, 70.0);
  ParallelCsmaSimulator sim(net, MacParams{}, ShardParams::one_region(), 1);
  EXPECT_THROW(sim.add_flow({}, 1.0), PreconditionError);
  EXPECT_THROW(sim.add_flow({*net.find_link(0, 1)}, 0.0), PreconditionError);
  EXPECT_THROW(
      sim.add_flow({*net.find_link(0, 1), *net.find_link(2, 3)}, 1.0),
      PreconditionError);
}

TEST(Csma, ValidatesDurations) {
  const net::Network net = chain_network(2, 70.0);
  ParallelCsmaSimulator sim(net, MacParams{}, ShardParams::one_region(), 1);
  EXPECT_THROW((void)sim.run(0.0), PreconditionError);
  ParallelCsmaSimulator sim2(net, MacParams{}, ShardParams::one_region(), 1);
  EXPECT_THROW((void)sim2.run(1.0, -0.5), PreconditionError);
}

}  // namespace
}  // namespace mrwsn::mac
