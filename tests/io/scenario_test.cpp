#include "io/scenario.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace mrwsn::io {
namespace {

constexpr const char* kSample = R"(# three nodes in a line
node 0 0 0
node 1 70 0
node 2 140 0
flow 3.5 0 1 2
request 2 0 2.0
)";

TEST(Scenario, ParsesSampleDocument) {
  const ScenarioFile scenario = parse_scenario(kSample);
  ASSERT_EQ(scenario.positions.size(), 3u);
  EXPECT_DOUBLE_EQ(scenario.positions[1].x, 70.0);
  ASSERT_EQ(scenario.flows.size(), 1u);
  EXPECT_DOUBLE_EQ(scenario.flows[0].demand_mbps, 3.5);
  EXPECT_EQ(scenario.flows[0].nodes, (std::vector<net::NodeId>{0, 1, 2}));
  ASSERT_EQ(scenario.requests.size(), 1u);
  EXPECT_EQ(scenario.requests[0].src, 2u);
  EXPECT_DOUBLE_EQ(scenario.requests[0].demand_mbps, 2.0);
}

TEST(Scenario, RoundTripsThroughSerializer) {
  ScenarioFile scenario = parse_scenario(kSample);
  scenario.shadowing_sigma_db = 4.0;
  scenario.shadowing_seed = 99;
  const ScenarioFile again = parse_scenario(serialize_scenario(scenario));
  EXPECT_EQ(again.positions.size(), scenario.positions.size());
  EXPECT_DOUBLE_EQ(again.shadowing_sigma_db, 4.0);
  EXPECT_EQ(again.shadowing_seed, 99u);
  EXPECT_EQ(again.flows[0].nodes, scenario.flows[0].nodes);
  EXPECT_EQ(again.requests.size(), scenario.requests.size());
}

TEST(Scenario, BuildsNetworkAndFlows) {
  const ScenarioFile scenario = parse_scenario(kSample);
  const net::Network network = build_network(scenario);
  EXPECT_EQ(network.num_nodes(), 3u);
  const auto flows = build_flows(scenario, network);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].path.hop_count(), 2u);
  EXPECT_DOUBLE_EQ(flows[0].demand_mbps, 3.5);
}

TEST(Scenario, ShadowingFlowsIntoNetwork) {
  ScenarioFile scenario = parse_scenario(kSample);
  scenario.shadowing_sigma_db = 6.0;
  scenario.shadowing_seed = 3;
  const net::Network plain = build_network(parse_scenario(kSample));
  const net::Network shadowed = build_network(scenario);
  EXPECT_NE(plain.received_power(0, 1), shadowed.received_power(0, 1));
}

TEST(Scenario, RejectsMalformedInput) {
  EXPECT_THROW(parse_scenario(""), PreconditionError);
  EXPECT_THROW(parse_scenario("node 1 0 0\n"), PreconditionError);  // not dense
  EXPECT_THROW(parse_scenario("node 0 0\n"), PreconditionError);    // arity
  EXPECT_THROW(parse_scenario("node 0 0 0\nbogus 1 2\n"), PreconditionError);
  EXPECT_THROW(parse_scenario("node 0 x 0\n"), PreconditionError);
  EXPECT_THROW(parse_scenario("node 0 0 0\nflow 2.0\n"), PreconditionError);
}

TEST(Scenario, RejectsNonFiniteCoordinatesAndBadDemands) {
  const auto expect_rejected = [](const std::string& text,
                                  const std::string& field) {
    try {
      parse_scenario(text);
      ADD_FAILURE() << "loaded: " << text;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  const std::string two = "node 0 0 0\nnode 1 70 0\n";
  expect_rejected("node 0 0 0\nnode 1 nan 0\n", "node 1: x");
  expect_rejected("node 0 0 inf\n", "node 0: y");
  expect_rejected("node 0 -inf 0\n", "node 0: x");
  expect_rejected(two + "flow nan 0 1\n", "flow 0: demand");
  expect_rejected(two + "flow -3 0 1\n", "flow 0: demand");
  expect_rejected(two + "flow inf 0 1\n", "flow 0: demand");
  expect_rejected(two + "request 0 1 -0.5\n", "request 0: demand");
  expect_rejected(two + "request 0 1 nan\n", "request 0: demand");
  expect_rejected(two + "shadowing nan 7\n", "shadowing: sigma");
  expect_rejected(two + "shadowing -4 7\n", "shadowing: sigma");
  expect_rejected(two + "shadowing inf 7\n", "shadowing: sigma");
  // Ids and seeds are never negative (std::stoull would wrap "-1" to
  // 2^64 - 1), and flow nodes and request endpoints are declared nodes.
  expect_rejected(two + "request 0 -1 1.0\n", "dst cannot be negative");
  expect_rejected(two + "flow 1.0 0 -1\n", "flow node cannot be negative");
  expect_rejected(two + "shadowing 4 -1\n", "seed cannot be negative");
  expect_rejected(two + "flow 1.0 0 99\n",
                  "flow 0: node must be a node id below 2, got 99");
  expect_rejected(two + "flow 1.0 0 1\nflow 1.0 1 2\n", "flow 1: node");
  expect_rejected(two + "request 0 1 1.0\nrequest 2 1 1.0\n",
                  "request 1: src");
  expect_rejected(two + "request 0 2 1.0\n", "request 0: dst");
  // Zero demands, zero sigma and negative (finite) coordinates are valid.
  const ScenarioFile ok = parse_scenario(
      "node 0 -5 0\nnode 1 65 0\nshadowing 0 7\nflow 0 0 1\nrequest 0 1 0\n");
  EXPECT_EQ(ok.flows.size(), 1u);
  EXPECT_EQ(ok.requests.size(), 1u);
}

TEST(Scenario, RejectsDisconnectedFlowAtBuildTime) {
  const ScenarioFile scenario = parse_scenario(
      "node 0 0 0\nnode 1 1000 0\nflow 1.0 0 1\n");
  const net::Network network = build_network(scenario);
  EXPECT_THROW(build_flows(scenario, network), PreconditionError);
}

TEST(Scenario, LoadRejectsMissingFile) {
  EXPECT_THROW(load_scenario("/nonexistent/path/x.scn"), PreconditionError);
}

}  // namespace
}  // namespace mrwsn::io
