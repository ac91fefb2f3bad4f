#include "routing/qos_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/idle_time.hpp"
#include "geom/topology.hpp"
#include "routing/admission.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mrwsn::routing {
namespace {

/// 5-node chain at 70 m: adjacent links run 36 Mbps, two-hop "skip" links
/// (140 m) run 6 Mbps. Rich enough for the three metrics to diverge.
struct ChainFixture {
  net::Network net{geom::chain(5, 70.0), phy::PhyModel::paper_default()};
  core::PhysicalInterferenceModel model{net};
  QosRouter router{net, model};
  std::vector<double> all_idle = std::vector<double>(5, 1.0);
};

TEST(Metrics, NamesAreStable) {
  EXPECT_EQ(metric_name(Metric::kHopCount), "hop count");
  EXPECT_EQ(metric_name(Metric::kE2eTxDelay), "e2eTD");
  EXPECT_EQ(metric_name(Metric::kAverageE2eDelay), "average-e2eD");
}

TEST(Metrics, WeightsMatchDefinitions) {
  net::Link link;
  link.best_mbps_alone = 36.0;
  EXPECT_DOUBLE_EQ(*link_weight(Metric::kHopCount, link, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(*link_weight(Metric::kE2eTxDelay, link, 0.5), 1.0 / 36.0);
  EXPECT_DOUBLE_EQ(*link_weight(Metric::kAverageE2eDelay, link, 0.5),
                   1.0 / (0.5 * 36.0));
}

TEST(Metrics, ZeroIdleDisablesLinkUnderAverageE2eDOnly) {
  net::Link link;
  link.best_mbps_alone = 36.0;
  EXPECT_TRUE(link_weight(Metric::kHopCount, link, 0.0).has_value());
  EXPECT_TRUE(link_weight(Metric::kE2eTxDelay, link, 0.0).has_value());
  EXPECT_FALSE(link_weight(Metric::kAverageE2eDelay, link, 0.0).has_value());
}

TEST(Metrics, RejectsBadIdle) {
  net::Link link;
  link.best_mbps_alone = 36.0;
  EXPECT_THROW(link_weight(Metric::kHopCount, link, 1.5), PreconditionError);
}

TEST(QosRouterTest, HopCountTakesSkipLinks) {
  ChainFixture f;
  const auto path = f.router.find_path(0, 4, Metric::kHopCount, f.all_idle);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes(), (std::vector<net::NodeId>{0, 2, 4}));
}

TEST(QosRouterTest, E2eTdPrefersFastLinks) {
  ChainFixture f;
  const auto path = f.router.find_path(0, 4, Metric::kE2eTxDelay, f.all_idle);
  ASSERT_TRUE(path.has_value());
  // 4 hops at 36 Mbps (4/36) beats 2 hops at 6 Mbps (2/6).
  EXPECT_EQ(path->nodes(), (std::vector<net::NodeId>{0, 1, 2, 3, 4}));
}

TEST(QosRouterTest, AverageE2eDRoutesAroundBusyNodes) {
  ChainFixture f;
  std::vector<double> idle(5, 1.0);
  idle[3] = 0.1;  // node 3 is nearly saturated
  const auto path = f.router.find_path(0, 4, Metric::kAverageE2eDelay, idle);
  ASSERT_TRUE(path.has_value());
  // Cheapest route skips node 3: 0-1-2-4 (1/36 + 1/36 + 1/6 ≈ 0.222).
  EXPECT_EQ(path->nodes(), (std::vector<net::NodeId>{0, 1, 2, 4}));
}

TEST(QosRouterTest, WithUniformIdleAverageE2eDMatchesE2eTd) {
  ChainFixture f;
  const auto a = f.router.find_path(0, 4, Metric::kAverageE2eDelay, f.all_idle);
  const auto b = f.router.find_path(0, 4, Metric::kE2eTxDelay, f.all_idle);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->links(), b->links());
}

TEST(QosRouterTest, UnreachableDestination) {
  const std::vector<geom::Point> positions{{0.0, 0.0}, {70.0, 0.0}, {900.0, 0.0}};
  const net::Network net(positions, phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(net);
  QosRouter router(net, model);
  const std::vector<double> idle(3, 1.0);
  EXPECT_FALSE(router.find_path(0, 2, Metric::kHopCount, idle).has_value());
}

TEST(QosRouterTest, BackgroundOverloadRoutesViaIdleOracle) {
  ChainFixture f;
  // Saturate link 3->4's neighbourhood... chain nodes are all within CS
  // range, so idles are uniform; the call must still succeed end-to-end.
  const std::vector<core::LinkFlow> background{
      core::LinkFlow{{*f.net.find_link(3, 4)}, 9.0}};
  const auto path =
      f.router.find_path(0, 4, Metric::kAverageE2eDelay, background);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->source(), 0u);
  EXPECT_EQ(path->destination(), 4u);
}

TEST(QosRouterTest, RejectsBadArguments) {
  ChainFixture f;
  EXPECT_THROW((void)f.router.find_path(0, 0, Metric::kHopCount, f.all_idle),
               PreconditionError);
  EXPECT_THROW((void)f.router.find_path(0, 9, Metric::kHopCount, f.all_idle),
               PreconditionError);
  const std::vector<double> short_idle(2, 1.0);
  EXPECT_THROW((void)f.router.find_path(0, 4, Metric::kHopCount, short_idle),
               PreconditionError);
}

TEST(ToLinkFlow, CopiesLinksAndDemand) {
  ChainFixture f;
  const net::Path path = net::Path::from_nodes(f.net, {0, 1, 2});
  const core::LinkFlow flow = to_link_flow(path, 2.0);
  EXPECT_EQ(flow.links, path.links());
  EXPECT_DOUBLE_EQ(flow.demand_mbps, 2.0);
  EXPECT_THROW(to_link_flow(path, -1.0), PreconditionError);
}

// ------------------------------------------------------------- widest path

TEST(WidestPath, EmptyNetworkPicksTheCapacityOptimalPath) {
  ChainFixture f;
  WidestPathRouter widest(f.net, f.model, 8);
  const WidestPathResult result = widest.find_path(0, 4, {});
  ASSERT_TRUE(result.path.has_value());
  EXPECT_GT(result.candidates_evaluated, 1u);
  // Must match the best over all three metric paths (and can't beat the
  // true joint optimum, which on this chain is the 4-hop path).
  EXPECT_NEAR(result.available_mbps, 72.0 / 7.0, 1e-6);
  EXPECT_EQ(result.path->nodes(), (std::vector<net::NodeId>{0, 1, 2, 3, 4}));
}

TEST(WidestPath, NeverWorseThanE2eTdPath) {
  ChainFixture f;
  WidestPathRouter widest(f.net, f.model, 6);
  const std::vector<core::LinkFlow> background{
      core::LinkFlow{{*f.net.find_link(1, 2)}, 9.0}};
  const auto e2etd =
      f.router.find_path(0, 4, Metric::kE2eTxDelay, background);
  ASSERT_TRUE(e2etd.has_value());
  const double e2etd_bw =
      core::max_path_bandwidth(f.model, background, e2etd->links())
          .available_mbps;
  const WidestPathResult result = widest.find_path(0, 4, background);
  ASSERT_TRUE(result.path.has_value());
  EXPECT_GE(result.available_mbps + 1e-9, e2etd_bw);
}

TEST(WidestPath, DisconnectedPairGivesNoPath) {
  const std::vector<geom::Point> positions{{0.0, 0.0}, {70.0, 0.0}, {900.0, 0.0}};
  const net::Network net(positions, phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(net);
  WidestPathRouter widest(net, model, 3);
  const WidestPathResult result = widest.find_path(0, 2, {});
  EXPECT_FALSE(result.path.has_value());
  EXPECT_EQ(result.candidates_evaluated, 0u);
}

TEST(WidestPath, RejectsBadArguments) {
  ChainFixture f;
  EXPECT_THROW(WidestPathRouter(f.net, f.model, 0), PreconditionError);
  WidestPathRouter widest(f.net, f.model, 3);
  EXPECT_THROW((void)widest.find_path(2, 2, {}), PreconditionError);
  EXPECT_THROW((void)widest.find_path(0, 77, {}), PreconditionError);
}

// --------------------------------------------------------------- admission

TEST(Admission, FillsLinkUntilCapacityRunsOut) {
  // One 36 Mbps link; 10 Mbps requests. Three fit (30/36 airtime), the
  // fourth sees only 6 Mbps available and is rejected.
  const net::Network net(geom::chain(2, 70.0), phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(net);
  AdmissionController controller(net, model, Metric::kHopCount);
  const std::vector<FlowRequest> requests(5, FlowRequest{0, 1, 10.0});
  const AdmissionOutcome outcome = controller.run(requests);
  EXPECT_EQ(outcome.admitted_count, 3u);
  ASSERT_TRUE(outcome.first_failure.has_value());
  EXPECT_EQ(*outcome.first_failure, 3u);
  EXPECT_EQ(outcome.records.size(), 4u);  // stopped at the first failure
  EXPECT_NEAR(outcome.records[0].available_mbps, 36.0, 1e-6);
  EXPECT_NEAR(outcome.records[3].available_mbps, 6.0, 1e-6);
  EXPECT_FALSE(outcome.records[3].admitted);
}

TEST(Admission, ContinuesPastFailureWhenAsked) {
  const net::Network net(geom::chain(2, 70.0), phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(net);
  AdmissionController controller(net, model, Metric::kHopCount);
  const std::vector<FlowRequest> requests{
      {0, 1, 30.0}, {0, 1, 30.0}, {0, 1, 5.0}};
  const AdmissionOutcome outcome =
      controller.run(requests, /*stop_at_first_failure=*/false);
  EXPECT_EQ(outcome.records.size(), 3u);
  EXPECT_TRUE(outcome.records[0].admitted);
  EXPECT_FALSE(outcome.records[1].admitted);  // only 6 left
  EXPECT_TRUE(outcome.records[2].admitted);   // 5 still fits
  EXPECT_EQ(outcome.admitted_count, 2u);
  EXPECT_EQ(*outcome.first_failure, 1u);
}

TEST(Admission, UnroutableRequestIsARejection) {
  const std::vector<geom::Point> positions{{0.0, 0.0}, {70.0, 0.0}, {900.0, 0.0}};
  const net::Network net(positions, phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(net);
  AdmissionController controller(net, model, Metric::kHopCount);
  const std::vector<FlowRequest> requests{{0, 2, 1.0}};
  const AdmissionOutcome outcome = controller.run(requests);
  EXPECT_EQ(outcome.admitted_count, 0u);
  EXPECT_FALSE(outcome.records[0].path.has_value());
  EXPECT_FALSE(outcome.records[0].admitted);
}

TEST(Admission, AdmittedFlowsBecomeBackground) {
  const net::Network net(geom::chain(3, 70.0), phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(net);
  AdmissionController controller(net, model, Metric::kE2eTxDelay);
  const std::vector<FlowRequest> requests{{0, 2, 6.0}};
  (void)controller.run(requests);
  ASSERT_EQ(controller.admitted_flows().size(), 1u);
  EXPECT_DOUBLE_EQ(controller.admitted_flows()[0].demand_mbps, 6.0);
  controller.clear();
  EXPECT_TRUE(controller.admitted_flows().empty());
}

TEST(Admission, WidestStrategyAdmitsAtLeastAsManyAsE2eTd) {
  ChainFixture f;
  const std::vector<FlowRequest> requests{
      {0, 4, 3.0}, {4, 0, 3.0}, {0, 2, 3.0}, {2, 4, 3.0}};
  AdmissionController metric_based(f.net, f.model, Metric::kE2eTxDelay);
  const auto metric_outcome =
      metric_based.run(requests, /*stop_at_first_failure=*/false);
  WidestPathRouter widest(f.net, f.model, 6);
  AdmissionController widest_based(f.net, f.model, widest);
  const auto widest_outcome =
      widest_based.run(requests, /*stop_at_first_failure=*/false);
  EXPECT_GE(widest_outcome.admitted_count, metric_outcome.admitted_count);
}

TEST(Admission, CustomStrategyIsUsed) {
  ChainFixture f;
  int calls = 0;
  AdmissionController controller(
      f.net, f.model,
      [&](const FlowRequest& request, std::span<const core::LinkFlow>) {
        ++calls;
        return net::Path::from_nodes(f.net, {request.src, request.dst});
      });
  const std::vector<FlowRequest> requests{{0, 1, 2.0}, {1, 2, 2.0}};
  const auto outcome = controller.run(requests);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(outcome.admitted_count, 2u);
}

TEST(Admission, PolicyNamesAreStable) {
  EXPECT_EQ(admission_policy_name(AdmissionPolicy::kLpOracle), "LP oracle (Eq. 6)");
  EXPECT_EQ(admission_policy_name(AdmissionPolicy::kConservativeClique),
            "conservative clique (Eq. 13)");
}

TEST(Admission, OracleNeverOverAdmits) {
  ChainFixture f;
  AdmissionController controller(f.net, f.model, Metric::kAverageE2eDelay);
  const std::vector<FlowRequest> requests(6, FlowRequest{0, 4, 4.0});
  const auto outcome = controller.run(requests, /*stop_at_first_failure=*/false);
  EXPECT_EQ(outcome.over_admissions, 0u);
  for (const auto& record : outcome.records) {
    EXPECT_FALSE(record.over_admitted);
    EXPECT_DOUBLE_EQ(record.available_mbps, record.true_available_mbps);
  }
}

TEST(Admission, ConservativePolicyIsSafe) {
  ChainFixture f;
  AdmissionController controller(f.net, f.model, Metric::kAverageE2eDelay);
  controller.set_policy(AdmissionPolicy::kConservativeClique);
  EXPECT_EQ(controller.policy(), AdmissionPolicy::kConservativeClique);
  const std::vector<FlowRequest> requests(6, FlowRequest{0, 4, 3.0});
  const auto outcome = controller.run(requests, /*stop_at_first_failure=*/false);
  EXPECT_EQ(outcome.over_admissions, 0u);
  // The conservative estimate never exceeds... the truth is recorded too.
  for (const auto& record : outcome.records) {
    if (record.path) {
      EXPECT_GE(record.true_available_mbps + 1e-6, 0.0);
    }
  }
}

TEST(Admission, CliqueConstraintPolicyCanOverAdmit) {
  // Eq. 11 ignores background traffic entirely: on a saturated chain it
  // keeps admitting flows the LP truth rejects.
  ChainFixture f;
  AdmissionController controller(f.net, f.model, Metric::kE2eTxDelay);
  controller.set_policy(AdmissionPolicy::kCliqueConstraint);
  const std::vector<FlowRequest> requests(8, FlowRequest{0, 2, 4.0});
  const auto outcome = controller.run(requests, /*stop_at_first_failure=*/false);
  EXPECT_GT(outcome.over_admissions, 0u);
  EXPECT_EQ(outcome.over_admissions,
            static_cast<std::size_t>(
                std::count_if(outcome.records.begin(), outcome.records.end(),
                              [](const AdmissionRecord& r) { return r.over_admitted; })));
}

TEST(Admission, EstimatePolicyRecordsBothValues) {
  ChainFixture f;
  AdmissionController controller(f.net, f.model, Metric::kE2eTxDelay);
  controller.set_policy(AdmissionPolicy::kBottleneckNode);
  const std::vector<FlowRequest> requests{{0, 4, 1.0}};
  const auto outcome = controller.run(requests);
  ASSERT_EQ(outcome.records.size(), 1u);
  const auto& record = outcome.records[0];
  // Fresh network: estimate = min idle*rate = 36 on the 4-hop path;
  // truth = 72/7 (the LP capacity).
  EXPECT_NEAR(record.available_mbps, 36.0, 1e-6);
  EXPECT_NEAR(record.true_available_mbps, 72.0 / 7.0, 1e-6);
}

TEST(Admission, RejectsNullStrategy) {
  ChainFixture f;
  EXPECT_THROW(
      AdmissionController(f.net, f.model, AdmissionController::RouteStrategy{}),
      PreconditionError);
}

TEST(Admission, RejectsNonPositiveDemand) {
  const net::Network net(geom::chain(2, 70.0), phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(net);
  AdmissionController controller(net, model, Metric::kHopCount);
  const std::vector<FlowRequest> requests{{0, 1, 0.0}};
  EXPECT_THROW(controller.run(requests), PreconditionError);
}

TEST(Admission, LpOracleDecidesTwentyRequestsOnA150NodeDraw) {
  // The draw of `mrwsn generate --nodes 150 --seed 2 --flows 40` (default
  // 400 m x 600 m rectangle), with every demand at 0.2 Mbps. Enumerating
  // every maximal independent set of the admitted links, as the idle
  // ratios once did for each request, overran the enumeration's safety
  // limit before the 20th request; the controller now reads idle ratios
  // from its engine's column-generation background schedule.
  constexpr std::size_t kNodes = 150;
  Rng rng(2);
  const phy::PhyModel phy = phy::PhyModel::paper_default();
  std::vector<geom::Point> positions = geom::connected_random_rectangle(
      kNodes, 400.0, 600.0, phy.max_tx_range(), rng);
  std::vector<FlowRequest> requests;
  for (std::size_t i = 0; i < 20; ++i) {
    FlowRequest request{0, 0, 0.2};
    do {
      request.src = static_cast<net::NodeId>(rng.uniform_int(0, kNodes - 1));
      request.dst = static_cast<net::NodeId>(rng.uniform_int(0, kNodes - 1));
    } while (request.src == request.dst);
    requests.push_back(request);
  }
  const net::Network net(std::move(positions), phy);
  core::PhysicalInterferenceModel model(net);
  AdmissionController controller(net, model, Metric::kAverageE2eDelay);
  const AdmissionOutcome outcome =
      controller.run(requests, /*stop_at_first_failure=*/false);
  ASSERT_EQ(outcome.records.size(), requests.size());

  core::AdmissionEngine engine(model);
  for (const core::LinkFlow& flow : controller.admitted_flows())
    engine.add_background(flow);
  EXPECT_TRUE(engine.background_feasible());

  // Each admitted truth is the cold Eq. 6 optimum against the flows
  // admitted before it.
  std::vector<core::LinkFlow> background;
  for (const AdmissionRecord& record : outcome.records) {
    if (!record.admitted) continue;
    const auto cold = core::max_path_bandwidth(model, background,
                                               record.path->links());
    ASSERT_TRUE(cold.background_feasible);
    EXPECT_NEAR(record.true_available_mbps, cold.available_mbps, 1e-6);
    background.push_back(to_link_flow(*record.path, record.request.demand_mbps));
  }
  EXPECT_EQ(background.size(), outcome.admitted_count);
}

}  // namespace
}  // namespace mrwsn::routing
