// End-to-end integration tests: the whole stack driven the way a user
// would drive it — generate a topology, route, admit, estimate, schedule,
// execute the schedule, and cross-check every layer against the others.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/bounds.hpp"
#include "core/estimation.hpp"
#include "core/idle_time.hpp"
#include "core/interference.hpp"
#include "core/schedule.hpp"
#include "geom/topology.hpp"
#include "io/scenario.hpp"
#include "mac/parallel_sim.hpp"
#include "mac/tdma.hpp"
#include "routing/admission.hpp"
#include "routing/widest_path.hpp"
#include "util/rng.hpp"

namespace mrwsn {
namespace {

/// One deterministic random topology shared by the pipeline tests.
struct Pipeline {
  Pipeline() {
    Rng rng(20260704);
    phy::PhyModel phy = phy::PhyModel::paper_default();
    positions = geom::connected_random_rectangle(20, 350.0, 450.0,
                                                 phy.max_tx_range(), rng);
  }
  std::vector<geom::Point> positions;
};

TEST(Integration, AdmittedFlowsAreAlwaysJointlyFeasible) {
  Pipeline p;
  const net::Network network(p.positions, phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(network);
  routing::AdmissionController controller(network, model,
                                          routing::Metric::kAverageE2eDelay);
  Rng rng(5);
  std::vector<routing::FlowRequest> requests;
  for (int i = 0; i < 10; ++i) {
    net::NodeId src = 0, dst = 0;
    while (src == dst) {
      src = rng.uniform_int(0, network.num_nodes() - 1);
      dst = rng.uniform_int(0, network.num_nodes() - 1);
    }
    requests.push_back(routing::FlowRequest{src, dst, 1.5});
  }
  (void)controller.run(requests, /*stop_at_first_failure=*/false);
  // Invariant of LP-oracle admission: the admitted set stays feasible.
  core::AdmissionEngine engine(model);
  for (const core::LinkFlow& flow : controller.admitted_flows())
    engine.add_background(flow);
  EXPECT_TRUE(engine.background_feasible());
}

TEST(Integration, BoundsSandwichTheOptimumOnRealPaths) {
  Pipeline p;
  const net::Network network(p.positions, phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(network);
  routing::WidestPathRouter router(network, model, 3);

  const auto result = router.find_path(0, network.num_nodes() - 1, {});
  if (!result.path) GTEST_SKIP() << "nodes disconnected in this draw";
  const auto& links = result.path->links();

  const double optimum = core::path_capacity(model, links);
  const auto lower = core::independent_set_lower_bound(model, {}, links, 3);
  if (lower.feasible) {
    EXPECT_LE(lower.lower_bound_mbps, optimum + 1e-6);
  }
  // Eq. 9 on a real path is exponential; only run when small enough.
  if (links.size() <= 3) {
    const auto upper = core::clique_upper_bound(model, {}, links, 1u << 12);
    ASSERT_TRUE(upper.background_feasible);
    EXPECT_GE(upper.upper_bound_mbps + 1e-6, optimum);
  }
}

TEST(Integration, LpScheduleSurvivesAuditAndTdmaExecution) {
  Pipeline p;
  const net::Network network(p.positions, phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(network);
  routing::QosRouter router(network, model);
  const std::vector<double> idle(network.num_nodes(), 1.0);

  const auto path = router.find_path(0, network.num_nodes() - 1,
                                     routing::Metric::kE2eTxDelay, idle);
  if (!path) GTEST_SKIP() << "nodes disconnected in this draw";

  const auto lp = core::max_path_bandwidth(model, {}, path->links());
  ASSERT_TRUE(lp.background_feasible);

  // Audit the schedule, then execute it.
  std::vector<double> demand(network.num_links(), 0.0);
  for (net::LinkId id : path->links()) demand[id] = lp.available_mbps - 1e-6;
  const auto audit = core::verify_schedule(model, lp.schedule, demand);
  ASSERT_TRUE(audit.valid) << audit.issue;

  const double offered = 0.85 * lp.available_mbps;
  mac::TdmaSimulator tdma(network, model, lp.schedule, mac::TdmaParams{}, 9);
  tdma.add_flow(path->links(), offered);
  const mac::SimReport report = tdma.run(3.0);
  EXPECT_NEAR(report.flows[0].delivered_mbps, offered, 0.1 * offered);
}

TEST(Integration, EstimatorsBoundedByLinkRatesAndOrdered) {
  Pipeline p;
  const net::Network network(p.positions, phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(network);
  routing::QosRouter router(network, model);

  // Grow background over several admissions and check estimator sanity
  // on every routed path.
  std::vector<core::LinkFlow> background;
  Rng rng(17);
  for (int i = 0; i < 6; ++i) {
    net::NodeId src = 0, dst = 0;
    while (src == dst) {
      src = rng.uniform_int(0, network.num_nodes() - 1);
      dst = rng.uniform_int(0, network.num_nodes() - 1);
    }
    const auto idle = core::schedule_idle_ratios(network, model, background);
    if (!idle.feasible) break;
    const auto path = router.find_path(src, dst,
                                       routing::Metric::kAverageE2eDelay,
                                       idle.node_idle);
    if (!path) continue;
    const auto input = core::make_path_estimate_input(network, model,
                                                      path->links(), idle.node_idle);
    const double e10 = core::estimate_bottleneck_node(input);
    const double e11 = core::estimate_clique_constraint(input);
    const double e12 = core::estimate_min_clique_bottleneck(input);
    const double e13 = core::estimate_conservative_clique(input);
    const double e15 = core::estimate_expected_clique_time(input);
    const double max_rate =
        *std::max_element(input.rate_mbps.begin(), input.rate_mbps.end());
    for (double e : {e10, e11, e12, e13, e15}) {
      EXPECT_GE(e, 0.0);
      EXPECT_LE(e, max_rate + 1e-9);
    }
    EXPECT_NEAR(e12, std::min(e10, e11), 1e-9);
    EXPECT_LE(e13, e12 + 1e-9);
    EXPECT_LE(e15, e13 + 1e-9);

    const auto lp = core::max_path_bandwidth(model, background, path->links());
    if (lp.background_feasible && lp.available_mbps >= 1.0)
      background.push_back(core::LinkFlow{path->links(), 1.0});
  }
  EXPECT_GE(background.size(), 2u);
}

TEST(Integration, ScenarioFileDrivesTheSameResults) {
  // Serialize a topology + flow to disk format, rebuild, and confirm the
  // core numbers are identical.
  Pipeline p;
  io::ScenarioFile scenario;
  scenario.positions = p.positions;
  const net::Network direct(p.positions, phy::PhyModel::paper_default());
  const net::Network rebuilt = io::build_network(scenario);
  ASSERT_EQ(direct.num_links(), rebuilt.num_links());

  core::PhysicalInterferenceModel model_a(direct);
  core::PhysicalInterferenceModel model_b(rebuilt);
  routing::QosRouter router(direct, model_a);
  const std::vector<double> idle(direct.num_nodes(), 1.0);
  const auto path = router.find_path(0, direct.num_nodes() - 1,
                                     routing::Metric::kE2eTxDelay, idle);
  if (!path) GTEST_SKIP() << "nodes disconnected in this draw";
  EXPECT_NEAR(core::path_capacity(model_a, path->links()),
              core::path_capacity(model_b, path->links()), 1e-9);
}

TEST(Integration, CsmaNeverBeatsTheLpOracleOnAChain) {
  // The LP is an upper bound on what any MAC can deliver; check CSMA
  // respects it across loads on a 3-hop chain.
  const net::Network network(geom::chain(4, 70.0), phy::PhyModel::paper_default());
  core::PhysicalInterferenceModel model(network);
  std::vector<net::LinkId> path;
  for (std::size_t i = 0; i < 3; ++i) path.push_back(*network.find_link(i, i + 1));
  const double capacity = core::path_capacity(model, path);  // 12 Mbps
  for (double offered : {4.0, 8.0, 16.0}) {
    mac::ParallelCsmaSimulator sim(network, mac::MacParams{},
                                   mac::ShardParams::one_region(), 31);
    sim.add_flow(path, offered);
    const auto report = sim.run(2.0);
    EXPECT_LE(report.flows[0].delivered_mbps, capacity + 0.5);
  }
}

}  // namespace
}  // namespace mrwsn
