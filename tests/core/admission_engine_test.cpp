// Batched admission engine: every answer must match a cold
// max_path_bandwidth() solve to LP tolerance, commits must ride the
// dual-simplex row re-solve, and batch answers must be independent of the
// thread count.
#include "core/admission_engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <queue>
#include <vector>

#include "core/available_bandwidth.hpp"
#include "core/scenarios.hpp"
#include "geom/topology.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"

namespace mrwsn::core {
namespace {

constexpr double kParityTol = 1e-6;

net::Network chain_network(std::size_t nodes, double spacing) {
  return net::Network(geom::chain(nodes, spacing), phy::PhyModel::paper_default());
}

std::vector<net::LinkId> chain_path(const net::Network& net, std::size_t first,
                                    std::size_t hops) {
  std::vector<net::LinkId> links;
  for (std::size_t i = first; i < first + hops; ++i)
    links.push_back(*net.find_link(i, i + 1));
  return links;
}

/// Fewest-hop path by breadth-first search over the link adjacency.
std::vector<net::LinkId> bfs_path(const net::Network& net, net::NodeId src,
                                  net::NodeId dst) {
  std::vector<int> prev(net.num_nodes(), -1);
  std::queue<net::NodeId> frontier;
  frontier.push(src);
  prev[src] = static_cast<int>(src);
  while (!frontier.empty() && prev[dst] < 0) {
    const net::NodeId u = frontier.front();
    frontier.pop();
    for (net::NodeId v = 0; v < net.num_nodes(); ++v) {
      if (prev[v] >= 0 || !net.find_link(u, v)) continue;
      prev[v] = static_cast<int>(u);
      frontier.push(v);
    }
  }
  EXPECT_GE(prev[dst], 0) << "no route " << src << " -> " << dst;
  std::vector<net::LinkId> links;
  for (net::NodeId v = dst; v != src; v = static_cast<net::NodeId>(prev[v]))
    links.push_back(*net.find_link(static_cast<net::NodeId>(prev[v]), v));
  std::reverse(links.begin(), links.end());
  return links;
}

double cold_available(const InterferenceModel& model,
                      std::span<const LinkFlow> background,
                      std::span<const net::LinkId> path) {
  const AvailableBandwidthResult cold =
      max_path_bandwidth(model, background, path);
  return cold.background_feasible ? cold.available_mbps : -1.0;
}

TEST(AdmissionEngine, ChainReplayMatchesColdSolvesThroughCommits) {
  const net::Network net = chain_network(7, 70.0);
  PhysicalInterferenceModel model(net);
  AdmissionEngine engine(model);

  // Replay an admission sequence: every query is checked against a cold
  // solve of the same state, and admitted flows become background.
  const struct {
    std::size_t first, hops;
    double demand;
  } sequence[] = {{0, 1, 6.0}, {2, 2, 3.0}, {4, 2, 3.0},
                  {1, 3, 2.0}, {0, 6, 1.0}, {3, 1, 4.0}};
  std::vector<LinkFlow> background;
  for (const auto& step : sequence) {
    const auto path = chain_path(net, step.first, step.hops);
    const AdmissionAnswer answer = engine.commit(path, step.demand);
    ASSERT_TRUE(answer.background_feasible);
    EXPECT_TRUE(answer.converged);
    EXPECT_NEAR(answer.available_mbps, cold_available(model, background, path),
                kParityTol);
    if (answer.admitted) background.push_back(LinkFlow{path, step.demand});
    EXPECT_EQ(engine.background().size(), background.size());
  }
  EXPECT_GT(engine.stats().commits, 2u);
  // Every refresh after the first warm basis must ride the dual phase.
  EXPECT_GT(engine.stats().dual_resolves, 0u);
  EXPECT_EQ(engine.stats().dual_fallbacks, 0u);
}

TEST(AdmissionEngine, RandomTopologyParityWithColdSolves) {
  Rng rng(2026);
  const auto points = geom::connected_random_rectangle(10, 300.0, 300.0, 140.0, rng);
  const net::Network net(points, phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  AdmissionEngine engine(model);

  std::vector<LinkFlow> background;
  for (int step = 0; step < 10; ++step) {
    const auto src = static_cast<net::NodeId>(rng.uniform(0.0, 10.0));
    auto dst = static_cast<net::NodeId>(rng.uniform(0.0, 10.0));
    if (src == dst) dst = (dst + 1) % 10;
    const auto path = bfs_path(net, src, dst);
    const double demand = rng.uniform(0.5, 4.0);
    const AdmissionAnswer answer = engine.commit(path, demand);
    const double cold = cold_available(model, background, path);
    if (!answer.background_feasible) {
      EXPECT_LT(cold, 0.0);
      continue;
    }
    ASSERT_TRUE(answer.converged);
    EXPECT_NEAR(answer.available_mbps, cold, kParityTol) << "step " << step;
    if (answer.admitted) background.push_back(LinkFlow{path, demand});
  }
  EXPECT_GT(engine.stats().pool_columns, 0u);
}

TEST(AdmissionEngine, QueryDoesNotCommit) {
  const net::Network net = chain_network(4, 70.0);
  PhysicalInterferenceModel model(net);
  AdmissionEngine engine(model);
  const auto path = chain_path(net, 0, 2);
  const AdmissionAnswer first = engine.query(path, 1.0);
  const AdmissionAnswer second = engine.query(path, 1.0);
  EXPECT_TRUE(first.admitted);
  EXPECT_NEAR(first.available_mbps, second.available_mbps, 1e-12);
  EXPECT_TRUE(engine.background().empty());
}

TEST(AdmissionEngine, RejectedDemandIsNotCommitted) {
  const net::Network net = chain_network(4, 70.0);
  PhysicalInterferenceModel model(net);
  AdmissionEngine engine(model);
  const auto path = chain_path(net, 0, 3);
  // A 3-hop chain tops out at 12 Mbps; 1000 cannot fit.
  const AdmissionAnswer answer = engine.commit(path, 1000.0);
  EXPECT_TRUE(answer.background_feasible);
  EXPECT_FALSE(answer.admitted);
  EXPECT_TRUE(engine.background().empty());
}

TEST(AdmissionEngine, InfeasibleBackgroundIsReported) {
  const net::Network net = chain_network(4, 70.0);
  PhysicalInterferenceModel model(net);
  AdmissionEngine engine(model);
  // 2-hop chain capacity is 18; forcing 30 overloads the shared airtime.
  engine.add_background(LinkFlow{chain_path(net, 0, 2), 30.0});
  EXPECT_FALSE(engine.background_feasible());
  EXPECT_GT(engine.background_airtime(), 1.0);
  const AdmissionAnswer answer = engine.query(chain_path(net, 2, 1), 1.0);
  EXPECT_FALSE(answer.background_feasible);
  EXPECT_FALSE(answer.admitted);
  EXPECT_EQ(answer.available_mbps, 0.0);
}

TEST(AdmissionEngine, BatchMatchesSequentialAndColdSolves) {
  const net::Network net = chain_network(7, 70.0);
  PhysicalInterferenceModel model(net);

  std::vector<LinkFlow> background{LinkFlow{chain_path(net, 0, 2), 4.0},
                                   LinkFlow{chain_path(net, 4, 2), 2.0}};
  std::vector<AdmissionQuery> queries;
  for (std::size_t first = 0; first < 5; ++first)
    for (std::size_t hops = 1; first + hops <= 6 && hops <= 3; ++hops)
      queries.push_back({chain_path(net, first, hops), 2.0});

  AdmissionEngine engine(model);
  for (const LinkFlow& flow : background) engine.add_background(flow);
  const std::vector<AdmissionAnswer> batch = engine.query_batch(queries);

  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].background_feasible);
    EXPECT_TRUE(batch[i].converged);
    EXPECT_NEAR(batch[i].available_mbps,
                cold_available(model, background, queries[i].path), kParityTol)
        << "query " << i;
  }
  EXPECT_EQ(engine.snapshot_read_stats().queries, queries.size());
}

class ThreadEnvGuard {
 public:
  explicit ThreadEnvGuard(const char* value) {
    ::setenv("MRWSN_THREADS", value, 1);
  }
  ~ThreadEnvGuard() { ::unsetenv("MRWSN_THREADS"); }
};

TEST(AdmissionEngine, BatchAnswersIndependentOfThreadCount) {
  const net::Network net = chain_network(6, 70.0);
  PhysicalInterferenceModel model(net);
  std::vector<AdmissionQuery> queries;
  for (std::size_t first = 0; first < 5; ++first)
    queries.push_back({chain_path(net, first, 1), 3.0});
  queries.push_back({chain_path(net, 0, 5), 1.0});

  std::vector<AdmissionAnswer> single, threaded;
  {
    ThreadEnvGuard env("1");
    AdmissionEngine engine(model);
    engine.add_background(LinkFlow{chain_path(net, 1, 2), 3.0});
    single = engine.query_batch(queries);
  }
  {
    ThreadEnvGuard env("4");
    AdmissionEngine engine(model);
    engine.add_background(LinkFlow{chain_path(net, 1, 2), 3.0});
    threaded = engine.query_batch(queries);
  }
  ASSERT_EQ(single.size(), threaded.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_DOUBLE_EQ(single[i].available_mbps, threaded[i].available_mbps);
    EXPECT_EQ(single[i].admitted, threaded[i].admitted);
  }
}

TEST(AdmissionEngine, ClearKeepsThePoolWarm) {
  const net::Network net = chain_network(6, 70.0);
  PhysicalInterferenceModel model(net);
  AdmissionEngine engine(model);
  engine.commit(chain_path(net, 0, 3), 2.0);
  engine.commit(chain_path(net, 2, 3), 2.0);
  const std::size_t warm_pool = engine.stats().pool_columns;
  ASSERT_GT(warm_pool, 0u);

  engine.clear();
  EXPECT_TRUE(engine.background().empty());
  EXPECT_TRUE(engine.background_feasible());
  EXPECT_EQ(engine.background_airtime(), 0.0);
  EXPECT_EQ(engine.stats().pool_columns, warm_pool);

  // The next scenario still answers with cold-solve parity.
  const auto path = chain_path(net, 1, 4);
  const AdmissionAnswer answer = engine.query(path, 1.0);
  EXPECT_NEAR(answer.available_mbps, cold_available(model, {}, path),
              kParityTol);
}

TEST(AdmissionEngine, TieredTelemetryAndExactOnlyParity) {
  const net::Network net = chain_network(7, 70.0);
  PhysicalInterferenceModel model(net);

  AdmissionEngine tiered(model);  // default options: PricingMode::kTiered
  ColumnGenOptions exact_options;
  exact_options.pricing = PricingMode::kExactOnly;
  AdmissionEngine exact(model, exact_options);

  const struct {
    std::size_t first, hops;
    double demand;
  } sequence[] = {{0, 1, 6.0}, {2, 2, 3.0}, {4, 2, 3.0}, {1, 3, 2.0}};
  for (const auto& step : sequence) {
    const auto path = chain_path(net, step.first, step.hops);
    const AdmissionAnswer a = tiered.commit(path, step.demand);
    const AdmissionAnswer b = exact.commit(path, step.demand);
    ASSERT_TRUE(a.background_feasible);
    EXPECT_NEAR(a.available_mbps, b.available_mbps, kParityTol);
    EXPECT_EQ(a.admitted, b.admitted);
    // Convergence always carries the exact certificate: the terminal
    // pricing round is a Tier 2 round regardless of mode.
    EXPECT_TRUE(a.converged);
    EXPECT_GE(a.exact_rounds, 1u);
    EXPECT_TRUE(b.converged);
    EXPECT_GE(b.exact_rounds, 1u);
    EXPECT_EQ(b.heuristic_columns, 0u);
  }
  // The persistent pool fed the masters through Tier 0: the query
  // masters' warm-basis seed and the per-round pool scan.
  EXPECT_GT(tiered.stats().tier0_columns, 0u);
  EXPECT_EQ(exact.stats().heuristic_columns, 0u);
}

TEST(AdmissionEngine, ImpossibleLinkDemandIsInfeasible) {
  // A background demand on a link with no usable rate makes Eq. 6
  // infeasible outright — no amount of scheduling delivers it.
  ProtocolInterferenceModel model(2, abstract_rate_table({2.0}));
  model.set_usable_rates(1, {0});
  AdmissionEngine engine(model);
  engine.add_background(LinkFlow{{0}, 1.0});
  EXPECT_TRUE(engine.background_feasible());
  engine.add_background(LinkFlow{{1}, 0.5});
  EXPECT_FALSE(engine.background_feasible());
  const AdmissionAnswer answer = engine.query(std::vector<net::LinkId>{0}, 0.1);
  EXPECT_FALSE(answer.background_feasible);
  EXPECT_FALSE(answer.admitted);
}

}  // namespace
}  // namespace mrwsn::core
