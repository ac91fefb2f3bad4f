#include "core/available_bandwidth.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "core/admission_engine.hpp"
#include "core/scenarios.hpp"
#include "core/schedule.hpp"
#include "geom/topology.hpp"
#include "grid_scenario.hpp"
#include "net/network.hpp"
#include "oracles/reference_eq6.hpp"
#include "util/rng.hpp"

/// Column generation vs. the enumeration oracle (tests/oracles): both solve
/// the same LP (the optimum over all feasible independent sets equals the
/// optimum over the maximal ones, and the pricing oracle is exact), so on
/// every scenario small enough to enumerate the two must agree to tight
/// tolerance.
/// The large-topology tests then exercise universes where enumeration is
/// not an option and validate the column-generation schedule end to end
/// with verify_schedule.
namespace mrwsn::core {
namespace {

constexpr double kParityTol = 1e-6;

/// The exact-only reference loop: no Tier 1, so every round that Tier 0
/// leaves empty calls the exact oracle.
ColumnGenOptions exact_only_options() {
  ColumnGenOptions options;
  options.heuristic_starts = 0;
  return options;
}

class ThreadEnvGuard {
 public:
  explicit ThreadEnvGuard(const char* value) {
    ::setenv("MRWSN_THREADS", value, 1);
  }
  ~ThreadEnvGuard() { ::unsetenv("MRWSN_THREADS"); }
};

void expect_path_parity(const InterferenceModel& model,
                        std::span<const LinkFlow> background,
                        std::span<const net::LinkId> new_path) {
  const auto enumerated = reference_path_bandwidth(model, background, new_path);
  const auto colgen = max_path_bandwidth(model, background, new_path);
  EXPECT_TRUE(colgen.colgen.converged);
  ASSERT_EQ(colgen.background_feasible, enumerated.background_feasible);
  if (!enumerated.background_feasible) return;
  EXPECT_NEAR(colgen.available_mbps, enumerated.available_mbps, kParityTol);
  const ScheduleCheck check = verify_schedule(model, colgen.schedule);
  EXPECT_TRUE(check.valid) << check.issue;
  EXPECT_LE(check.total_time, 1.0 + 1e-9);
}

void expect_joint_parity(const InterferenceModel& model,
                         std::span<const LinkFlow> background,
                         std::span<const std::vector<net::LinkId>> paths,
                         JointObjective objective) {
  const auto enumerated =
      reference_joint_bandwidth(model, background, paths, objective);
  const auto colgen = max_joint_bandwidth(model, background, paths, objective);
  EXPECT_TRUE(colgen.colgen.converged);
  ASSERT_EQ(colgen.background_feasible, enumerated.background_feasible);
  if (!enumerated.background_feasible) return;
  // Per-path splits may differ between optimal solutions; the objective
  // values may not.
  EXPECT_NEAR(colgen.total_mbps, enumerated.total_mbps, kParityTol);
  if (objective == JointObjective::kMaxMin) {
    const auto floor_of = [](const std::vector<double>& mbps) {
      double floor = mbps.front();
      for (double f : mbps) floor = std::min(floor, f);
      return floor;
    };
    EXPECT_NEAR(floor_of(colgen.per_path_mbps),
                floor_of(enumerated.per_path_mbps), kParityTol);
  }
  const ScheduleCheck check = verify_schedule(model, colgen.schedule);
  EXPECT_TRUE(check.valid) << check.issue;
}

// ---------------------------------------------------------------------------
// Fig. 1 protocol scenarios
// ---------------------------------------------------------------------------

TEST(ColumnGenerationParity, ScenarioOneAcrossLoads) {
  for (double lambda : {0.1, 0.25, 0.4}) {
    ScenarioOne scenario = make_scenario_one(lambda);
    expect_path_parity(scenario.model, scenario.background, scenario.new_path);
    const auto colgen = max_path_bandwidth(scenario.model, scenario.background,
                                           scenario.new_path);
    EXPECT_NEAR(colgen.available_mbps, scenario.expected_optimal_mbps(),
                kParityTol);
  }
}

TEST(ColumnGenerationParity, ScenarioTwoChain) {
  ScenarioTwo scenario = make_scenario_two();
  expect_path_parity(scenario.model, {}, scenario.chain);
  const auto colgen = max_path_bandwidth(scenario.model, {}, scenario.chain);
  EXPECT_NEAR(colgen.available_mbps, ScenarioTwo::kOptimalMbps, kParityTol);
}

TEST(ColumnGenerationParity, ScenarioTwoWithBackground) {
  ScenarioTwo scenario = make_scenario_two();
  const std::vector<LinkFlow> background = {{{0, 1}, 2.0}};
  const std::vector<net::LinkId> new_path = {2, 3};
  expect_path_parity(scenario.model, background, new_path);
}

TEST(ColumnGenerationParity, ScenarioTwoInfeasibleBackgroundAgrees) {
  // 54 Mbps on every chain link is far beyond any schedule; both solvers
  // must report the background as undeliverable.
  ScenarioTwo scenario = make_scenario_two();
  const std::vector<LinkFlow> background = {{{0, 1, 2, 3}, 54.0}};
  const std::vector<net::LinkId> new_path = {0};
  expect_path_parity(scenario.model, background, new_path);
  const auto colgen = max_path_bandwidth(scenario.model, background, new_path);
  EXPECT_FALSE(colgen.background_feasible);
  EXPECT_TRUE(colgen.colgen.converged);
  EXPECT_TRUE(colgen.colgen.certified);
  EXPECT_EQ(colgen.colgen.exact_rounds, 1u);
  // The Lagrangian bound of the first exact round already proves the
  // phase A optimum positive, so phase A stops there. Under exact-only
  // pricing that round still found an improving column: convergence
  // alone needed a second exact round.
  const auto exact_run = max_path_bandwidth(scenario.model, background,
                                            new_path, exact_only_options());
  EXPECT_FALSE(exact_run.background_feasible);
  EXPECT_TRUE(exact_run.colgen.certified);
  EXPECT_EQ(exact_run.colgen.exact_rounds, 1u);
}

// Ablation-style input: multirate protocol model with rate-dependent
// conflicts and per-link usable-rate restrictions.
TEST(ColumnGenerationParity, MultirateProtocolModel) {
  ProtocolInterferenceModel model(6, abstract_rate_table({54.0, 36.0, 18.0}));
  for (net::LinkId a = 0; a + 1 < 6; ++a) model.add_conflict_all_rates(a, a + 1);
  // Far pairs conflict only at the fastest rate (hidden-terminal style).
  model.add_conflict(0, 0, 3, 0);
  model.add_conflict(2, 0, 5, 0);
  model.set_usable_rates(2, {0, 1, 1});  // link 2 cannot use 54 Mbps
  const std::vector<LinkFlow> background = {{{1}, 4.0}, {{3, 5}, 2.0}};
  const std::vector<net::LinkId> new_path = {0, 2, 4};
  expect_path_parity(model, background, new_path);
}

// ---------------------------------------------------------------------------
// Physical-model scenarios
// ---------------------------------------------------------------------------

std::vector<net::LinkId> chain_links(const net::Network& net, std::size_t hops) {
  std::vector<net::LinkId> links;
  for (std::size_t i = 0; i < hops; ++i) {
    const auto id = net.find_link(i, i + 1);
    EXPECT_TRUE(id.has_value());
    links.push_back(*id);
  }
  return links;
}

TEST(ColumnGenerationParity, PhysicalChainWithBackground) {
  const net::Network net(geom::chain(6, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> path = chain_links(net, 5);
  const std::vector<LinkFlow> background = {{{path[0], path[1]}, 3.0}};
  const std::vector<net::LinkId> new_path(path.begin() + 2, path.end());
  expect_path_parity(model, background, new_path);
}

TEST(ColumnGenerationParity, Fig2StyleRandomTopology) {
  // The paper's Section 5.2 shape: 30 nodes in a 400 m x 600 m rectangle
  // with the 802.11a PHY. Links are chosen by id; parity holds regardless
  // of whether they form connected routes.
  Rng rng(7);
  phy::PhyModel phy = phy::PhyModel::paper_default();
  auto positions =
      geom::connected_random_rectangle(30, 400.0, 600.0, phy.max_tx_range(), rng);
  const net::Network net(std::move(positions), std::move(phy));
  PhysicalInterferenceModel model(net);
  ASSERT_GE(net.num_links(), 16u);
  const std::vector<net::LinkId> new_path = {0, 5, 9};
  const std::vector<LinkFlow> background = {{{2, 7}, 1.5}, {{11, 13}, 1.0}};
  expect_path_parity(model, background, new_path);
}

TEST(ColumnGenerationParity, JointObjectivesProtocolAndPhysical) {
  ScenarioTwo scenario = make_scenario_two();
  const std::vector<std::vector<net::LinkId>> chain_paths = {{0, 1}, {2, 3}};
  const std::vector<LinkFlow> chain_bg = {{{1}, 1.0}};
  expect_joint_parity(scenario.model, chain_bg, chain_paths,
                      JointObjective::kMaxMin);
  expect_joint_parity(scenario.model, chain_bg, chain_paths,
                      JointObjective::kMaxSum);

  const net::Network net(geom::chain(6, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> path = chain_links(net, 5);
  const std::vector<std::vector<net::LinkId>> paths = {
      {path[0], path[1], path[2]}, {path[3], path[4]}};
  const std::vector<LinkFlow> background = {{{path[4]}, 2.0}};
  expect_joint_parity(model, background, paths, JointObjective::kMaxMin);
  expect_joint_parity(model, background, paths, JointObjective::kMaxSum);
}

// ---------------------------------------------------------------------------
// Beyond enumeration reach
// ---------------------------------------------------------------------------

TEST(ColumnGenerationLargeTopology, ChainBeyondEnumerationReach) {
  // 26 chain links: the maximal-set count grows exponentially with chain
  // length (~1.1k sets at 20 links, ~4.7k at 24) and past ~26 links the
  // enumeration LP blows through its pivot budget — full enumeration can
  // no longer solve this instance at all. Column generation needs only a
  // couple hundred columns, and the optimum is known analytically: the
  // interior links bind at the chain's 1-in-5 spatial reuse of the
  // 36 Mbps rate, so f = 36/5 (the edge links have slack, which is why
  // 1 Mbps of background on the first link does not lower the optimum).
  const net::Network net(geom::chain(27, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> path = chain_links(net, 26);
  ASSERT_GE(path.size(), 25u);
  const std::vector<LinkFlow> background = {{{path[0]}, 1.0}};
  const auto result = max_path_bandwidth(model, background, path);
  EXPECT_TRUE(result.colgen.converged);
  ASSERT_TRUE(result.background_feasible);
  EXPECT_NEAR(result.available_mbps, 36.0 / 5.0, 1e-3);
  std::vector<double> required = accumulate_link_demands(model, background);
  for (net::LinkId link : path) required[link] += result.available_mbps;
  const ScheduleCheck check =
      verify_schedule(model, result.schedule, required, 1e-6);
  EXPECT_TRUE(check.valid) << check.issue;
}

TEST(ColumnGenerationLargeTopology, GridUniverseEndToEndAudit) {
  GridScenario scenario = make_grid_scenario();
  PhysicalInterferenceModel model(scenario.net);
  ASSERT_GE(scenario.snake.size() + 4, 25u);

  const auto result =
      max_path_bandwidth(model, scenario.background, scenario.snake);
  EXPECT_TRUE(result.colgen.converged);
  ASSERT_TRUE(result.background_feasible);
  EXPECT_GT(result.available_mbps, 0.0);
  // The column pool stays a small fraction of the universe's maximal sets.
  EXPECT_LE(result.num_independent_sets, 512u);

  // End-to-end audit: the schedule must deliver every background demand
  // plus the reported bandwidth on every snake link, within one time unit.
  std::vector<double> required =
      accumulate_link_demands(model, scenario.background);
  for (net::LinkId link : scenario.snake)
    required[link] += result.available_mbps;
  const ScheduleCheck check =
      verify_schedule(model, result.schedule, required, 1e-6);
  EXPECT_TRUE(check.valid) << check.issue;
}

TEST(ColumnGenerationLargeTopology, WarmStartsAreExercised) {
  GridScenario scenario = make_grid_scenario();
  PhysicalInterferenceModel model(scenario.net);
  const auto result =
      max_path_bandwidth(model, scenario.background, scenario.snake);
  EXPECT_GT(result.colgen.rounds, 0u);
  EXPECT_GT(result.colgen.warm_starts, 0u);
  EXPECT_EQ(result.num_independent_sets, result.colgen.columns);
}

TEST(ColumnGenerationLargeTopology, IdenticalAcrossThreadCounts) {
  GridScenario scenario = make_grid_scenario();
  AvailableBandwidthResult single, threaded;
  {
    ThreadEnvGuard env("1");
    PhysicalInterferenceModel model(scenario.net);
    single = max_path_bandwidth(model, scenario.background, scenario.snake);
  }
  {
    ThreadEnvGuard env("4");
    PhysicalInterferenceModel model(scenario.net);
    threaded = max_path_bandwidth(model, scenario.background, scenario.snake);
  }
  EXPECT_DOUBLE_EQ(single.available_mbps, threaded.available_mbps);
  EXPECT_EQ(single.num_independent_sets, threaded.num_independent_sets);
  EXPECT_EQ(single.colgen.rounds, threaded.colgen.rounds);
  ASSERT_EQ(single.schedule.size(), threaded.schedule.size());
  for (std::size_t i = 0; i < single.schedule.size(); ++i) {
    EXPECT_EQ(single.schedule[i].set.links, threaded.schedule[i].set.links);
    EXPECT_EQ(single.schedule[i].set.rates, threaded.schedule[i].set.rates);
    EXPECT_DOUBLE_EQ(single.schedule[i].time_share,
                     threaded.schedule[i].time_share);
  }
}

// ---------------------------------------------------------------------------
// Undeliverable backgrounds: the phase A Lagrangian certificate
// ---------------------------------------------------------------------------

/// One background-boundary instance: background flow 0 is the one whose
/// demand the sweep scales.
struct BoundaryCase {
  const char* name;
  const InterferenceModel* model;
  std::vector<LinkFlow> background;
  std::vector<net::LinkId> new_path;
  bool enumerable;  ///< the enumeration oracle fits the universe
};

AvailableBandwidthResult exact_only(const InterferenceModel& model,
                                    std::span<const LinkFlow> background,
                                    std::span<const net::LinkId> new_path) {
  const auto result =
      max_path_bandwidth(model, background, new_path, exact_only_options());
  EXPECT_TRUE(result.colgen.converged);
  EXPECT_TRUE(result.colgen.certified);
  return result;
}

/// Scale flow 0 to 0.5, 0.99, 1.01 and 2 times its largest deliverable rate
/// (given the other flows): the tiered solver must call the background
/// deliverable exactly below 1, agree with the reference solver (the
/// enumeration oracle where it fits, a converged exact-only run
/// elsewhere), and carry the certificate either way.
void sweep_background_boundary(const BoundaryCase& c) {
  SCOPED_TRACE(c.name);
  const std::vector<LinkFlow> others(c.background.begin() + 1,
                                     c.background.end());
  const auto capacity =
      c.enumerable
          ? reference_path_bandwidth(*c.model, others, c.background[0].links)
          : exact_only(*c.model, others, c.background[0].links);
  ASSERT_TRUE(capacity.background_feasible);
  ASSERT_GT(capacity.available_mbps, 0.0);
  for (double factor : {0.5, 0.99, 1.01, 2.0}) {
    SCOPED_TRACE(factor);
    std::vector<LinkFlow> background = c.background;
    background[0].demand_mbps = factor * capacity.available_mbps;
    const auto tiered = max_path_bandwidth(*c.model, background, c.new_path);
    EXPECT_TRUE(tiered.colgen.converged);
    EXPECT_TRUE(tiered.colgen.certified);
    EXPECT_EQ(tiered.background_feasible, factor < 1.0);
    const auto reference =
        c.enumerable
            ? reference_path_bandwidth(*c.model, background, c.new_path)
            : exact_only(*c.model, background, c.new_path);
    ASSERT_EQ(tiered.background_feasible, reference.background_feasible);
    if (reference.background_feasible) {
      EXPECT_NEAR(tiered.available_mbps, reference.available_mbps,
                  kParityTol);
    }
  }
}

TEST(BackgroundCertificate, BoundarySweepOnSeedScenarios) {
  ScenarioOne one = make_scenario_one(0.25);
  sweep_background_boundary(
      {"scenario I", &one.model, one.background, one.new_path, true});
  ScenarioTwo two = make_scenario_two();
  sweep_background_boundary(
      {"scenario II", &two.model, {{{0, 1}, 2.0}}, {2, 3}, true});
  const net::Network net(geom::chain(6, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> path = chain_links(net, 5);
  sweep_background_boundary({"physical 5-link chain",
                             &model,
                             {{{path[0], path[1]}, 3.0}},
                             {path.begin() + 2, path.end()},
                             true});
}

TEST(BackgroundCertificate, BoundarySweepBeyondEnumerationReach) {
  GridScenario grid = make_grid_scenario();
  PhysicalInterferenceModel grid_model(grid.net);
  sweep_background_boundary(
      {"grid", &grid_model, grid.background, grid.snake, false});

  // A six-hop background flow at the head of the 26-link chain, so phase A
  // has a multi-link schedule to prove or refute.
  const net::Network net(geom::chain(27, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel chain_model(net);
  const std::vector<net::LinkId> path = chain_links(net, 26);
  sweep_background_boundary(
      {"26-link chain",
       &chain_model,
       {{{path.begin(), path.begin() + 6}, 1.0}},
       path,
       false});
}

TEST(BackgroundCertificate, JointBandwidthUndeliverableBackground) {
  ScenarioTwo scenario = make_scenario_two();
  const std::vector<LinkFlow> background = {{{0, 1, 2, 3}, 54.0}};
  const std::vector<std::vector<net::LinkId>> paths = {{0, 1}, {2, 3}};
  for (JointObjective objective :
       {JointObjective::kMaxMin, JointObjective::kMaxSum}) {
    expect_joint_parity(scenario.model, background, paths, objective);
    const auto colgen =
        max_joint_bandwidth(scenario.model, background, paths, objective);
    EXPECT_FALSE(colgen.background_feasible);
    EXPECT_TRUE(colgen.colgen.converged);
    EXPECT_TRUE(colgen.colgen.certified);
    EXPECT_TRUE(colgen.per_path_mbps.empty());
  }

  // Beyond enumeration reach: the grid's upper background flow at twice
  // what it can carry, against two halves of the snake.
  GridScenario grid = make_grid_scenario();
  PhysicalInterferenceModel model(grid.net);
  const auto capacity =
      exact_only(model, std::span(&grid.background[1], 1),
                 grid.background[0].links);
  std::vector<LinkFlow> overloaded = grid.background;
  overloaded[0].demand_mbps = 2.0 * capacity.available_mbps;
  const std::vector<std::vector<net::LinkId>> halves = {
      {grid.snake.begin(), grid.snake.begin() + 12},
      {grid.snake.begin() + 12, grid.snake.end()}};
  const auto joint =
      max_joint_bandwidth(model, overloaded, halves, JointObjective::kMaxMin);
  EXPECT_FALSE(joint.background_feasible);
  EXPECT_TRUE(joint.colgen.converged);
  EXPECT_TRUE(joint.colgen.certified);
}

// ---------------------------------------------------------------------------
// Dual stabilization (Wentges smoothing)
// ---------------------------------------------------------------------------

ColumnGenStats colgen_stats(const InterferenceModel& model,
                            std::span<const LinkFlow> background,
                            std::span<const net::LinkId> new_path) {
  // Pinned to exact-only pricing: these stabilization tests pin round
  // counts of the reference pricing loop, which tiered pricing reshapes.
  const auto result =
      max_path_bandwidth(model, background, new_path, exact_only_options());
  EXPECT_TRUE(result.colgen.converged);
  return result.colgen;
}

TEST(ColumnGenerationStabilization, NoMoreRoundsThanUnstabilizedOnSeedScenarios) {
  // The smoothing warm-up keeps short solves on the exact-pricing path:
  // every seed scenario converges before a smoothed round runs, so none
  // can misprice.
  {
    ScenarioOne scenario = make_scenario_one(0.25);
    EXPECT_EQ(colgen_stats(scenario.model, scenario.background,
                           scenario.new_path)
                  .mispricings,
              0u);
  }
  {
    ScenarioTwo scenario = make_scenario_two();
    EXPECT_EQ(colgen_stats(scenario.model, {}, scenario.chain).mispricings,
              0u);
  }
}

TEST(ColumnGenerationStabilization, TailingOffBoundedOnLongChain) {
  // The 26-link chain is the tailing-off regression case: near the 36/5
  // optimum the master is heavily degenerate and unstabilized duals
  // oscillate (218 exact-only rounds, last measured when smoothing could
  // still be switched off). The round count is pinned exactly (alpha =
  // 0.3): every build compiles without floating-point contraction, so it
  // does not depend on the build.
  const net::Network net(geom::chain(27, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  std::vector<net::LinkId> path;
  for (std::size_t i = 0; i < 26; ++i) {
    const auto id = net.find_link(i, i + 1);
    ASSERT_TRUE(id.has_value());
    path.push_back(*id);
  }
  const std::vector<LinkFlow> background = {{{path[0]}, 1.0}};

  // Exact-only pricing: the pinned round count is a property of the
  // reference loop (tiered pricing changes it).
  const auto on =
      max_path_bandwidth(model, background, path, exact_only_options());

  ASSERT_TRUE(on.colgen.converged);
  EXPECT_NEAR(on.available_mbps, 36.0 / 5.0, 1e-3);
  EXPECT_EQ(on.colgen.rounds, 130u);
  EXPECT_GT(on.colgen.mispricings, 0u);  // smoothing actually engaged
}

TEST(ColumnGenerationStabilization, ExactOnlyRoundCountsOnGrid) {
  // Exact-only pricing on the grid: exact duals or smoothed ones every
  // round, each priced by the exact oracle, and a deterministic
  // round/column count (pinned so pricing-loop changes are a conscious
  // edit). This master is degenerate: each round offers several equally
  // optimal columns whose weights differ only by dual round-off, which
  // used to let the build's floating-point contraction pick the winner.
  // The exact oracle now breaks such ties canonically, the loop zeroes
  // round-off weights, and every build compiles without contraction.
  GridScenario scenario = make_grid_scenario();
  PhysicalInterferenceModel model(scenario.net);
  const auto result = max_path_bandwidth(model, scenario.background,
                                         scenario.snake, exact_only_options());
  EXPECT_TRUE(result.colgen.converged);
  EXPECT_EQ(result.colgen.rounds, 43u);
  EXPECT_EQ(result.colgen.columns, 69u);
  EXPECT_EQ(result.colgen.mispricings, 1u);
  // Exact-only rounds are all Tier 2 and the cheap tiers never fire.
  EXPECT_EQ(result.colgen.exact_rounds, result.colgen.rounds);
  EXPECT_EQ(result.colgen.pool_hit_columns, 0u);
  EXPECT_EQ(result.colgen.heuristic_columns, 0u);
}

// ---------------------------------------------------------------------------
// Tiered pricing (pool-first + heuristic multi-start + exact certificate)
// ---------------------------------------------------------------------------

/// Solve with the given options, assert convergence carried the exact
/// certificate, and return the optimum (-1 for infeasible backgrounds so
/// parity on the flag is still checked by the caller's EXPECT_NEAR).
double optimum_with_pricing(const InterferenceModel& model,
                            std::span<const LinkFlow> background,
                            std::span<const net::LinkId> new_path,
                            const ColumnGenOptions& options,
                            ColumnGenStats* stats = nullptr) {
  const auto result = max_path_bandwidth(model, background, new_path, options);
  EXPECT_TRUE(result.colgen.converged);
  // The optimality certificate: convergence was declared by an exact
  // (Tier 2) pricing round over the incumbent duals.
  EXPECT_TRUE(result.colgen.certified);
  EXPECT_GE(result.colgen.exact_rounds, 1u);
  if (stats != nullptr) *stats = result.colgen;
  return result.background_feasible ? result.available_mbps : -1.0;
}

TEST(TieredPricing, MatchesExactOnlyOnSeedScenarios) {
  for (double lambda : {0.1, 0.25, 0.4}) {
    ScenarioOne scenario = make_scenario_one(lambda);
    EXPECT_NEAR(optimum_with_pricing(scenario.model, scenario.background,
                                     scenario.new_path, ColumnGenOptions{}),
                optimum_with_pricing(scenario.model, scenario.background,
                                     scenario.new_path,
                                     exact_only_options()),
                kParityTol);
  }
  ScenarioTwo chain = make_scenario_two();
  EXPECT_NEAR(optimum_with_pricing(chain.model, {}, chain.chain,
                                   ColumnGenOptions{}),
              ScenarioTwo::kOptimalMbps, kParityTol);
  const std::vector<LinkFlow> chain_bg = {{{0, 1}, 2.0}};
  const std::vector<net::LinkId> chain_path = {2, 3};
  EXPECT_NEAR(optimum_with_pricing(chain.model, chain_bg, chain_path,
                                   ColumnGenOptions{}),
              optimum_with_pricing(chain.model, chain_bg, chain_path,
                                   exact_only_options()),
              kParityTol);

  const net::Network net(geom::chain(6, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> path = chain_links(net, 5);
  const std::vector<LinkFlow> background = {{{path[0], path[1]}, 3.0}};
  const std::vector<net::LinkId> new_path(path.begin() + 2, path.end());
  EXPECT_NEAR(optimum_with_pricing(model, background, new_path,
                                   ColumnGenOptions{}),
              optimum_with_pricing(model, background, new_path,
                                   exact_only_options()),
              kParityTol);
}

TEST(TieredPricing, MatchesExactOnlyBeyondEnumerationReach) {
  {
    GridScenario scenario = make_grid_scenario();
    PhysicalInterferenceModel model(scenario.net);
    ColumnGenStats tiered;
    EXPECT_NEAR(optimum_with_pricing(model, scenario.background,
                                     scenario.snake, ColumnGenOptions{},
                                     &tiered),
                optimum_with_pricing(model, scenario.background,
                                     scenario.snake, exact_only_options()),
                kParityTol);
    // The cheap tiers actually carry rounds on this universe: the exact
    // oracle runs strictly fewer times than the round count.
    EXPECT_GT(tiered.heuristic_columns, 0u);
    EXPECT_LT(tiered.exact_rounds, tiered.rounds);
  }
  {
    const net::Network net(geom::chain(27, 70.0),
                           phy::PhyModel::paper_default());
    PhysicalInterferenceModel model(net);
    const std::vector<net::LinkId> path = chain_links(net, 26);
    const std::vector<LinkFlow> background = {{{path[0]}, 1.0}};
    ColumnGenStats tiered;
    const double opt = optimum_with_pricing(
        model, background, path, ColumnGenOptions{}, &tiered);
    EXPECT_NEAR(opt, 36.0 / 5.0, 1e-3);
    EXPECT_LT(tiered.exact_rounds, tiered.rounds);
  }
}

/// Counters of one default-options (tiered) solve, pinned so that edits
/// to the pricing loop that move them are conscious.
struct DefaultLoopPin {
  std::size_t rounds, exact_rounds, columns, heuristic_columns,
      pool_hit_columns, mispricings;
  double available_mbps;
};

void expect_default_loop(const InterferenceModel& model,
                         std::span<const LinkFlow> background,
                         std::span<const net::LinkId> new_path,
                         const DefaultLoopPin& pin) {
  const auto result = max_path_bandwidth(model, background, new_path);
  EXPECT_TRUE(result.colgen.converged);
  EXPECT_TRUE(result.colgen.certified);
  EXPECT_EQ(result.colgen.rounds, pin.rounds);
  EXPECT_EQ(result.colgen.exact_rounds, pin.exact_rounds);
  EXPECT_EQ(result.colgen.columns, pin.columns);
  EXPECT_EQ(result.colgen.heuristic_columns, pin.heuristic_columns);
  EXPECT_EQ(result.colgen.pool_hit_columns, pin.pool_hit_columns);
  EXPECT_EQ(result.colgen.mispricings, pin.mispricings);
  EXPECT_EQ(result.available_mbps, pin.available_mbps);
}

TEST(TieredPricing, PinnedDefaultLoopGrid) {
  GridScenario scenario = make_grid_scenario();
  PhysicalInterferenceModel model(scenario.net);
  expect_default_loop(model, scenario.background, scenario.snake,
                      {27, 5, 86, 53, 1, 6, 2.5095541401273875});
}

TEST(TieredPricing, PinnedDefaultLoopLongChain) {
  const net::Network net(geom::chain(27, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> path = chain_links(net, 26);
  const std::vector<LinkFlow> background = {{{path[0]}, 1.0}};
  expect_default_loop(model, background, path,
                      {125, 30, 234, 161, 18, 31, 7.2000227091755216});
}

void expect_identical(const AvailableBandwidthResult& a,
                      const AvailableBandwidthResult& b) {
  EXPECT_EQ(a.background_feasible, b.background_feasible);
  EXPECT_DOUBLE_EQ(a.available_mbps, b.available_mbps);
  EXPECT_EQ(a.num_independent_sets, b.num_independent_sets);
  EXPECT_EQ(a.colgen.converged, b.colgen.converged);
  EXPECT_EQ(a.colgen.certified, b.colgen.certified);
  EXPECT_EQ(a.colgen.rounds, b.colgen.rounds);
  EXPECT_EQ(a.colgen.columns, b.colgen.columns);
  EXPECT_EQ(a.colgen.warm_starts, b.colgen.warm_starts);
  EXPECT_EQ(a.colgen.mispricings, b.colgen.mispricings);
  EXPECT_EQ(a.colgen.pool_hit_columns, b.colgen.pool_hit_columns);
  EXPECT_EQ(a.colgen.heuristic_columns, b.colgen.heuristic_columns);
  EXPECT_EQ(a.colgen.exact_rounds, b.colgen.exact_rounds);
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t s = 0; s < a.schedule.size(); ++s) {
    EXPECT_EQ(a.schedule[s].set.links, b.schedule[s].set.links);
    EXPECT_EQ(a.schedule[s].set.rates, b.schedule[s].set.rates);
    EXPECT_DOUBLE_EQ(a.schedule[s].time_share, b.schedule[s].time_share);
  }
}

TEST(TieredPricing, IdenticalAcrossThreadCounts) {
  // The Tier 1 multi-start and the exact oracle's root split fan out over
  // util::parallel_for; the whole solve — optimum, schedule, and every
  // per-tier counter — must be byte-identical at any MRWSN_THREADS. That
  // covers undeliverable backgrounds too, where the phase A certificate
  // decides the round phase A stops at, and one exact-only solve where
  // every round can fire it.
  GridScenario grid = make_grid_scenario();
  const net::Network chain_net(geom::chain(27, 70.0),
                               phy::PhyModel::paper_default());
  const std::vector<net::LinkId> chain = chain_links(chain_net, 26);

  struct Case {
    const char* name;
    const net::Network* net;
    std::vector<LinkFlow> background;
    std::vector<net::LinkId> new_path;
    ColumnGenOptions options;
    bool feasible;
  };
  std::vector<Case> cases = {
      {"grid", &grid.net, grid.background, grid.snake, ColumnGenOptions{},
       true}};
  {
    // Just past the boundary: flow 0 at 1.01x its largest deliverable rate.
    PhysicalInterferenceModel model(grid.net);
    const auto capacity =
        exact_only(model, std::span(&grid.background[1], 1),
                   grid.background[0].links);
    std::vector<LinkFlow> overloaded = grid.background;
    overloaded[0].demand_mbps = 1.01 * capacity.available_mbps;
    cases.push_back({"grid, undeliverable", &grid.net, overloaded, grid.snake,
                     ColumnGenOptions{}, false});
    cases.push_back({"grid, undeliverable, exact-only", &grid.net, overloaded,
                     grid.snake, exact_only_options(), false});
  }
  {
    PhysicalInterferenceModel model(chain_net);
    const std::vector<net::LinkId> head(chain.begin(), chain.begin() + 6);
    const auto capacity = exact_only(model, {}, head);
    cases.push_back({"26-link chain, undeliverable",
                     &chain_net,
                     {{head, 1.01 * capacity.available_mbps}},
                     chain,
                     ColumnGenOptions{},
                     false});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<AvailableBandwidthResult> results;
    for (const char* threads : {"1", "4", "8"}) {
      ThreadEnvGuard env(threads);
      PhysicalInterferenceModel model(*c.net);
      results.push_back(
          max_path_bandwidth(model, c.background, c.new_path, c.options));
    }
    EXPECT_EQ(results[0].background_feasible, c.feasible);
    EXPECT_TRUE(results[0].colgen.certified);
    for (std::size_t i = 1; i < results.size(); ++i)
      expect_identical(results[i], results[0]);
  }
}

TEST(ColumnGenerationOptions, EffortCapsReportNonConvergence) {
  GridScenario scenario = make_grid_scenario();
  PhysicalInterferenceModel grid_model(scenario.net);
  ColumnGenOptions grid_options;
  grid_options.max_rounds = 1;
  const auto result = max_path_bandwidth(grid_model, scenario.background,
                                         scenario.snake, grid_options);
  EXPECT_FALSE(result.colgen.converged);
  EXPECT_LE(result.colgen.rounds, 1u);

  // The same caps through AdmissionEngine's sequential query() and its
  // snapshot evaluate(), on the 11-hop path of a 12-node chain (exact
  // capacity 7.33 Mbps). A capped answer is a restricted master's optimum:
  // a schedulable lower bound that must not claim convergence. With 1 Mbps
  // of background on every hop the capped background master still
  // schedules it in about 0.31 airtime, so the background stays feasible.
  const net::Network net(geom::chain(12, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> path = chain_links(net, 11);
  for (const double bg_mbps : {0.0, 1.0}) {
    std::vector<LinkFlow> background;
    if (bg_mbps > 0.0) background.push_back({path, bg_mbps});
    const double exact =
        max_path_bandwidth(model, background, path).available_mbps;
    for (const std::size_t max_rounds : {0u, 1u, 2u}) {
      SCOPED_TRACE("background " + std::to_string(bg_mbps) + " Mbps, " +
                   std::to_string(max_rounds) + " rounds");
      ColumnGenOptions options;
      options.max_rounds = max_rounds;
      const auto one_shot =
          max_path_bandwidth(model, background, path, options);
      EXPECT_FALSE(one_shot.colgen.converged);
      EXPECT_LE(one_shot.colgen.rounds, max_rounds);

      AdmissionEngine engine(model, {options});
      for (const LinkFlow& flow : background) engine.add_background(flow);
      engine.snapshot();
      for (const AdmissionAnswer& answer :
           {engine.query(path, 0.5), engine.evaluate(path, 0.5)}) {
        EXPECT_TRUE(answer.background_feasible);
        EXPECT_FALSE(answer.converged);
        EXPECT_LE(answer.pricing_rounds, max_rounds);
        EXPECT_LT(answer.available_mbps, exact - 1e-6);
      }
    }
  }
}

}  // namespace
}  // namespace mrwsn::core
