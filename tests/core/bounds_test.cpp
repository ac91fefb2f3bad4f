#include "core/bounds.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/scaled_fig4.hpp"
#include "core/admission_engine.hpp"
#include "core/scenarios.hpp"
#include "geom/topology.hpp"
#include "grid_scenario.hpp"
#include "oracles/reference_eq6.hpp"
#include "routing/qos_router.hpp"
#include "util/error.hpp"

namespace mrwsn::core {
namespace {

constexpr double kTol = 1e-7;

TEST(RateAssignments, CountsMatchUsableRates) {
  const ScenarioTwo scenario = make_scenario_two();
  const auto assignments =
      enumerate_rate_assignments(scenario.model, scenario.chain);
  EXPECT_EQ(assignments.size(), 16u);  // 2^4
  for (const auto& a : assignments) EXPECT_EQ(a.size(), 4u);
}

TEST(RateAssignments, RespectsUsableRestrictions) {
  ScenarioTwo scenario = make_scenario_two();
  scenario.model.set_usable_rates(0, {1, 0});  // link 0: only 54
  const auto assignments =
      enumerate_rate_assignments(scenario.model, scenario.chain);
  EXPECT_EQ(assignments.size(), 8u);
  for (const auto& a : assignments) EXPECT_EQ(a[0], ScenarioTwo::kRate54);
}

TEST(RateAssignments, EnforcesLimit) {
  const ScenarioTwo scenario = make_scenario_two();
  EXPECT_THROW(enumerate_rate_assignments(scenario.model, scenario.chain, 15),
               PreconditionError);
}

TEST(FixedRateCliques, ScenarioTwoStructures) {
  const ScenarioTwo scenario = make_scenario_two();
  // All-54: every pair conflicts -> one clique of four links.
  const auto all54 = fixed_rate_maximal_cliques(
      scenario.model, scenario.chain, RateAssignment(4, ScenarioTwo::kRate54));
  ASSERT_EQ(all54.size(), 1u);
  EXPECT_EQ(all54[0].size(), 4u);
  // (36,54,54,54): L1 no longer conflicts with L4 -> {0,1,2} and {1,2,3}.
  RateAssignment mixed(4, ScenarioTwo::kRate54);
  mixed[0] = ScenarioTwo::kRate36;
  const auto two = fixed_rate_maximal_cliques(scenario.model, scenario.chain, mixed);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].size(), 3u);
  EXPECT_EQ(two[1].size(), 3u);
}

TEST(ReducedBound, UnlimitedCliquesMatchesFullBound) {
  const ScenarioTwo scenario = make_scenario_two();
  const auto full = clique_upper_bound(scenario.model, {}, scenario.chain);
  const auto reduced = clique_upper_bound_reduced(scenario.model, {},
                                                  scenario.chain, 1000);
  ASSERT_TRUE(full.background_feasible && reduced.background_feasible);
  EXPECT_NEAR(full.upper_bound_mbps, reduced.upper_bound_mbps, kTol);
}

TEST(ReducedBound, LoosensMonotonicallyAndStaysValid) {
  const ScenarioTwo scenario = make_scenario_two();
  const double optimum =
      max_path_bandwidth(scenario.model, {}, scenario.chain).available_mbps;
  const auto full = clique_upper_bound(scenario.model, {}, scenario.chain);
  double previous = full.upper_bound_mbps;
  for (std::size_t k : {3u, 2u, 1u}) {
    const auto reduced =
        clique_upper_bound_reduced(scenario.model, {}, scenario.chain, k);
    ASSERT_TRUE(reduced.background_feasible);
    // Fewer constraints -> weakly larger (looser) bound, never below the
    // true optimum or the full bound.
    EXPECT_GE(reduced.upper_bound_mbps + kTol, previous);
    EXPECT_GE(reduced.upper_bound_mbps + kTol, optimum);
    previous = reduced.upper_bound_mbps;
  }
}

TEST(ReducedBound, StaysFiniteWithOneCliquePerVector) {
  const ScenarioTwo scenario = make_scenario_two();
  const auto reduced =
      clique_upper_bound_reduced(scenario.model, {}, scenario.chain, 1);
  ASSERT_TRUE(reduced.background_feasible);
  // Rate caps keep every link at <= 54.
  EXPECT_LE(reduced.upper_bound_mbps, 54.0 + kTol);
}

TEST(ReducedBound, RejectsZeroCliques) {
  const ScenarioTwo scenario = make_scenario_two();
  EXPECT_THROW(
      clique_upper_bound_reduced(scenario.model, {}, scenario.chain, 0),
      PreconditionError);
}

TEST(UpperBound, PhysicalChainBoundsTheLpOptimum) {
  // 3-link chain: 3 usable rates per 70 m link -> 27 rate vectors. (The
  // 4-link variant has 81 vectors and a much larger LP; Eq. 9 is
  // exponential by design, as the paper notes.)
  const net::Network net(geom::chain(4, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  std::vector<net::LinkId> path;
  for (std::size_t i = 0; i < 3; ++i) path.push_back(*net.find_link(i, i + 1));
  const double optimum = path_capacity(model, path);
  const auto bound = clique_upper_bound(model, {}, path, 1u << 12);
  ASSERT_TRUE(bound.background_feasible);
  EXPECT_EQ(bound.num_rate_vectors, 27u);
  EXPECT_GE(bound.upper_bound_mbps + kTol, optimum);
}

TEST(UpperBound, WithBackgroundStillAboveOptimum) {
  const ScenarioTwo scenario = make_scenario_two();
  const std::vector<LinkFlow> background{LinkFlow{{1}, 10.8}};
  const double optimum =
      max_path_bandwidth(scenario.model, background, scenario.chain)
          .available_mbps;
  const auto bound =
      clique_upper_bound(scenario.model, background, scenario.chain);
  ASSERT_TRUE(bound.background_feasible);
  EXPECT_GE(bound.upper_bound_mbps + kTol, optimum);
}

TEST(LowerBound, FullSubsetMatchesOptimum) {
  const ScenarioTwo scenario = make_scenario_two();
  const auto bound =
      independent_set_lower_bound(scenario.model, {}, scenario.chain, 1000);
  ASSERT_TRUE(bound.feasible);
  EXPECT_EQ(bound.sets_used, 4u);
  EXPECT_NEAR(bound.lower_bound_mbps, ScenarioTwo::kOptimalMbps, kTol);
}

TEST(LowerBound, MonotoneInSubsetSizeAndNeverAboveOptimum) {
  const ScenarioTwo scenario = make_scenario_two();
  const double optimum =
      max_path_bandwidth(scenario.model, {}, scenario.chain).available_mbps;
  double previous = 0.0;
  for (std::size_t k = 1; k <= 4; ++k) {
    const auto bound =
        independent_set_lower_bound(scenario.model, {}, scenario.chain, k);
    if (!bound.feasible) continue;  // too few sets to serve every link
    EXPECT_LE(bound.lower_bound_mbps, optimum + kTol);
    EXPECT_GE(bound.lower_bound_mbps + kTol, previous);
    previous = bound.lower_bound_mbps;
  }
  EXPECT_NEAR(previous, optimum, kTol);
}

TEST(LowerBound, TinySubsetDegradesToZeroWithoutBackground) {
  // One set cannot cover all four chain links, so f is forced to 0 — a
  // valid (if useless) lower bound.
  const ScenarioTwo scenario = make_scenario_two();
  const auto bound =
      independent_set_lower_bound(scenario.model, {}, scenario.chain, 1);
  ASSERT_TRUE(bound.feasible);
  EXPECT_NEAR(bound.lower_bound_mbps, 0.0, kTol);
}

TEST(LowerBound, TooFewSetsForBackgroundReportsInfeasible) {
  // With background demand on L2 and only the top-throughput set kept
  // (the {L1@36, L4@54} pair, which does not cover L2), the restricted
  // LP cannot deliver the background at all.
  const ScenarioTwo scenario = make_scenario_two();
  const std::vector<LinkFlow> background{LinkFlow{{1}, 10.0}};
  const auto bound =
      independent_set_lower_bound(scenario.model, background, scenario.chain, 1);
  EXPECT_FALSE(bound.feasible);
}

/// Single-path Eq. 6 is the joint LP with one path under max-sum, solved
/// by the same routine: the two entry points must agree bit for bit, and
/// reach the enumeration oracle's optimum.
void expect_single_path_is_joint(const InterferenceModel& model,
                                 const std::vector<LinkFlow>& background,
                                 const std::vector<net::LinkId>& path,
                                 const std::string& what) {
  SCOPED_TRACE(what);
  const auto single = max_path_bandwidth(model, background, path);
  const std::vector<std::vector<net::LinkId>> paths{path};
  const auto joint = max_joint_bandwidth(model, background, paths,
                                         JointObjective::kMaxSum);
  ASSERT_TRUE(single.background_feasible);
  ASSERT_TRUE(joint.background_feasible);
  ASSERT_EQ(joint.per_path_mbps.size(), 1u);
  EXPECT_GT(single.available_mbps, 0.0);
  EXPECT_EQ(single.available_mbps, joint.per_path_mbps[0]);
  EXPECT_EQ(single.available_mbps, joint.total_mbps);
  ASSERT_EQ(single.schedule.size(), joint.schedule.size());
  for (std::size_t i = 0; i < single.schedule.size(); ++i) {
    EXPECT_EQ(single.schedule[i].set.links, joint.schedule[i].set.links);
    EXPECT_EQ(single.schedule[i].set.rates, joint.schedule[i].set.rates);
    EXPECT_EQ(single.schedule[i].set.mbps, joint.schedule[i].set.mbps);
    EXPECT_EQ(single.schedule[i].time_share, joint.schedule[i].time_share);
  }
  EXPECT_EQ(single.num_independent_sets, joint.num_independent_sets);
  const ColumnGenStats& a = single.colgen;
  const ColumnGenStats& b = joint.colgen;
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.columns, b.columns);
  EXPECT_EQ(a.warm_starts, b.warm_starts);
  EXPECT_EQ(a.mispricings, b.mispricings);
  EXPECT_EQ(a.pool_hit_columns, b.pool_hit_columns);
  EXPECT_EQ(a.heuristic_columns, b.heuristic_columns);
  EXPECT_EQ(a.exact_rounds, b.exact_rounds);
  EXPECT_EQ(a.certified, b.certified);
  const auto reference = reference_path_bandwidth(model, background, path);
  ASSERT_TRUE(reference.background_feasible);
  EXPECT_NEAR(single.available_mbps, reference.available_mbps, 1e-6);
}

TEST(JointBandwidth, SinglePathMatchesEqSix) {
  const ScenarioTwo scenario = make_scenario_two();
  const std::vector<std::vector<net::LinkId>> paths{scenario.chain};
  const auto joint = max_joint_bandwidth(scenario.model, {}, paths);
  ASSERT_TRUE(joint.background_feasible);
  ASSERT_EQ(joint.per_path_mbps.size(), 1u);
  EXPECT_NEAR(joint.per_path_mbps[0], ScenarioTwo::kOptimalMbps, kTol);

  const GridScenario grid = make_grid_scenario();
  const PhysicalInterferenceModel grid_model(grid.net);
  expect_single_path_is_joint(scenario.model, {}, scenario.chain,
                              "Scenario II");
  expect_single_path_is_joint(grid_model, grid.background, grid.snake, "grid");
  // The first flow of the scaled Fig. 4 study: no flow is routed before
  // it, so its background is empty.
  for (const std::uint64_t seed : {3u, 4u}) {
    const auto setup = benchx::make_scaled_setup(seed, 500, 8, 2.0, 12.0);
    const PhysicalInterferenceModel model(setup.network);
    routing::QosRouter router(setup.network, model);
    const std::vector<double> all_idle(setup.network.num_nodes(), 1.0);
    const auto& request = setup.requests.front();
    const auto path = router.find_path(request.src, request.dst,
                                       routing::Metric::kHopCount, all_idle);
    ASSERT_TRUE(path.has_value());
    expect_single_path_is_joint(model, {}, path->links(),
                                "scaled Fig. 4, seed " + std::to_string(seed));
  }
}

TEST(JointBandwidth, MaxMinSplitsSymmetricDemandsEvenly) {
  // Scenario I: the two non-interfering links share nothing; a third
  // conflicting link is the new chain? Use two single-link paths over the
  // conflicting pair of Scenario I (L1 vs L3 conflict; L2 vs L3 conflict).
  ScenarioOne scenario = make_scenario_one(0.0);
  const std::vector<std::vector<net::LinkId>> paths{{0}, {2}};  // L1 and L3
  const auto joint = max_joint_bandwidth(scenario.model, {}, paths,
                                         JointObjective::kMaxMin);
  ASSERT_TRUE(joint.background_feasible);
  // L1 and L3 conflict: they split the channel 27/27.
  EXPECT_NEAR(joint.per_path_mbps[0], 27.0, kTol);
  EXPECT_NEAR(joint.per_path_mbps[1], 27.0, kTol);
}

TEST(JointBandwidth, MaxSumCanStarveOneFlow) {
  // Paths {L1} and {L1, L3}: the second path consumes both links, so the
  // sum objective puts everything on the cheaper single-link path.
  ScenarioOne scenario = make_scenario_one(0.0);
  const std::vector<std::vector<net::LinkId>> paths{{0}, {0, 2}};
  const auto sum = max_joint_bandwidth(scenario.model, {}, paths,
                                       JointObjective::kMaxSum);
  ASSERT_TRUE(sum.background_feasible);
  EXPECT_NEAR(sum.total_mbps, 54.0, kTol);
  EXPECT_NEAR(sum.per_path_mbps[1], 0.0, kTol);
  // Max-min shares instead.
  const auto fair = max_joint_bandwidth(scenario.model, {}, paths,
                                        JointObjective::kMaxMin);
  ASSERT_TRUE(fair.background_feasible);
  EXPECT_GT(fair.per_path_mbps[1], 1.0);
  EXPECT_NEAR(fair.per_path_mbps[0], fair.per_path_mbps[1], 1e-3);
}

TEST(JointBandwidth, RespectsBackgroundDemands) {
  const ScenarioTwo scenario = make_scenario_two();
  const std::vector<LinkFlow> background{LinkFlow{{1}, 10.8}};
  const std::vector<std::vector<net::LinkId>> paths{{0}, {3}};
  const auto joint = max_joint_bandwidth(scenario.model, background, paths);
  ASSERT_TRUE(joint.background_feasible);
  // The schedule must still deliver the background.
  double delivered_on_l2 = 0.0;
  for (const ScheduledSet& entry : joint.schedule)
    delivered_on_l2 += entry.time_share * entry.set.mbps_on(1);
  EXPECT_GE(delivered_on_l2 + kTol, 10.8);
}

TEST(JointBandwidth, InfeasibleBackground) {
  const ScenarioTwo scenario = make_scenario_two();
  const std::vector<LinkFlow> background{LinkFlow{{1}, 60.0}};
  const std::vector<std::vector<net::LinkId>> paths{{0}};
  const auto joint = max_joint_bandwidth(scenario.model, background, paths);
  EXPECT_FALSE(joint.background_feasible);
}

TEST(JointBandwidth, RejectsEmptyInputs) {
  const ScenarioTwo scenario = make_scenario_two();
  EXPECT_THROW(max_joint_bandwidth(scenario.model, {}, {}), PreconditionError);
  const std::vector<std::vector<net::LinkId>> bad{{}};
  EXPECT_THROW(max_joint_bandwidth(scenario.model, {}, bad), PreconditionError);
}

TEST(JointBandwidth, EveryEntryPointRejectsARepeatedLink) {
  // {0, 1, 0} uses link 0 twice. Counting that use once (27 Mbps) or
  // twice (18 Mbps) would each be a guess; every Eq. 6 entry point
  // refuses the path instead.
  const ScenarioTwo scenario = make_scenario_two();
  const std::vector<net::LinkId> path{0, 1, 0};
  const std::vector<std::vector<net::LinkId>> paths{path};
  EXPECT_THROW(max_path_bandwidth(scenario.model, {}, path), PreconditionError);
  EXPECT_THROW(max_joint_bandwidth(scenario.model, {}, paths),
               PreconditionError);
  AdmissionEngine engine(scenario.model);
  EXPECT_THROW(engine.query(path, 1.0), PreconditionError);
}

TEST(UpperBound, InfeasibleBackgroundReported) {
  const ScenarioTwo scenario = make_scenario_two();
  const std::vector<LinkFlow> background{LinkFlow{{1}, 60.0}};
  const auto bound =
      clique_upper_bound(scenario.model, background, scenario.chain);
  EXPECT_FALSE(bound.background_feasible);
}

}  // namespace
}  // namespace mrwsn::core
