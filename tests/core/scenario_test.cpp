#include "core/scenarios.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/admission_engine.hpp"
#include "core/available_bandwidth.hpp"
#include "core/bounds.hpp"
#include "core/clique.hpp"
#include "util/error.hpp"

namespace mrwsn::core {
namespace {

constexpr double kTol = 1e-7;

// ---------------------------------------------------------------------------
// Scenario I (Fig. 1): optimal scheduling overlaps the two background
// flows, so the new link gets 1 - λ; idle-time sensing only sees 1 - 2λ.
// ---------------------------------------------------------------------------

class ScenarioOneSweep : public ::testing::TestWithParam<double> {};

TEST_P(ScenarioOneSweep, OptimalAvailableBandwidthIsOneMinusLambda) {
  const double lambda = GetParam();
  ScenarioOne scenario = make_scenario_one(lambda);
  const auto result =
      max_path_bandwidth(scenario.model, scenario.background, scenario.new_path);
  ASSERT_TRUE(result.background_feasible);
  EXPECT_NEAR(result.available_mbps, scenario.expected_optimal_mbps(), kTol);
  EXPECT_NEAR(result.available_mbps, (1.0 - lambda) * 54.0, kTol);
}

TEST_P(ScenarioOneSweep, IdleEstimateIsPessimisticByLambda) {
  const double lambda = GetParam();
  const ScenarioOne scenario = make_scenario_one(lambda);
  EXPECT_NEAR(scenario.idle_time_estimate_mbps(),
              std::max(0.0, 1.0 - 2.0 * lambda) * 54.0, kTol);
  // The idle estimate never exceeds the optimum, and is strictly worse
  // whenever there is background traffic at all.
  EXPECT_LE(scenario.idle_time_estimate_mbps(),
            scenario.expected_optimal_mbps() + kTol);
  if (lambda > 0.0) {
    EXPECT_LT(scenario.idle_time_estimate_mbps(), scenario.expected_optimal_mbps());
  }
}

INSTANTIATE_TEST_SUITE_P(LambdaSweep, ScenarioOneSweep,
                         ::testing::Values(0.0, 0.1, 0.2, 0.3, 0.4, 0.5));

TEST(ScenarioOne, MaximalIndependentSetsAreThePairAndTheSolo) {
  const ScenarioOne scenario = make_scenario_one(0.2);
  const auto sets = scenario.model.maximal_independent_sets({{0, 1, 2}});
  ASSERT_EQ(sets.size(), 2u);
  // One set must be {L1, L2} together, the other {L3} alone.
  const auto pair = std::find_if(sets.begin(), sets.end(),
                                 [](const IndependentSet& s) { return s.size() == 2; });
  ASSERT_NE(pair, sets.end());
  EXPECT_EQ(pair->links, (std::vector<net::LinkId>{0, 1}));
  const auto solo = std::find_if(sets.begin(), sets.end(),
                                 [](const IndependentSet& s) { return s.size() == 1; });
  ASSERT_NE(solo, sets.end());
  EXPECT_EQ(solo->links, (std::vector<net::LinkId>{2}));
}

TEST(ScenarioOne, BackgroundAloneIsFeasible) {
  const ScenarioOne scenario = make_scenario_one(0.5);
  AdmissionEngine engine(scenario.model);
  for (const LinkFlow& flow : scenario.background) engine.add_background(flow);
  EXPECT_TRUE(engine.background_feasible());
}

TEST(ScenarioOne, RejectsOutOfRangeLambda) {
  EXPECT_THROW(make_scenario_one(-0.1), PreconditionError);
  EXPECT_THROW(make_scenario_one(0.6), PreconditionError);
}

// ---------------------------------------------------------------------------
// Scenario II (Fig. 1 + Sections 3.1 and 5.1): the four-link chain.
// ---------------------------------------------------------------------------

class ScenarioTwoTest : public ::testing::Test {
 protected:
  ScenarioTwo scenario_ = make_scenario_two();
};

TEST_F(ScenarioTwoTest, MaximalIndependentSetsMatchThePaper) {
  const auto sets = scenario_.model.maximal_independent_sets({{0, 1, 2, 3}});
  // {L1@54}, {L2@54}, {L3@54}, {(L1@36),(L4@54)}.
  ASSERT_EQ(sets.size(), 4u);
  int singletons_at_54 = 0;
  bool found_pair = false;
  for (const IndependentSet& s : sets) {
    if (s.size() == 1) {
      EXPECT_DOUBLE_EQ(s.mbps[0], 54.0);
      ++singletons_at_54;
    } else {
      ASSERT_EQ(s.size(), 2u);
      EXPECT_EQ(s.links, (std::vector<net::LinkId>{0, 3}));
      EXPECT_DOUBLE_EQ(s.mbps_on(0), 36.0);
      EXPECT_DOUBLE_EQ(s.mbps_on(3), 54.0);
      found_pair = true;
    }
  }
  EXPECT_EQ(singletons_at_54, 3);
  EXPECT_TRUE(found_pair);
}

TEST_F(ScenarioTwoTest, OptimalEndToEndThroughputIs16Point2) {
  const auto result = max_path_bandwidth(scenario_.model, {}, scenario_.chain);
  ASSERT_TRUE(result.background_feasible);
  EXPECT_NEAR(result.available_mbps, ScenarioTwo::kOptimalMbps, kTol);
}

TEST_F(ScenarioTwoTest, OptimalScheduleMatchesThePaper) {
  // S = {λ=0.1 {L1@54}, λ=0.3 {L2@54}, λ=0.3 {L3@54}, λ=0.3 {(L1@36),(L4@54)}}.
  const auto result = max_path_bandwidth(scenario_.model, {}, scenario_.chain);
  ASSERT_EQ(result.schedule.size(), 4u);
  double total = 0.0;
  for (const ScheduledSet& entry : result.schedule) {
    total += entry.time_share;
    if (entry.set.size() == 2) {
      EXPECT_NEAR(entry.time_share, 0.3, kTol);
    } else if (entry.set.links[0] == 0) {
      EXPECT_NEAR(entry.time_share, 0.1, kTol);  // L1 alone at 54
    } else {
      EXPECT_NEAR(entry.time_share, 0.3, kTol);  // L2 or L3 alone
    }
  }
  EXPECT_NEAR(total, 1.0, kTol);
}

TEST_F(ScenarioTwoTest, ScheduleDeliversEqualThroughputOnEveryLink) {
  const auto result = max_path_bandwidth(scenario_.model, {}, scenario_.chain);
  for (net::LinkId link = 0; link < 4; ++link) {
    double delivered = 0.0;
    for (const ScheduledSet& entry : result.schedule)
      delivered += entry.time_share * entry.set.mbps_on(link);
    EXPECT_NEAR(delivered, ScenarioTwo::kOptimalMbps, kTol) << "link " << link;
  }
}

TEST_F(ScenarioTwoTest, PaperCliqueExamplesHoldVerbatim) {
  // Section 3.1's worked examples.
  const auto& m = scenario_.model;
  // {(L1,54),(L2,54),(L3,54)} is a clique but not maximal (L4@54 extends it).
  const std::vector<net::LinkId> l123{0, 1, 2};
  const std::vector<phy::RateIndex> all54{ScenarioTwo::kRate54,
                                          ScenarioTwo::kRate54,
                                          ScenarioTwo::kRate54};
  EXPECT_TRUE(is_clique(m, l123, all54));
  // {(L1,36),(L2,36),(L3,36)} is a clique (and a maximal one).
  const std::vector<phy::RateIndex> all36{ScenarioTwo::kRate36,
                                          ScenarioTwo::kRate36,
                                          ScenarioTwo::kRate36};
  EXPECT_TRUE(is_clique(m, l123, all36));
  // {(L1,36),(L4,54)} is NOT a clique — they do not interfere.
  EXPECT_FALSE(is_clique(m, std::vector<net::LinkId>{0, 3},
                         std::vector<phy::RateIndex>{ScenarioTwo::kRate36,
                                                     ScenarioTwo::kRate54}));
}

TEST_F(ScenarioTwoTest, MaximalCliquesWithMaxRatesAreExactlyThePapersTwo) {
  const auto cliques =
      maximal_cliques_with_max_rates(scenario_.model, scenario_.chain);
  ASSERT_EQ(cliques.size(), 2u);
  for (const Clique& c : cliques) {
    if (c.size() == 4) {
      // {(L1,54),(L2,54),(L3,54),(L4,54)}
      for (double mbps : c.mbps) EXPECT_DOUBLE_EQ(mbps, 54.0);
    } else {
      // {(L1,36),(L2,54),(L3,54)}
      ASSERT_EQ(c.size(), 3u);
      EXPECT_EQ(c.links, (std::vector<net::LinkId>{0, 1, 2}));
      EXPECT_DOUBLE_EQ(c.mbps[0], 36.0);
      EXPECT_DOUBLE_EQ(c.mbps[1], 54.0);
      EXPECT_DOUBLE_EQ(c.mbps[2], 54.0);
    }
  }
}

TEST_F(ScenarioTwoTest, CliqueTimeSharesExceedOneAtTheOptimum) {
  // Section 5.1: Σ y/R = 1.2 for C1 and 1.05 for C2 at y = 16.2 — the
  // clique constraint is violated by a feasible throughput vector.
  const std::vector<double> demand(4, ScenarioTwo::kOptimalMbps);
  const auto cliques =
      maximal_cliques_with_max_rates(scenario_.model, scenario_.chain);
  ASSERT_EQ(cliques.size(), 2u);
  for (const Clique& c : cliques) {
    const double t = clique_time_share(c, demand);
    if (c.size() == 4) {
      EXPECT_NEAR(t, 1.2, kTol);
    } else {
      EXPECT_NEAR(t, 1.05, kTol);
    }
    EXPECT_GT(t, 1.0);
  }
  EXPECT_NEAR(max_clique_time_share(cliques, demand), 1.2, kTol);
}

TEST_F(ScenarioTwoTest, FixedRateBoundsMatchThePaper) {
  // Eq. 7: 13.5 for R1 = (54,54,54,54) and 108/7 for R2 = (36,54,54,54).
  const RateAssignment r1(4, ScenarioTwo::kRate54);
  EXPECT_NEAR(fixed_rate_equal_throughput_bound(scenario_.model, scenario_.chain, r1),
              13.5, kTol);
  RateAssignment r2 = r1;
  r2[0] = ScenarioTwo::kRate36;
  EXPECT_NEAR(fixed_rate_equal_throughput_bound(scenario_.model, scenario_.chain, r2),
              108.0 / 7.0, kTol);
  // Both fixed-rate bounds are beaten by link adaptation (f = 16.2).
  EXPECT_LT(13.5, ScenarioTwo::kOptimalMbps);
  EXPECT_LT(108.0 / 7.0, ScenarioTwo::kOptimalMbps);
}

TEST_F(ScenarioTwoTest, HypothesisEightIsRefuted) {
  // min over all rate vectors of the max clique time share at y = 16.2
  // must exceed 1 (the paper's counterexample yields 1.05).
  const std::vector<double> demand(4, ScenarioTwo::kOptimalMbps);
  const double value =
      hypothesis_min_max_clique_time(scenario_.model, scenario_.chain, demand);
  EXPECT_NEAR(value, 1.05, kTol);
  EXPECT_GT(value, 1.0);
}

TEST_F(ScenarioTwoTest, EqNineUpperBoundIsValidAndAboveOptimum) {
  const UpperBoundResult bound =
      clique_upper_bound(scenario_.model, {}, scenario_.chain);
  ASSERT_TRUE(bound.background_feasible);
  EXPECT_EQ(bound.num_rate_vectors, 16u);  // 2 rates ^ 4 links
  EXPECT_GE(bound.upper_bound_mbps, ScenarioTwo::kOptimalMbps - kTol);
  // It must also be a finite, sane bound (no link can exceed 54).
  EXPECT_LE(bound.upper_bound_mbps, 54.0 + kTol);
}

TEST_F(ScenarioTwoTest, FixedRateSchedulingIsStrictlyWorse) {
  // Restricting every link to a single fixed rate can never reach 16.2:
  // try both pure assignments via usable-rate restriction.
  for (phy::RateIndex fixed : {ScenarioTwo::kRate54, ScenarioTwo::kRate36}) {
    ScenarioTwo s = make_scenario_two();
    for (net::LinkId link = 0; link < 4; ++link) {
      std::vector<char> usable(2, 0);
      usable[fixed] = 1;
      s.model.set_usable_rates(link, usable);
    }
    const auto result = max_path_bandwidth(s.model, {}, s.chain);
    ASSERT_TRUE(result.background_feasible);
    EXPECT_LT(result.available_mbps, ScenarioTwo::kOptimalMbps - 0.5);
  }
}

TEST_F(ScenarioTwoTest, BackgroundTrafficReducesAvailableBandwidth) {
  // A background flow over L2 with demand 10.8 (= 0.2 * 54) occupies time
  // share 0.2 of the bottleneck clique; the chain should lose exactly the
  // bandwidth that share would have produced.
  const std::vector<LinkFlow> background{LinkFlow{{1}, 10.8}};
  const auto result =
      max_path_bandwidth(scenario_.model, background, scenario_.chain);
  ASSERT_TRUE(result.background_feasible);
  EXPECT_LT(result.available_mbps, ScenarioTwo::kOptimalMbps);
  EXPECT_GT(result.available_mbps, 0.0);
}

TEST_F(ScenarioTwoTest, InfeasibleBackgroundIsReported) {
  const std::vector<LinkFlow> background{LinkFlow{{1}, 60.0}};  // > 54 max
  const auto result =
      max_path_bandwidth(scenario_.model, background, scenario_.chain);
  EXPECT_FALSE(result.background_feasible);
  EXPECT_DOUBLE_EQ(result.available_mbps, 0.0);
}

}  // namespace
}  // namespace mrwsn::core
