#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/admission_engine.hpp"
#include "core/scenarios.hpp"
#include "core/schedule.hpp"
#include "geom/topology.hpp"
#include "grid_scenario.hpp"
#include "net/network.hpp"
#include "oracles/reference_eq6.hpp"

/// AdmissionEngine::background_schedule() is the one minimum-airtime
/// schedule (Eqs. 2/4) the library computes; idle ratios are read from
/// it. It must reach the enumeration oracle's minimum airtime, deliver
/// every background demand within that airtime, and not depend on the
/// thread count.
namespace mrwsn::core {
namespace {

constexpr double kTol = 1e-6;

class ThreadEnvGuard {
 public:
  explicit ThreadEnvGuard(const char* value) {
    ::setenv("MRWSN_THREADS", value, 1);
  }
  ~ThreadEnvGuard() { ::unsetenv("MRWSN_THREADS"); }
};

AirtimeSchedule engine_schedule(const InterferenceModel& model,
                                const std::vector<LinkFlow>& background) {
  AdmissionEngine engine(model);
  for (const LinkFlow& flow : background) engine.add_background(flow);
  return engine.background_schedule();
}

void expect_matches_oracle(const InterferenceModel& model,
                           const std::vector<LinkFlow>& background,
                           const std::string& what) {
  SCOPED_TRACE(what);
  const AirtimeSchedule schedule = engine_schedule(model, background);
  const std::vector<double> demand = accumulate_link_demands(model, background);
  std::vector<net::LinkId> universe;
  for (const LinkFlow& flow : background)
    universe.insert(universe.end(), flow.links.begin(), flow.links.end());
  const auto reference =
      reference_min_airtime_schedule(model, universe, demand);
  ASSERT_TRUE(reference.has_value());
  EXPECT_NEAR(schedule.total_airtime, reference->total_airtime, kTol);

  // The entries deliver every demand within the reported airtime.
  ASSERT_FALSE(schedule.entries.empty());
  double shares = 0.0;
  for (const ScheduledSet& entry : schedule.entries) shares += entry.time_share;
  EXPECT_NEAR(shares, schedule.total_airtime, kTol);
  if (schedule.total_airtime <= 1.0) {
    const ScheduleCheck check =
        verify_schedule(model, schedule.entries, demand, kTol);
    EXPECT_TRUE(check.valid) << check.issue;
  }
}

std::vector<net::LinkId> chain_links(const net::Network& net, std::size_t n) {
  std::vector<net::LinkId> path;
  for (std::size_t i = 0; i < n; ++i) path.push_back(*net.find_link(i, i + 1));
  return path;
}

TEST(BackgroundSchedule, MatchesEnumerationOracleOnSeedScenarios) {
  for (const double lambda : {0.1, 0.25, 0.5}) {
    const ScenarioOne one = make_scenario_one(lambda);
    expect_matches_oracle(one.model, one.background,
                          "scenario I, lambda " + std::to_string(lambda));
  }
  const ScenarioTwo two = make_scenario_two();
  expect_matches_oracle(two.model, {{{0, 1}, 2.0}, {{2, 3}, 5.0}},
                        "scenario II");
  expect_matches_oracle(two.model, {{two.chain, 16.0}},
                        "scenario II, chain at 16 of 16.2 Mbps");

  const net::Network net(geom::chain(6, 70.0), phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> path = chain_links(net, 5);
  expect_matches_oracle(model,
                        {{{path[0], path[1]}, 3.0}, {{path[3], path[4]}, 4.0}},
                        "physical 5-link chain");
}

TEST(BackgroundSchedule, MatchesEnumerationOracleOnGrid) {
  // The grid's background plus its snake as one more background flow: the
  // 28-link universe of the column-generation grid tests.
  const GridScenario grid = make_grid_scenario();
  PhysicalInterferenceModel model(grid.net);
  std::vector<LinkFlow> background = grid.background;
  background.push_back({grid.snake, 1.0});
  expect_matches_oracle(model, background, "grid");
}

TEST(BackgroundSchedule, IdenticalAcrossThreadCounts) {
  const GridScenario grid = make_grid_scenario();
  std::vector<LinkFlow> background = grid.background;
  background.push_back({grid.snake, 1.0});
  std::vector<AirtimeSchedule> schedules;
  for (const char* threads : {"1", "4"}) {
    ThreadEnvGuard env(threads);
    PhysicalInterferenceModel model(grid.net);
    schedules.push_back(engine_schedule(model, background));
  }
  EXPECT_EQ(schedules[0].total_airtime, schedules[1].total_airtime);
  ASSERT_EQ(schedules[0].entries.size(), schedules[1].entries.size());
  for (std::size_t i = 0; i < schedules[0].entries.size(); ++i) {
    EXPECT_EQ(schedules[0].entries[i].set.links,
              schedules[1].entries[i].set.links);
    EXPECT_EQ(schedules[0].entries[i].set.rates,
              schedules[1].entries[i].set.rates);
    EXPECT_EQ(schedules[0].entries[i].time_share,
              schedules[1].entries[i].time_share);
  }
}

TEST(BackgroundSchedule, EmptyAndImpossibleBackgrounds) {
  const ScenarioTwo two = make_scenario_two();
  const AirtimeSchedule empty = engine_schedule(two.model, {});
  EXPECT_EQ(empty.total_airtime, 0.0);
  EXPECT_TRUE(empty.entries.empty());

  // Over unit airtime: still the minimum-airtime schedule, just infeasible.
  AdmissionEngine engine(two.model);
  engine.add_background({two.chain, 20.0});
  const AirtimeSchedule over = engine.background_schedule();
  EXPECT_FALSE(engine.background_feasible());
  EXPECT_NEAR(over.total_airtime, 20.0 / ScenarioTwo::kOptimalMbps, kTol);
}

}  // namespace
}  // namespace mrwsn::core
