#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/scaled_fig4.hpp"
#include "core/available_bandwidth.hpp"
#include "core/scenarios.hpp"
#include "geom/topology.hpp"
#include "grid_scenario.hpp"
#include "net/network.hpp"
#include "oracles/reference_eq6.hpp"
#include "routing/qos_router.hpp"

/// Phase A's decision — can the background alone be delivered? — must not
/// depend on how it was proved: the tiered solver (which may stop on the
/// oracle's root bound before any pricing) agrees with the enumeration
/// oracle (tests/oracles) wherever it fits and with exact-only pricing everywhere. A deliverable
/// background can never trip a Lagrangian lower bound (its optimum is 0),
/// so on those its rounds, exact rounds, columns and answer bits are
/// pinned to the values the solver reached before the root bound existed.
namespace mrwsn::core {
namespace {

/// What a deliverable background's tiered solve must reproduce.
struct Pin {
  std::size_t rounds;
  std::size_t exact_rounds;
  std::size_t columns;
  std::uint64_t answer_bits;  ///< available_mbps (total_mbps when joint)
};

struct DecisionCase {
  std::string name;
  const InterferenceModel* model;
  std::vector<LinkFlow> background;
  std::vector<std::vector<net::LinkId>> paths;  ///< one: Eq. 6; more: joint
  bool deliverable;
  std::optional<Pin> pin;  ///< deliverable cases only
};

std::size_t universe_size(const DecisionCase& c) {
  std::vector<net::LinkId> links;
  for (const auto& path : c.paths)
    links.insert(links.end(), path.begin(), path.end());
  for (const LinkFlow& flow : c.background)
    links.insert(links.end(), flow.links.begin(), flow.links.end());
  return canonical_universe(links).size();
}

/// The one solve a case asks for: single-path Eq. 6 for one path, the
/// max-min joint solve otherwise.
struct Solved {
  bool feasible;
  double mbps;
  ColumnGenStats colgen;
};

Solved solve(const DecisionCase& c, const ColumnGenOptions& options = {}) {
  if (c.paths.size() == 1) {
    const auto r =
        max_path_bandwidth(*c.model, c.background, c.paths[0], options);
    return {r.background_feasible, r.available_mbps, r.colgen};
  }
  const auto r = max_joint_bandwidth(*c.model, c.background, c.paths,
                                     JointObjective::kMaxMin, options);
  return {r.background_feasible, r.total_mbps, r.colgen};
}

void expect_decision(const DecisionCase& c) {
  SCOPED_TRACE(c.name);
  const Solved tiered = solve(c);
  EXPECT_TRUE(tiered.colgen.converged);
  EXPECT_TRUE(tiered.colgen.certified);
  EXPECT_EQ(tiered.feasible, c.deliverable);

  ColumnGenOptions exact_only;
  exact_only.heuristic_starts = 0;
  const Solved exact = solve(c, exact_only);
  EXPECT_TRUE(exact.colgen.certified);
  EXPECT_EQ(exact.feasible, tiered.feasible);
  if (universe_size(c) <= 16) {
    const bool enumerated =
        reference_joint_bandwidth(*c.model, c.background, c.paths,
                                  JointObjective::kMaxMin)
            .background_feasible;
    EXPECT_EQ(enumerated, tiered.feasible);
  }

  if (!c.deliverable) return;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(tiered.mbps);
  ASSERT_TRUE(c.pin.has_value())
      << "record: {" << tiered.colgen.rounds << ", "
      << tiered.colgen.exact_rounds << ", " << tiered.colgen.columns << ", 0x"
      << std::hex << bits << "}";
  EXPECT_EQ(tiered.colgen.rounds, c.pin->rounds);
  EXPECT_EQ(tiered.colgen.exact_rounds, c.pin->exact_rounds);
  EXPECT_EQ(tiered.colgen.columns, c.pin->columns);
  EXPECT_EQ(bits, c.pin->answer_bits) << tiered.mbps;
}

std::vector<net::LinkId> chain_links(const net::Network& net, std::size_t n) {
  std::vector<net::LinkId> path;
  for (std::size_t i = 0; i < n; ++i) path.push_back(*net.find_link(i, i + 1));
  return path;
}

TEST(PhaseADecision, ProtocolSeedScenarios) {
  const ScenarioOne one = make_scenario_one(0.25);
  const ScenarioTwo two = make_scenario_two();
  const std::vector<DecisionCase> cases = {
      {"scenario I", &one.model, one.background, {one.new_path}, true,
       Pin{2, 1, 4, 0x4044400000000000}},
      {"scenario I overloaded", &one.model, {{{0}, 60.0}}, {one.new_path},
       false, std::nullopt},
      {"scenario II, 2 Mbps on L1-L2", &two.model, {{{0, 1}, 2.0}}, {{2, 3}},
       true, Pin{2, 1, 5, 0x403a000000000001}},
      {"scenario II, 20 Mbps on L1-L2", &two.model, {{{0, 1}, 20.0}}, {{2, 3}},
       true, Pin{2, 1, 5, 0x4025000000000001}},
      {"scenario II, 30 Mbps on L1-L2", &two.model, {{{0, 1}, 30.0}}, {{2, 3}},
       false, std::nullopt},
      {"scenario II, 54 Mbps everywhere", &two.model, {{{0, 1, 2, 3}, 54.0}},
       {{0}}, false, std::nullopt},
      {"scenario II joint, 2 Mbps on L1", &two.model, {{{0}, 2.0}},
       {{1}, {2, 3}}, true, Pin{3, 2, 5, 0x40420000000225c2}},
      {"scenario II joint, 54 Mbps everywhere", &two.model,
       {{{0, 1, 2, 3}, 54.0}}, {{0, 1}, {2, 3}}, false, std::nullopt},
  };
  for (const DecisionCase& c : cases) expect_decision(c);
}

TEST(PhaseADecision, PhysicalChainsAndGrid) {
  const net::Network short_net(geom::chain(6, 70.0),
                               phy::PhyModel::paper_default());
  const PhysicalInterferenceModel short_model(short_net);
  const std::vector<net::LinkId> five = chain_links(short_net, 5);
  const std::vector<net::LinkId> tail(five.begin() + 2, five.end());

  const net::Network long_net(geom::chain(27, 70.0),
                              phy::PhyModel::paper_default());
  const PhysicalInterferenceModel long_model(long_net);
  const std::vector<net::LinkId> chain = chain_links(long_net, 26);
  const std::vector<net::LinkId> head(chain.begin(), chain.begin() + 6);

  const GridScenario grid = make_grid_scenario();
  const PhysicalInterferenceModel grid_model(grid.net);
  std::vector<LinkFlow> overloaded = grid.background;
  overloaded[0].demand_mbps = 30.0;
  const std::vector<net::LinkId> first(grid.snake.begin(),
                                       grid.snake.begin() + 12);
  const std::vector<net::LinkId> second(grid.snake.begin() + 12,
                                        grid.snake.end());

  const std::vector<DecisionCase> cases = {
      {"5-link chain, 3 Mbps", &short_model, {{{five[0], five[1]}, 3.0}},
       {tail}, true, Pin{2, 1, 8, 0x4028000000000000}},
      {"5-link chain, 30 Mbps", &short_model, {{{five[0], five[1]}, 30.0}},
       {tail}, false, std::nullopt},
      {"26-link chain, 1 Mbps on six hops", &long_model, {{head, 1.0}},
       {chain}, true, Pin{55, 4, 146, 0x401ab2e43dafcea5}},
      {"26-link chain, 12 Mbps on six hops", &long_model, {{head, 12.0}},
       {chain}, false, std::nullopt},
      {"grid", &grid_model, grid.background, {grid.snake}, true,
       Pin{27, 5, 86, 0x400413911efb1bb6}},
      {"grid, overloaded", &grid_model, overloaded, {grid.snake}, false,
       std::nullopt},
      {"grid joint", &grid_model, grid.background, {first, second}, true,
       Pin{33, 6, 86, 0x401413911efcb632}},
      {"grid joint, overloaded", &grid_model, overloaded, {first, second},
       false, std::nullopt},
  };
  for (const DecisionCase& c : cases) expect_decision(c);
}

TEST(PhaseADecision, ScaledFig4Study) {
  // The perfbench study's truth loop: each flow priced against the flows
  // routed before it, every one at its full 2 Mbps. Flow 1 carries only
  // 1.5 Mbps, so from flow 2 on every background is undeliverable.
  const auto setup = benchx::make_scaled_setup(4, 500, 8, 2.0, 12.0);
  const PhysicalInterferenceModel model(setup.network);
  routing::QosRouter router(setup.network, model);
  const std::vector<double> all_idle(setup.network.num_nodes(), 1.0);
  std::vector<LinkFlow> background;
  std::vector<DecisionCase> cases;
  for (const auto& request : setup.requests) {
    const auto path = router.find_path(request.src, request.dst,
                                       routing::Metric::kHopCount, all_idle);
    if (!path) continue;
    // Only flow 1 (no background) is deliverable.
    std::optional<Pin> pin;
    if (background.empty()) pin = Pin{4, 1, 25, 0x3ff7ffffffffffff};
    cases.push_back({"flow " + std::to_string(cases.size() + 1), &model,
                     background, {path->links()}, background.empty(), pin});
    background.push_back({path->links(), request.demand_mbps});
  }
  ASSERT_EQ(cases.size(), 8u);
  for (const DecisionCase& c : cases) expect_decision(c);
}

}  // namespace
}  // namespace mrwsn::core
