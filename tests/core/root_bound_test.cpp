#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/scaled_fig4.hpp"
#include "core/interference.hpp"
#include "core/scenarios.hpp"
#include "geom/topology.hpp"
#include "net/network.hpp"
#include "phy/phy_model.hpp"
#include "routing/qos_router.hpp"
#include "util/rng.hpp"

/// InterferenceModel::max_weight_upper_bound must never fall below the exact
/// oracle's max_weight: column generation's phase A certifies an
/// undeliverable background from it with no search, so a bound below the
/// true maximum would turn a deliverable background into a wrong "no".
namespace mrwsn::core {
namespace {

/// Forwards everything to a concrete model except max_weight_upper_bound,
/// so the base class's default answers it.
class DefaultBoundModel final : public InterferenceModel {
 public:
  explicit DefaultBoundModel(const InterferenceModel& inner) : inner_(inner) {}

  std::size_t num_links() const override { return inner_.num_links(); }
  const phy::RateTable& rate_table() const override {
    return inner_.rate_table();
  }
  std::optional<phy::RateIndex> max_rate_alone(net::LinkId l) const override {
    return inner_.max_rate_alone(l);
  }
  bool usable_alone(net::LinkId l, phy::RateIndex r) const override {
    return inner_.usable_alone(l, r);
  }
  bool interferes(net::LinkId a, phy::RateIndex ra, net::LinkId b,
                  phy::RateIndex rb) const override {
    return inner_.interferes(a, ra, b, rb);
  }
  bool supports(std::span<const net::LinkId> links,
                std::span<const phy::RateIndex> rates) const override {
    return inner_.supports(links, rates);
  }
  std::vector<IndependentSet> maximal_independent_sets(
      std::span<const net::LinkId> universe) const override {
    return inner_.maximal_independent_sets(universe);
  }
  MaxWeightSetResult max_weight_independent_set(
      std::span<const net::LinkId> universe, std::span<const double> weight,
      double floor) const override {
    return inner_.max_weight_independent_set(universe, weight, floor);
  }
  MaxWeightSetResult heuristic_max_weight_independent_set(
      std::span<const net::LinkId> universe, std::span<const double> weight,
      double floor, std::size_t starts) const override {
    return inner_.heuristic_max_weight_independent_set(universe, weight, floor,
                                                       starts);
  }

 private:
  const InterferenceModel& inner_;
};

/// The weight vectors every universe is probed with, `rounds` times over:
/// random, random with zeros, a few tied values, and random scaled by
/// 1e-12; then all zero and all tied.
std::vector<std::vector<double>> probe_weights(std::size_t n,
                                               std::uint64_t seed,
                                               int rounds) {
  Rng rng(seed);
  std::vector<std::vector<double>> out;
  for (int round = 0; round < rounds; ++round) {
    std::vector<double> w(n);
    for (double& x : w) x = rng.uniform(0.0, 1.0);
    out.push_back(w);
    for (double& x : w)
      if (rng.uniform() < 0.4) x = 0.0;
    out.push_back(w);
    for (double& x : w) x = 0.25 * double(rng.uniform_int(0, 3));
    out.push_back(w);
    std::vector<double> tiny(n);
    for (double& x : tiny) x = 1e-12 * rng.uniform(0.0, 1.0);
    out.push_back(tiny);
  }
  out.push_back(std::vector<double>(n, 0.0));
  out.push_back(std::vector<double>(n, 0.7));
  return out;
}

void expect_admissible(const InterferenceModel& model,
                       std::vector<net::LinkId> universe, std::uint64_t seed,
                       const std::string& name, int rounds = 4) {
  SCOPED_TRACE(name);
  universe = canonical_universe(universe);
  const DefaultBoundModel fallback(model);
  int probe = 0;
  for (const std::vector<double>& w :
       probe_weights(universe.size(), seed, rounds)) {
    SCOPED_TRACE(probe++);
    const MaxWeightSetResult exact =
        model.max_weight_independent_set(universe, w, 0.0);
    const double bound = model.max_weight_upper_bound(universe, w);
    EXPECT_GE(bound, exact.max_weight);
    EXPECT_GE(bound, exact.weight);
    // The default is looser than the model's own bound, never tighter.
    const double loose = fallback.max_weight_upper_bound(universe, w);
    EXPECT_GE(loose, exact.max_weight);
    EXPECT_GE(loose, bound);
  }
}

std::vector<net::LinkId> chain_path(const net::Network& network,
                                    std::size_t nodes) {
  std::vector<net::LinkId> path;
  for (std::size_t i = 0; i + 1 < nodes; ++i)
    if (const auto link = network.find_link(i, i + 1)) path.push_back(*link);
  return path;
}

TEST(RootBound, AdmissibleOnScaledFig4Union) {
  const auto setup = benchx::make_scaled_setup(4, 500, 8, 2.0, 12.0);
  const PhysicalInterferenceModel model(setup.network);
  routing::QosRouter router(setup.network, model);
  const std::vector<double> all_idle(setup.network.num_nodes(), 1.0);
  std::vector<net::LinkId> universe;
  for (const auto& request : setup.requests) {
    const auto path = router.find_path(request.src, request.dst,
                                       routing::Metric::kHopCount, all_idle);
    if (path)
      universe.insert(universe.end(), path->links().begin(),
                      path->links().end());
  }
  ASSERT_EQ(canonical_universe(universe).size(), 66u);
  // One round of probes: random weights over all 66 links cost the exact
  // search about a second each.
  expect_admissible(model, universe, 4, "fig4 seed 4 union", /*rounds=*/1);
}

TEST(RootBound, AdmissibleOnChains) {
  const net::Network chain(geom::chain(27, 70.0),
                           phy::PhyModel::paper_default());
  const PhysicalInterferenceModel chain_model(chain);
  expect_admissible(chain_model, chain_path(chain, 27), 26, "26-link chain");

  // The jittered 160-node chain of the commit-latency benchmarks: banded
  // interference with irregular spacing. Windows of its forward links keep
  // each exact search small (random weights over all of them would take
  // the B&B minutes).
  Rng rng(160);
  auto points = geom::chain(160, 70.0);
  for (auto& point : points) {
    point.x += rng.uniform(-12.0, 12.0);
    point.y += rng.uniform(-25.0, 25.0);
  }
  const net::Network jittered(std::move(points),
                              phy::PhyModel::paper_default());
  const PhysicalInterferenceModel jittered_model(jittered);
  const std::vector<net::LinkId> forward = chain_path(jittered, 160);
  ASSERT_GT(forward.size(), 100u);
  for (const std::size_t first : {0, 60, 120}) {
    const std::vector<net::LinkId> window(
        forward.begin() + first,
        forward.begin() + std::min(first + 24, forward.size()));
    expect_admissible(jittered_model, window, 160 + first,
                      "jittered 160-node chain from link " +
                          std::to_string(first));
  }
}

TEST(RootBound, AdmissibleOnProtocolSeedScenarios) {
  for (const double lambda : {0.1, 0.25, 0.4}) {
    const ScenarioOne one = make_scenario_one(lambda);
    expect_admissible(one.model, {0, 1, 2}, 1, "scenario I");
  }
  const ScenarioTwo two = make_scenario_two();
  expect_admissible(two.model, two.chain, 2, "scenario II");
}

TEST(RootBound, DefaultScoresEveryLinkAtTheFastestRate) {
  const ScenarioTwo two = make_scenario_two();
  const DefaultBoundModel fallback(two.model);
  const std::vector<double> w = {1.0, 0.5, 0.0, 2.0};
  // Padded by kBoundPad, like every bound the exact searches use.
  EXPECT_NEAR(fallback.max_weight_upper_bound(two.chain, w), 3.5 * 54.0,
              3.5 * 54.0 * 1e-9);
}

}  // namespace
}  // namespace mrwsn::core
