// Parity suite for the performance kernels: the bitset Bron–Kerbosch, the
// revised simplex on the Eq. 6 LP, the physical interferes() test and the
// conflict matrix built from it, and the remove_dominated rewrite must
// reproduce the retained reference implementations on randomized inputs
// with fixed seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <vector>

#include "common/scaled_fig4.hpp"
#include "core/bounds.hpp"
#include "core/clique.hpp"
#include "core/interference.hpp"
#include "core/scenarios.hpp"
#include "core/topology_delta.hpp"
#include "geom/topology.hpp"
#include "graph/undirected.hpp"
#include "lp/simplex.hpp"
#include "net/network.hpp"
#include "oracles/reference_cliques.hpp"
#include "oracles/reference_simplex.hpp"
#include "util/rng.hpp"

namespace mrwsn::core {
namespace {

graph::UndirectedGraph random_graph(std::size_t n, double p, std::uint64_t seed) {
  Rng rng(seed);
  graph::UndirectedGraph g(n);
  for (graph::Vertex u = 0; u < n; ++u)
    for (graph::Vertex v = u + 1; v < n; ++v)
      if (rng.uniform() < p) g.add_edge(u, v);
  return g;
}

std::vector<std::vector<graph::Vertex>> as_sorted(
    std::vector<std::vector<graph::Vertex>> cliques) {
  std::sort(cliques.begin(), cliques.end());
  return cliques;
}

bool same_set(const IndependentSet& a, const IndependentSet& b) {
  return a.links == b.links && a.rates == b.rates && a.mbps == b.mbps;
}

bool same_sets(const std::vector<IndependentSet>& a,
               const std::vector<IndependentSet>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_set(a[i], b[i])) return false;
  return true;
}

TEST(BitsetCliqueParity, MatchesReferenceOnRandomGraphs) {
  // 70 vertices spans two bitset words; 0.35 keeps the clique count sane.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (std::size_t n : {6u, 13u, 24u, 33u, 70u}) {
      const auto g = random_graph(n, 0.35, seed);
      EXPECT_EQ(as_sorted(graph::maximal_cliques(g)),
                as_sorted(graph::maximal_cliques_reference(g)))
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(BitsetCliqueParity, BitMatrixOverloadIsIdenticalToGraphOverload) {
  const auto g = random_graph(40, 0.4, 9);
  EXPECT_EQ(graph::maximal_cliques(g),
            graph::maximal_cliques(g.adjacency_matrix()));
}

TEST(BitsetCliqueParity, IndependentSetsMatchReferenceComplementCliques) {
  const auto g = random_graph(25, 0.5, 17);
  EXPECT_EQ(as_sorted(graph::maximal_independent_sets(g)),
            as_sorted(graph::maximal_cliques_reference(g.complement())));
}

TEST(SimplexParity, Eq6ShapedProblemMatchesReference) {
  // The Eq. 6 LP of Scenario II, the shape the solver actually sees.
  const ScenarioTwo scenario = make_scenario_two();
  const auto sets = scenario.model.maximal_independent_sets(scenario.chain);
  lp::Problem problem(lp::Objective::kMaximize);
  std::vector<lp::VarId> lambda;
  for (std::size_t i = 0; i < sets.size(); ++i)
    lambda.push_back(problem.add_variable(0.0));
  const lp::VarId f = problem.add_variable(1.0);
  std::vector<std::pair<lp::VarId, double>> share;
  for (lp::VarId id : lambda) share.emplace_back(id, 1.0);
  problem.add_constraint(share, lp::Sense::kLessEqual, 1.0);
  for (net::LinkId link : scenario.chain) {
    std::vector<std::pair<lp::VarId, double>> row;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const double mbps = sets[i].mbps_on(link);
      if (mbps > 0.0) row.emplace_back(lambda[i], mbps);
    }
    row.emplace_back(f, -1.0);
    problem.add_constraint(row, lp::Sense::kGreaterEqual, 0.0);
  }
  const lp::Solution ref = lp::solve_reference(problem);
  const lp::Solution revised = lp::solve(problem);
  ASSERT_TRUE(ref.optimal());
  ASSERT_TRUE(revised.optimal());
  EXPECT_NEAR(ref.objective, ScenarioTwo::kOptimalMbps, 1e-9);
  EXPECT_NEAR(revised.objective, ref.objective, 1e-9);
}

/// The physical "interferes" evaluation straight from the paper, over the
/// network's own received powers: both sides must keep a rate at least as
/// fast as requested under the other's interference, clamped by the link's
/// rate cap.
bool reference_interferes(const net::Network& network, net::LinkId a,
                          phy::RateIndex ra, net::LinkId b, phy::RateIndex rb) {
  const net::Link& la = network.link(a);
  const net::Link& lb = network.link(b);
  if (la.tx == lb.tx || la.tx == lb.rx || la.rx == lb.tx || la.rx == lb.rx)
    return true;
  const auto rate_a = network.phy().max_rate(
      network.received_power(la.tx, la.rx), network.received_power(lb.tx, la.rx));
  const auto rate_b = network.phy().max_rate(
      network.received_power(lb.tx, lb.rx), network.received_power(la.tx, lb.rx));
  const bool a_ok = rate_a.has_value() && std::max(*rate_a, la.rate_cap) <= ra;
  const bool b_ok = rate_b.has_value() && std::max(*rate_b, lb.rate_cap) <= rb;
  return !(a_ok && b_ok);
}

/// Every link pair, both argument orders, every rate pair.
void expect_interferes_matches_reference(const net::Network& network,
                                         const PhysicalInterferenceModel& model) {
  const std::size_t rates = model.rate_table().size();
  for (net::LinkId a = 0; a < network.num_links(); ++a) {
    for (net::LinkId b = a + 1; b < network.num_links(); ++b) {
      for (phy::RateIndex ra = 0; ra < rates; ++ra) {
        for (phy::RateIndex rb = 0; rb < rates; ++rb) {
          const bool expected = reference_interferes(network, a, ra, b, rb);
          EXPECT_EQ(model.interferes(a, ra, b, rb), expected)
              << a << "@" << ra << " vs " << b << "@" << rb;
          EXPECT_EQ(model.interferes(b, rb, a, ra), expected)
              << b << "@" << rb << " vs " << a << "@" << ra;
        }
      }
    }
  }
}

TEST(PhysicalInterferesParity, MatchesDirectSinrEvaluation) {
  Rng rng(41);
  const auto points = geom::connected_random_rectangle(8, 300.0, 300.0, 158.0, rng);
  const net::Network network(points, phy::PhyModel::paper_default());
  const PhysicalInterferenceModel model(network);
  expect_interferes_matches_reference(network, model);
}

TEST(PhysicalInterferesParity, MatchesDirectSinrEvaluationAfterChurn) {
  // A model queried before churn and repaired after it must answer from
  // the mutated network's powers and rate caps, never from the old ones.
  Rng rng(41);
  const auto points = geom::connected_random_rectangle(8, 300.0, 300.0, 158.0, rng);
  net::Network network(points, phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(network);
  expect_interferes_matches_reference(network, model);

  // The join comes first: it refills the whole rx-power table, so the
  // row/column repairs of the move and re-power after it are what the
  // final sweep checks.
  TopologyDelta delta(&network, &model);
  delta.add_node({150.0, 150.0});
  delta.move_node(2, {network.node(2).position.x + 60.0,
                      network.node(2).position.y - 40.0});
  delta.set_power(5, 0.4 * network.phy().tx_power_watt());
  // Cap a 54 Mbps link at 18 Mbps: its pairwise limits stay fast, so only
  // the cap can make it fail at the faster rates.
  net::LinkId fast = 0;
  while (fast < network.num_links() &&
         !(network.link(fast).alive && network.link(fast).best_rate_alone == 0))
    ++fast;
  ASSERT_LT(fast, network.num_links());
  delta.set_rate(fast, 2);
  expect_interferes_matches_reference(network, model);
}

TEST(PhysicalInterferesParity, MatchesOnSampledPairsOfTheScaledFig4Network) {
  // The 500-node study network: ~5.4k links, so ids span thousands. Half the
  // pairs are uniform (mostly far apart), half two hops apart (mostly close
  // enough for the SINR test to matter).
  const auto setup = benchx::make_scaled_setup(4, 500, 8, 2.0, 12.0);
  const net::Network& network = setup.network;
  const PhysicalInterferenceModel model(network);
  ASSERT_GT(network.num_links(), 4000u);
  const std::size_t rates = model.rate_table().size();
  Rng rng(25);
  const auto any_link = [&] {
    return static_cast<net::LinkId>(rng.uniform_int(0, network.num_links() - 1));
  };
  const auto link_from = [&](net::NodeId node) -> std::optional<net::LinkId> {
    const auto& out = network.links_from(node);
    if (out.empty()) return std::nullopt;
    return out[rng.uniform_int(0, out.size() - 1)];
  };
  std::size_t conflicts = 0;
  std::size_t compatible = 0;
  for (int sample = 0; sample < 20000; ++sample) {
    const net::LinkId a = any_link();
    std::optional<net::LinkId> b = any_link();
    if (sample % 2 == 1) {
      const auto hop = link_from(network.link(a).rx);
      b = hop ? link_from(network.link(*hop).rx) : std::nullopt;
    }
    if (!b || *b == a) continue;
    const auto ra = static_cast<phy::RateIndex>(rng.uniform_int(0, rates - 1));
    const auto rb = static_cast<phy::RateIndex>(rng.uniform_int(0, rates - 1));
    const bool expected = reference_interferes(network, a, ra, *b, rb);
    ASSERT_EQ(model.interferes(a, ra, *b, rb), expected)
        << a << "@" << ra << " vs " << *b << "@" << rb;
    ASSERT_EQ(model.interferes(*b, rb, a, ra), expected);
    ++(expected ? conflicts : compatible);
  }
  EXPECT_GT(conflicts, 1000u);
  EXPECT_GT(compatible, 1000u);
}

TEST(ConflictMatrixParity, CliquesMatchDirectGraphConstruction) {
  const net::Network network(geom::chain(8, 70.0), phy::PhyModel::paper_default());
  const PhysicalInterferenceModel model(network);
  std::vector<net::LinkId> universe;
  for (std::size_t i = 0; i + 1 < 8; ++i)
    universe.push_back(*network.find_link(i, i + 1));

  // Reference: couples enumerated the pre-matrix way, conflict graph built
  // with direct interferes() calls, reference Bron–Kerbosch.
  struct Couple {
    net::LinkId link;
    phy::RateIndex rate;
  };
  std::vector<Couple> couples;
  for (net::LinkId link : canonical_universe(universe))
    for (phy::RateIndex r = 0; r < model.rate_table().size(); ++r)
      if (model.usable_alone(link, r)) couples.push_back({link, r});
  graph::UndirectedGraph conflict(couples.size());
  for (std::size_t i = 0; i < couples.size(); ++i)
    for (std::size_t j = i + 1; j < couples.size(); ++j)
      if (couples[i].link != couples[j].link &&
          model.interferes(couples[i].link, couples[i].rate, couples[j].link,
                           couples[j].rate))
        conflict.add_edge(i, j);

  std::vector<std::vector<std::pair<net::LinkId, phy::RateIndex>>> expected;
  for (const auto& members : graph::maximal_cliques_reference(conflict)) {
    std::vector<std::pair<net::LinkId, phy::RateIndex>> clique;
    for (graph::Vertex v : members) clique.emplace_back(couples[v].link, couples[v].rate);
    expected.push_back(std::move(clique));
  }
  std::sort(expected.begin(), expected.end());

  std::vector<std::vector<std::pair<net::LinkId, phy::RateIndex>>> actual;
  for (const Clique& c : maximal_cliques(model, universe)) {
    std::vector<std::pair<net::LinkId, phy::RateIndex>> clique;
    for (std::size_t i = 0; i < c.size(); ++i) clique.emplace_back(c.links[i], c.rates[i]);
    actual.push_back(std::move(clique));
  }
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected);
}

TEST(ConflictMatrixParity, FixedRateCliquesMatchDirectGraphConstruction) {
  const ScenarioTwo scenario = make_scenario_two();
  const auto links = canonical_universe(scenario.chain);
  for (const RateAssignment& rates :
       enumerate_rate_assignments(scenario.model, links)) {
    graph::UndirectedGraph conflict(links.size());
    for (std::size_t i = 0; i < links.size(); ++i)
      for (std::size_t j = i + 1; j < links.size(); ++j)
        if (scenario.model.interferes(links[i], rates[i], links[j], rates[j]))
          conflict.add_edge(i, j);
    EXPECT_EQ(as_sorted(fixed_rate_maximal_cliques(scenario.model, links, rates)),
              as_sorted(graph::maximal_cliques_reference(conflict)));
  }
}

TEST(ModelCaches, MemoizedResultsMatchFreshModel) {
  const net::Network network(geom::chain(9, 70.0), phy::PhyModel::paper_default());
  const PhysicalInterferenceModel model(network);
  std::vector<net::LinkId> universe;
  for (std::size_t i = 0; i + 1 < 9; ++i)
    universe.push_back(*network.find_link(i, i + 1));

  const auto cold = model.maximal_independent_sets(universe);
  const auto warm = model.maximal_independent_sets(universe);  // memo hit
  EXPECT_TRUE(same_sets(cold, warm));

  // A permuted universe canonicalizes to the same key.
  std::vector<net::LinkId> shuffled(universe.rbegin(), universe.rend());
  EXPECT_TRUE(same_sets(cold, model.maximal_independent_sets(shuffled)));

  const PhysicalInterferenceModel fresh(network);
  EXPECT_TRUE(same_sets(cold, fresh.maximal_independent_sets(universe)));
}

TEST(ModelCaches, ConflictMatrixIsSharedPerUniverseAndRebuiltAcrossUniverses) {
  const ScenarioTwo scenario = make_scenario_two();
  const auto full = scenario.model.conflict_matrix(scenario.chain);
  EXPECT_EQ(full.get(), scenario.model.conflict_matrix(scenario.chain).get());

  const std::vector<net::LinkId> sub{0, 1};
  const auto partial = scenario.model.conflict_matrix(sub);
  EXPECT_NE(full.get(), partial.get());
  EXPECT_EQ(partial->universe(), sub);
  EXPECT_LT(partial->num_couples(), full->num_couples());
  // Matching relation on the shared couples.
  const auto i0 = *partial->couple_index(0, ScenarioTwo::kRate54);
  const auto i1 = *partial->couple_index(1, ScenarioTwo::kRate54);
  const auto j0 = *full->couple_index(0, ScenarioTwo::kRate54);
  const auto j1 = *full->couple_index(1, ScenarioTwo::kRate54);
  EXPECT_EQ(partial->interferes(i0, i1), full->interferes(j0, j1));
}

TEST(ModelCaches, ProtocolMutationInvalidates) {
  ProtocolInterferenceModel model(3, abstract_rate_table({2.0, 1.0}));
  const std::vector<net::LinkId> universe{0, 1, 2};

  const auto before = model.conflict_matrix(universe);
  const auto sets_before = model.maximal_independent_sets(universe);
  EXPECT_FALSE(before->interferes(*before->couple_index(0, 0),
                                  *before->couple_index(1, 0)));

  model.add_conflict_all_rates(0, 1);
  const auto after = model.conflict_matrix(universe);
  EXPECT_NE(before.get(), after.get());
  EXPECT_TRUE(after->interferes(*after->couple_index(0, 0),
                                *after->couple_index(1, 0)));
  EXPECT_FALSE(same_sets(sets_before, model.maximal_independent_sets(universe)));
}

TEST(ModelCaches, CopiedModelGetsFreshCaches) {
  ProtocolInterferenceModel model(2, abstract_rate_table({2.0, 1.0}));
  const std::vector<net::LinkId> universe{0, 1};
  const auto original = model.conflict_matrix(universe);

  ProtocolInterferenceModel copy = model;
  copy.add_conflict_all_rates(0, 1);
  // The copy sees its own mutation; the original's cache is untouched.
  const auto mutated = copy.conflict_matrix(universe);
  EXPECT_TRUE(mutated->interferes(*mutated->couple_index(0, 0),
                                  *mutated->couple_index(1, 0)));
  const auto still = model.conflict_matrix(universe);
  EXPECT_EQ(original.get(), still.get());
  EXPECT_FALSE(still->interferes(*still->couple_index(0, 0),
                                 *still->couple_index(1, 0)));
}

/// The pre-rewrite quadratic remove_dominated, verbatim.
std::vector<IndependentSet> remove_dominated_reference(
    std::vector<IndependentSet> sets) {
  std::vector<char> dead(sets.size(), 0);
  for (std::size_t a = 0; a < sets.size(); ++a) {
    if (dead[a]) continue;
    for (std::size_t b = 0; b < sets.size(); ++b) {
      if (a == b || dead[b] || dead[a]) continue;
      if (sets[a].dominated_by(sets[b])) {
        if (sets[b].dominated_by(sets[a]) && b > a) {
          dead[b] = 1;
        } else {
          dead[a] = 1;
        }
      }
    }
  }
  std::vector<IndependentSet> kept;
  for (std::size_t i = 0; i < sets.size(); ++i)
    if (!dead[i]) kept.push_back(std::move(sets[i]));
  return kept;
}

TEST(RemoveDominatedParity, MatchesQuadraticReferenceOnRandomCollections) {
  const double mbps_table[] = {54.0, 36.0, 18.0, 6.0};
  for (std::uint64_t seed : {5u, 6u, 7u, 8u, 9u}) {
    Rng rng(seed);
    // Draw from a small universe so duplicates and dominations both occur.
    std::vector<IndependentSet> sets(60);
    for (auto& set : sets) {
      for (net::LinkId link = 0; link < 6; ++link) {
        if (rng.uniform() >= 0.5) continue;
        const auto r = static_cast<phy::RateIndex>(rng.uniform(0.0, 4.0));
        set.links.push_back(link);
        set.rates.push_back(r);
        set.mbps.push_back(mbps_table[r]);
      }
    }
    const auto expected = remove_dominated_reference(sets);
    const auto actual = remove_dominated(sets);
    EXPECT_TRUE(same_sets(actual, expected)) << "seed=" << seed;
  }
}

class ThreadEnvGuard {
 public:
  explicit ThreadEnvGuard(const char* value) {
    ::setenv("MRWSN_THREADS", value, 1);
  }
  ~ThreadEnvGuard() { ::unsetenv("MRWSN_THREADS"); }
};

TEST(ThreadedBoundsParity, UpperBoundIdenticalAcrossThreadCounts) {
  const ScenarioTwo scenario = make_scenario_two();
  UpperBoundResult single, threaded;
  {
    ThreadEnvGuard env("1");
    single = clique_upper_bound(scenario.model, {}, scenario.chain);
  }
  {
    ThreadEnvGuard env("4");
    threaded = clique_upper_bound(scenario.model, {}, scenario.chain);
  }
  EXPECT_EQ(single.background_feasible, threaded.background_feasible);
  EXPECT_EQ(single.num_rate_vectors, threaded.num_rate_vectors);
  EXPECT_DOUBLE_EQ(single.upper_bound_mbps, threaded.upper_bound_mbps);
}

TEST(ThreadedBoundsParity, HypothesisMinMaxIdenticalAcrossThreadCounts) {
  const ScenarioTwo scenario = make_scenario_two();
  const std::vector<double> demand(4, 10.0);
  double single = 0.0, threaded = 0.0;
  {
    ThreadEnvGuard env("1");
    single = hypothesis_min_max_clique_time(scenario.model, scenario.chain, demand);
  }
  {
    ThreadEnvGuard env("4");
    threaded =
        hypothesis_min_max_clique_time(scenario.model, scenario.chain, demand);
  }
  EXPECT_DOUBLE_EQ(single, threaded);
}

}  // namespace
}  // namespace mrwsn::core
