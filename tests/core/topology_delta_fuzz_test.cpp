// Differential churn fuzz harness for incremental topology repair
// (core::TopologyDelta + PhysicalInterferenceModel::repair + the protocol
// model's selective cache patching).
//
// The correctness contract of incremental repair is differential: after any
// mutation, the patched model must be indistinguishable from a model built
// from scratch over the mutated network. A seeded generator drives random
// mutation sequences (move / re-power / rate-cap / join / leave for the
// physical model; conflict-table and usable-set edits for the protocol
// model) and after EVERY mutation asserts exact (==) parity against a
// from-scratch rebuild:
//
//   * the rx-power table (every node pair),
//   * per-link lone rates and usable (link, rate) couples,
//   * the full ConflictMatrix over the whole link universe — couples,
//     conflict bits, and compat bits,
//   * maximal independent sets over random sub-universes,
//   * exact and heuristic pricing results (weight, members, rates) served
//     from the patched PricingContext memos,
//   * supports()/max_rate_vector on random candidate sets.
//
// A third family replays mutation sequences through AdmissionEngine
// (apply_topology_delta) and holds the repaired background master to 1e-6
// LP-objective parity against a cold engine on the mutated scenario.
//
// Seed count: kSeedsPerFamily per family (>= 500 sequences total by
// default); override with MRWSN_FUZZ_SEEDS=<n> via tools/run_fuzz.sh.
#include "core/topology_delta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <utility>
#include <vector>

#include "core/admission_engine.hpp"
#include "core/conflict_matrix.hpp"
#include "core/interference.hpp"
#include "geom/point.hpp"
#include "net/network.hpp"
#include "phy/phy_model.hpp"
#include "util/rng.hpp"

namespace mrwsn::core {
namespace {

std::size_t seeds_per_family() {
  constexpr std::size_t kSeedsPerFamily = 170;  // 3 families -> 510 sequences
  if (const char* env = std::getenv("MRWSN_FUZZ_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return kSeedsPerFamily;
}

constexpr double kArenaSide = 260.0;  // paper ranges reach 158 m -> dense-ish

net::Network random_network(Rng& rng, std::size_t num_nodes) {
  std::vector<geom::Point> points;
  points.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i)
    points.push_back({rng.uniform(0.0, kArenaSide), rng.uniform(0.0, kArenaSide)});
  return net::Network(std::move(points), phy::PhyModel::paper_default());
}

std::vector<net::LinkId> full_universe(std::size_t num_links) {
  std::vector<net::LinkId> universe(num_links);
  for (std::size_t i = 0; i < num_links; ++i) universe[i] = i;
  return universe;
}

/// A small random canonical sub-universe (possibly including dead links).
std::vector<net::LinkId> random_sub_universe(Rng& rng, std::size_t num_links,
                                             std::size_t max_size) {
  std::vector<net::LinkId> universe;
  const std::size_t want = 1 + rng.uniform_int(0, max_size - 1);
  for (std::size_t i = 0; i < want; ++i)
    universe.push_back(rng.uniform_int(0, num_links - 1));
  return canonical_universe(universe);
}

void expect_matrices_equal(const ConflictMatrix& patched,
                           const ConflictMatrix& fresh) {
  ASSERT_EQ(patched.universe(), fresh.universe());
  ASSERT_EQ(patched.num_couples(), fresh.num_couples());
  for (std::size_t i = 0; i < patched.num_couples(); ++i) {
    EXPECT_EQ(patched.couples()[i].link, fresh.couples()[i].link);
    EXPECT_EQ(patched.couples()[i].rate, fresh.couples()[i].rate);
  }
  for (std::size_t i = 0; i < patched.num_couples(); ++i) {
    for (std::size_t j = 0; j < patched.num_couples(); ++j) {
      ASSERT_EQ(patched.conflict_bits().test(i, j),
                fresh.conflict_bits().test(i, j))
          << "conflict bit mismatch at couples " << i << "," << j;
      ASSERT_EQ(patched.compat_bits().test(i, j), fresh.compat_bits().test(i, j))
          << "compat bit mismatch at couples " << i << "," << j;
    }
  }
}

void expect_sets_equal(const std::vector<IndependentSet>& patched,
                       const std::vector<IndependentSet>& fresh) {
  ASSERT_EQ(patched.size(), fresh.size());
  for (std::size_t s = 0; s < patched.size(); ++s) {
    EXPECT_EQ(patched[s].links, fresh[s].links);
    EXPECT_EQ(patched[s].rates, fresh[s].rates);
    EXPECT_EQ(patched[s].mbps, fresh[s].mbps);
  }
}

void expect_pricing_equal(const MaxWeightSetResult& patched,
                          const MaxWeightSetResult& fresh) {
  EXPECT_EQ(patched.weight, fresh.weight);
  EXPECT_EQ(patched.set.links, fresh.set.links);
  EXPECT_EQ(patched.set.rates, fresh.set.rates);
}

/// The whole differential contract for the physical model: the long-lived
/// `patched` model (mutated + repaired through TopologyDelta) must be
/// indistinguishable from `fresh` (built from scratch over the SAME mutated
/// network). Exact `==` everywhere — repair recomputes with the identical
/// arithmetic, so there is no tolerance to hide behind.
void expect_physical_parity(const net::Network& network,
                            const PhysicalInterferenceModel& patched, Rng& rng) {
  const PhysicalInterferenceModel fresh(network);
  ASSERT_EQ(patched.num_links(), fresh.num_links());

  for (net::NodeId from = 0; from < network.num_nodes(); ++from)
    for (net::NodeId at = 0; at < network.num_nodes(); ++at)
      ASSERT_EQ(patched.rx_power(from, at), fresh.rx_power(from, at))
          << "rx power mismatch " << from << "->" << at;

  const std::size_t num_rates = fresh.rate_table().size();
  for (net::LinkId link = 0; link < network.num_links(); ++link) {
    EXPECT_EQ(patched.max_rate_alone(link), fresh.max_rate_alone(link));
    for (phy::RateIndex r = 0; r < num_rates; ++r)
      EXPECT_EQ(patched.usable_alone(link, r), fresh.usable_alone(link, r));
  }

  // Full-universe conflict matrix: exercises interferes() over every usable
  // couple pair.
  const auto universe = full_universe(network.num_links());
  expect_matrices_equal(*patched.conflict_matrix(universe),
                        *fresh.conflict_matrix(universe));

  // Random small sub-universes: MIS enumeration + pricing memos.
  for (int round = 0; round < 2; ++round) {
    const auto sub = random_sub_universe(rng, network.num_links(), 7);
    expect_sets_equal(patched.maximal_independent_sets(sub),
                      fresh.maximal_independent_sets(sub));
    std::vector<double> weight(sub.size());
    for (double& w : weight) w = rng.uniform(0.0, 1.0);
    expect_pricing_equal(patched.max_weight_independent_set(sub, weight),
                         fresh.max_weight_independent_set(sub, weight));
    expect_pricing_equal(
        patched.heuristic_max_weight_independent_set(sub, weight, 0.0, 8),
        fresh.heuristic_max_weight_independent_set(sub, weight, 0.0, 8));
  }

  // Random candidate sets through supports()/max_rate_vector.
  for (int round = 0; round < 4; ++round) {
    const auto candidates = random_sub_universe(rng, network.num_links(), 4);
    EXPECT_EQ(patched.max_rate_vector(candidates),
              fresh.max_rate_vector(candidates));
  }
}

/// Warm the patched model's memo caches so mutations exercise the patch
/// path rather than cold rebuilds.
void warm_caches(const PhysicalInterferenceModel& model, Rng& rng) {
  model.conflict_matrix(full_universe(model.num_links()));
  const auto sub = random_sub_universe(rng, model.num_links(), 6);
  model.maximal_independent_sets(sub);
  std::vector<double> weight(sub.size(), 1.0);
  model.max_weight_independent_set(sub, weight);
}

TEST(TopologyDeltaFuzz, PhysicalMutateMatchesRebuild) {
  const std::size_t seeds = seeds_per_family();
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    Rng rng(0x70706C6FULL + seed);
    const std::size_t num_nodes = 5 + rng.uniform_int(0, 3);
    net::Network network = random_network(rng, num_nodes);
    if (network.num_links() == 0) continue;  // degenerate placement
    PhysicalInterferenceModel model(network);
    TopologyDelta delta(&network, &model);

    std::size_t alive = num_nodes;
    std::size_t joins = 0;  // bound growth: parity checks are O(couples^2)
    const std::size_t mutations = 6 + rng.uniform_int(0, 3);
    for (std::size_t step = 0; step < mutations; ++step) {
      warm_caches(model, rng);
      const std::uint64_t op = rng.uniform_int(0, 9);
      if (op < 3) {
        // Move: half the time a local jitter, half a full teleport.
        net::NodeId node = rng.uniform_int(0, network.num_nodes() - 1);
        while (!network.node(node).alive)
          node = rng.uniform_int(0, network.num_nodes() - 1);
        geom::Point target{rng.uniform(0.0, kArenaSide),
                           rng.uniform(0.0, kArenaSide)};
        if (rng.uniform() < 0.5) {
          const geom::Point at = network.node(node).position;
          target = {at.x + rng.uniform(-25.0, 25.0),
                    at.y + rng.uniform(-25.0, 25.0)};
        }
        delta.move_node(node, target);
      } else if (op < 5) {
        net::NodeId node = rng.uniform_int(0, network.num_nodes() - 1);
        while (!network.node(node).alive)
          node = rng.uniform_int(0, network.num_nodes() - 1);
        const double nominal = network.phy().tx_power_watt();
        delta.set_power(node, nominal * rng.uniform(0.4, 2.5));
      } else if (op < 7 && network.num_links() > 0) {
        const net::LinkId link = rng.uniform_int(0, network.num_links() - 1);
        const phy::RateIndex cap =
            rng.uniform_int(0, network.phy().rates().size() - 1);
        delta.set_rate(link, cap);
      } else if ((op < 8 && joins < 2) || alive <= 3) {
        delta.add_node({rng.uniform(0.0, kArenaSide),
                        rng.uniform(0.0, kArenaSide)});
        ++alive;
        ++joins;
      } else {
        net::NodeId node = rng.uniform_int(0, network.num_nodes() - 1);
        while (!network.node(node).alive)
          node = rng.uniform_int(0, network.num_nodes() - 1);
        delta.remove_node(node);
        --alive;
      }
      if (network.num_links() == 0) break;
      ASSERT_NO_FATAL_FAILURE(expect_physical_parity(network, model, rng))
          << "seed " << seed << " step " << step;
    }
  }
}

// ---------------------------------------------------------------------------
// Protocol model: conflict-table and usable-set edits vs rebuild
// ---------------------------------------------------------------------------

/// Shadow spec of a protocol model, replayable into a fresh instance.
struct ProtocolSpec {
  std::size_t num_links = 0;
  std::vector<std::array<std::size_t, 4>> conflicts;  // a, ra, b, rb
  std::vector<std::pair<std::size_t, std::vector<char>>> usable_edits;

  ProtocolInterferenceModel build(const phy::RateTable& rates) const {
    ProtocolInterferenceModel model(num_links, rates);
    for (const auto& [a, ra, b, rb] : conflicts)
      model.add_conflict(a, ra, b, rb);
    for (const auto& [link, usable] : usable_edits)
      model.set_usable_rates(link, usable);
    return model;
  }
};

void expect_protocol_parity(const ProtocolInterferenceModel& patched,
                            const ProtocolInterferenceModel& fresh, Rng& rng) {
  ASSERT_EQ(patched.num_links(), fresh.num_links());
  const std::size_t num_links = patched.num_links();
  const std::size_t num_rates = patched.rate_table().size();
  for (net::LinkId link = 0; link < num_links; ++link) {
    EXPECT_EQ(patched.max_rate_alone(link), fresh.max_rate_alone(link));
    for (phy::RateIndex r = 0; r < num_rates; ++r)
      EXPECT_EQ(patched.usable_alone(link, r), fresh.usable_alone(link, r));
  }
  const auto universe = full_universe(num_links);
  expect_matrices_equal(*patched.conflict_matrix(universe),
                        *fresh.conflict_matrix(universe));
  for (int round = 0; round < 2; ++round) {
    const auto sub = random_sub_universe(rng, num_links, 5);
    expect_sets_equal(patched.maximal_independent_sets(sub),
                      fresh.maximal_independent_sets(sub));
    std::vector<double> weight(sub.size());
    for (double& w : weight) w = rng.uniform(0.0, 1.0);
    expect_pricing_equal(patched.max_weight_independent_set(sub, weight),
                         fresh.max_weight_independent_set(sub, weight));
  }
}

TEST(TopologyDeltaFuzz, ProtocolMutateMatchesRebuild) {
  const phy::RateTable rates = phy::PhyModel::paper_default().rates();
  const std::size_t seeds = seeds_per_family();
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    Rng rng(0x70726F746FULL + seed);
    ProtocolSpec spec;
    spec.num_links = 4 + rng.uniform_int(0, 4);
    ProtocolInterferenceModel model(spec.num_links, rates);

    const std::size_t mutations = 6 + rng.uniform_int(0, 4);
    for (std::size_t step = 0; step < mutations; ++step) {
      // Warm the memo caches so the mutation patches instead of rebuilding.
      model.conflict_matrix(full_universe(spec.num_links));
      model.maximal_independent_sets(
          random_sub_universe(rng, spec.num_links, 4));

      const std::uint64_t op = rng.uniform_int(0, 3);
      if (op < 2) {
        std::size_t a = rng.uniform_int(0, spec.num_links - 1);
        std::size_t b = rng.uniform_int(0, spec.num_links - 1);
        if (a == b) b = (b + 1) % spec.num_links;
        const std::size_t ra = rng.uniform_int(0, rates.size() - 1);
        const std::size_t rb = rng.uniform_int(0, rates.size() - 1);
        model.add_conflict(a, ra, b, rb);
        spec.conflicts.push_back({a, ra, b, rb});
      } else if (op == 2) {
        std::size_t a = rng.uniform_int(0, spec.num_links - 1);
        std::size_t b = rng.uniform_int(0, spec.num_links - 1);
        if (a == b) b = (b + 1) % spec.num_links;
        for (phy::RateIndex ra = 0; ra < rates.size(); ++ra)
          for (phy::RateIndex rb = 0; rb < rates.size(); ++rb)
            spec.conflicts.push_back({a, ra, b, rb});
        model.add_conflict_all_rates(a, b);
      } else {
        const std::size_t link = rng.uniform_int(0, spec.num_links - 1);
        std::vector<char> usable(rates.size());
        for (auto& flag : usable) flag = rng.uniform() < 0.7 ? 1 : 0;
        model.set_usable_rates(link, usable);
        spec.usable_edits.emplace_back(link, usable);
      }

      const ProtocolInterferenceModel fresh = spec.build(rates);
      ASSERT_NO_FATAL_FAILURE(expect_protocol_parity(model, fresh, rng))
          << "seed " << seed << " step " << step;
    }
  }
}

// ---------------------------------------------------------------------------
// AdmissionEngine: incremental repair vs cold rebuild (LP-objective parity)
// ---------------------------------------------------------------------------

/// Both sides converge to the exact optimum of the same LP, just from
/// different warm starts; 1e-6 absorbs simplex round-off.
constexpr double kLpTol = 1e-6;

void expect_answers_match(const AdmissionAnswer& repaired,
                          const AdmissionAnswer& cold) {
  EXPECT_EQ(repaired.background_feasible, cold.background_feasible);
  EXPECT_TRUE(repaired.converged);
  EXPECT_TRUE(cold.converged);
  EXPECT_NEAR(repaired.available_mbps, cold.available_mbps,
              kLpTol * std::max(1.0, std::abs(cold.available_mbps)));
}

/// A random query path over the current link id space (ids are append-only,
/// so any id is valid on both the repaired and the cold engine).
std::vector<net::LinkId> random_path(Rng& rng, std::size_t num_links) {
  return random_sub_universe(rng, num_links, 3);
}

TEST(TopologyDeltaFuzz, EngineRepairMatchesColdRebuild) {
  const std::size_t seeds = seeds_per_family();
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    Rng rng(0x656E67696EULL + seed);
    const std::size_t num_nodes = 5 + rng.uniform_int(0, 2);
    net::Network network = random_network(rng, num_nodes);
    if (network.num_links() < 2) continue;  // degenerate placement
    PhysicalInterferenceModel model(network);
    TopologyDelta delta(&network, &model);
    AdmissionEngine engine(model);

    // Background flows commit BEFORE any churn, so every repair starts from
    // a warm master whose columns may no longer be valid.
    std::vector<LinkFlow> flows;
    const std::size_t num_flows = 1 + rng.uniform_int(0, 2);
    for (std::size_t f = 0; f < num_flows; ++f) {
      LinkFlow flow;
      flow.links = random_path(rng, network.num_links());
      flow.demand_mbps = rng.uniform(0.2, 2.0);
      engine.add_background(flow);
      flows.push_back(std::move(flow));
    }
    engine.snapshot();
    const std::uint64_t epoch_before = engine.epoch();

    std::size_t alive = num_nodes;
    std::size_t joins = 0;
    const std::size_t mutations = 3 + rng.uniform_int(0, 2);
    for (std::size_t step = 0; step < mutations; ++step) {
      const std::uint64_t op = rng.uniform_int(0, 9);
      const std::uint64_t epoch = engine.apply_topology_delta([&] {
        if (op < 4) {
          net::NodeId node = rng.uniform_int(0, network.num_nodes() - 1);
          while (!network.node(node).alive)
            node = rng.uniform_int(0, network.num_nodes() - 1);
          return delta.move_node(node, {rng.uniform(0.0, kArenaSide),
                                        rng.uniform(0.0, kArenaSide)});
        }
        if (op < 6) {
          net::NodeId node = rng.uniform_int(0, network.num_nodes() - 1);
          while (!network.node(node).alive)
            node = rng.uniform_int(0, network.num_nodes() - 1);
          return delta.set_power(
              node, network.phy().tx_power_watt() * rng.uniform(0.4, 2.5));
        }
        if (op < 8) {
          const net::LinkId link = rng.uniform_int(0, network.num_links() - 1);
          return delta.set_rate(
              link, rng.uniform_int(0, network.phy().rates().size() - 1));
        }
        if (joins < 1 || alive <= 3) {
          ++alive;
          ++joins;
          return delta.add_node(
              {rng.uniform(0.0, kArenaSide), rng.uniform(0.0, kArenaSide)});
        }
        net::NodeId node = rng.uniform_int(0, network.num_nodes() - 1);
        while (!network.node(node).alive)
          node = rng.uniform_int(0, network.num_nodes() - 1);
        --alive;
        return delta.remove_node(node);
      });
      // Every repair publishes a strictly newer epoch.
      ASSERT_GT(epoch, epoch_before + step);
      ASSERT_EQ(epoch, engine.epoch());

      // Cold reference: a fresh model over the SAME mutated network and a
      // fresh engine replaying the same background flows.
      const PhysicalInterferenceModel fresh(network);
      AdmissionEngine cold(fresh);
      for (const LinkFlow& flow : flows) cold.add_background(flow);

      ASSERT_EQ(engine.background_feasible(), cold.background_feasible())
          << "seed " << seed << " step " << step;
      const double repaired_airtime = engine.background_airtime();
      const double cold_airtime = cold.background_airtime();
      if (std::isinf(cold_airtime)) {
        EXPECT_TRUE(std::isinf(repaired_airtime))
            << "seed " << seed << " step " << step;
      } else {
        EXPECT_NEAR(repaired_airtime, cold_airtime,
                    kLpTol * std::max(1.0, cold_airtime))
            << "seed " << seed << " step " << step;
      }

      // Query parity: sequential query() against the committed state and
      // evaluate() against the just-published epoch must both match the
      // cold engine's answer.
      const std::vector<net::LinkId> path =
          random_path(rng, network.num_links());
      const double demand = rng.uniform(0.1, 1.0);
      const AdmissionAnswer reference = cold.query(path, demand);
      ASSERT_NO_FATAL_FAILURE(
          expect_answers_match(engine.query(path, demand), reference))
          << "seed " << seed << " step " << step << " (query)";
      const AdmissionAnswer evaluated = engine.evaluate(path, demand);
      ASSERT_NO_FATAL_FAILURE(expect_answers_match(evaluated, reference))
          << "seed " << seed << " step " << step << " (evaluate)";
      EXPECT_EQ(evaluated.epoch, epoch);
    }
  }
}

}  // namespace
}  // namespace mrwsn::core
