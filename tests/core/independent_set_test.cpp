#include "core/independent_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>

#include "common/scaled_fig4.hpp"
#include "core/interference.hpp"
#include "geom/topology.hpp"
#include "net/network.hpp"
#include "phy/phy_model.hpp"
#include "phy/shadowing.hpp"
#include "routing/qos_router.hpp"
#include "util/rng.hpp"

namespace mrwsn::core {
namespace {

IndependentSet make_set(std::vector<net::LinkId> links, std::vector<double> mbps) {
  IndependentSet s;
  s.links = std::move(links);
  s.mbps = std::move(mbps);
  s.rates.assign(s.links.size(), 0);
  return s;
}

TEST(IndependentSet, MbpsOnMemberAndNonMember) {
  const IndependentSet s = make_set({2, 5}, {36.0, 54.0});
  EXPECT_DOUBLE_EQ(s.mbps_on(2), 36.0);
  EXPECT_DOUBLE_EQ(s.mbps_on(5), 54.0);
  EXPECT_DOUBLE_EQ(s.mbps_on(3), 0.0);
  EXPECT_DOUBLE_EQ(s.mbps_on(99), 0.0);
}

TEST(IndependentSet, DominationBySuperset) {
  const IndependentSet small = make_set({1}, {36.0});
  const IndependentSet big = make_set({1, 4}, {36.0, 54.0});
  EXPECT_TRUE(small.dominated_by(big));
  EXPECT_FALSE(big.dominated_by(small));
}

TEST(IndependentSet, HigherRateDominatesSameLinks) {
  const IndependentSet slow = make_set({1}, {36.0});
  const IndependentSet fast = make_set({1}, {54.0});
  EXPECT_TRUE(slow.dominated_by(fast));
  EXPECT_FALSE(fast.dominated_by(slow));
}

TEST(IndependentSet, IncomparableSetsDoNotDominate) {
  // The paper's key multirate phenomenon: {L1@54} vs {(L1@36),(L4@54)} —
  // neither dominates the other.
  const IndependentSet solo = make_set({1}, {54.0});
  const IndependentSet pair = make_set({1, 4}, {36.0, 54.0});
  EXPECT_FALSE(solo.dominated_by(pair));
  EXPECT_FALSE(pair.dominated_by(solo));
}

TEST(IndependentSet, SelfDomination) {
  const IndependentSet s = make_set({1, 2}, {36.0, 54.0});
  EXPECT_TRUE(s.dominated_by(s));
}

TEST(RemoveDominated, KeepsIncomparableDropsDominated) {
  std::vector<IndependentSet> sets;
  sets.push_back(make_set({1}, {54.0}));        // kept
  sets.push_back(make_set({1}, {36.0}));        // dominated by first
  sets.push_back(make_set({1, 4}, {36.0, 54.0}));  // kept (incomparable)
  const auto kept = remove_dominated(std::move(sets));
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_DOUBLE_EQ(kept[0].mbps_on(1), 54.0);
  EXPECT_DOUBLE_EQ(kept[1].mbps_on(4), 54.0);
}

TEST(RemoveDominated, ExactDuplicatesCollapseToOne) {
  std::vector<IndependentSet> sets;
  sets.push_back(make_set({3}, {18.0}));
  sets.push_back(make_set({3}, {18.0}));
  sets.push_back(make_set({3}, {18.0}));
  EXPECT_EQ(remove_dominated(std::move(sets)).size(), 1u);
}

TEST(RemoveDominated, EmptyInput) {
  EXPECT_TRUE(remove_dominated({}).empty());
}

// ---------------------------------------------------------------------------
// Exact physical pricing: brute-force optimum, thread invariance, floors
// ---------------------------------------------------------------------------

/// Sets MRWSN_THREADS for one scope.
class ThreadEnvGuard {
 public:
  explicit ThreadEnvGuard(const char* value) {
    ::setenv("MRWSN_THREADS", value, 1);
  }
  ~ThreadEnvGuard() { ::unsetenv("MRWSN_THREADS"); }
};

/// A random small physical pricing instance: 20 alive links of a random
/// 14-node placement, two of them at zero weight, so 18 candidates reach
/// the exact search — enough for its per-root parallel path. Variants cap
/// the rate of every third universe link (so a link's first usable rate is
/// its cap, not its sensitivity), or shadow every received power.
enum class CaseVariant { kPlain, kRateCaps, kShadowed };

struct PhysicalCase {
  std::unique_ptr<net::Network> network;
  std::vector<net::LinkId> universe;
  std::vector<double> weight;  ///< parallel to universe
};

constexpr std::size_t kCaseLinks = 20;
constexpr std::size_t kCaseZeroWeights = 2;

PhysicalCase random_physical_case(std::uint64_t seed,
                                  CaseVariant variant = CaseVariant::kPlain) {
  Rng rng(seed);
  std::vector<geom::Point> points;
  for (int i = 0; i < 14; ++i)
    points.push_back({rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
  PhysicalCase c;
  c.network =
      variant == CaseVariant::kShadowed
          ? std::make_unique<net::Network>(std::move(points),
                                           phy::PhyModel::paper_default(),
                                           phy::Shadowing(4.0, seed))
          : std::make_unique<net::Network>(std::move(points),
                                           phy::PhyModel::paper_default());
  std::vector<net::LinkId> ids(c.network->num_links());
  std::iota(ids.begin(), ids.end(), net::LinkId{0});
  for (std::size_t i = ids.size(); i > 1; --i)
    std::swap(ids[i - 1], ids[rng.uniform_int(0, i - 1)]);
  std::vector<net::LinkId> picked;
  for (net::LinkId id : ids) {
    if (!c.network->link(id).alive) continue;
    picked.push_back(id);
    if (picked.size() == kCaseLinks) break;
  }
  c.universe = canonical_universe(picked);
  if (variant == CaseVariant::kRateCaps)
    for (std::size_t i = 0; i < c.universe.size(); i += 3)
      c.network->set_rate_cap(c.universe[i], 1 + (i / 3) % 3);
  for (std::size_t i = 0; i < c.universe.size(); ++i)
    c.weight.push_back(i < kCaseZeroWeights ? 0.0 : rng.uniform(0.1, 2.0));
  std::swap(c.weight[0], c.weight[c.universe.size() / 2]);  // spread zeros
  return c;
}

/// Maximum weight over every feasible concurrent set of the universe, by
/// exhaustive extension: a superset of an infeasible set is infeasible
/// (it shares the node, or adds interference), so only feasible sets are
/// extended.
double brute_force_max(const PhysicalInterferenceModel& model,
                       const PhysicalCase& c) {
  const phy::RateTable& rates = c.network->phy().rates();
  double best = 0.0;
  std::vector<net::LinkId> links;
  std::vector<std::size_t> positions;
  std::function<void(std::size_t)> extend = [&](std::size_t from) {
    for (std::size_t i = from; i < c.universe.size(); ++i) {
      links.push_back(c.universe[i]);
      positions.push_back(i);
      if (const auto r = model.max_rate_vector(links)) {
        double w = 0.0;
        for (std::size_t k = 0; k < links.size(); ++k)
          w += c.weight[positions[k]] * rates[(*r)[k]].mbps;
        best = std::max(best, w);
        extend(i + 1);
      }
      links.pop_back();
      positions.pop_back();
    }
  };
  extend(0);
  return best;
}

double set_weight(const PhysicalCase& c, const IndependentSet& set) {
  double w = 0.0;
  for (std::size_t k = 0; k < set.size(); ++k) {
    const auto it =
        std::lower_bound(c.universe.begin(), c.universe.end(), set.links[k]);
    w += c.weight[static_cast<std::size_t>(it - c.universe.begin())] *
         set.mbps[k];
  }
  return w;
}

void expect_sets_equal(const IndependentSet& a, const IndependentSet& b) {
  EXPECT_EQ(a.links, b.links);
  EXPECT_EQ(a.rates, b.rates);
  EXPECT_EQ(a.mbps, b.mbps);
}

constexpr std::uint64_t kPhysicalSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};

void expect_matches_brute_force(CaseVariant variant) {
  for (std::uint64_t seed : kPhysicalSeeds) {
    SCOPED_TRACE(seed);
    const PhysicalCase c = random_physical_case(seed, variant);
    ASSERT_EQ(c.universe.size(), kCaseLinks);
    const PhysicalInterferenceModel model(*c.network);
    const double brute = brute_force_max(model, c);
    const MaxWeightSetResult r =
        model.max_weight_independent_set(c.universe, c.weight);
    ASSERT_TRUE(r.found());
    const double tol = 1e-9 * std::max(1.0, brute);
    EXPECT_NEAR(r.max_weight, brute, tol);
    EXPECT_NEAR(r.weight, brute, tol);
    EXPECT_TRUE(model.supports(r.set.links, r.set.rates));
    EXPECT_NEAR(set_weight(c, r.set), r.weight, tol);
    for (const IndependentSet& extra : r.extras) {
      EXPECT_TRUE(model.supports(extra.links, extra.rates));
      EXPECT_LE(set_weight(c, extra), r.max_weight + tol);
    }
  }
}

void expect_identical_across_thread_counts(CaseVariant variant) {
  for (std::uint64_t seed : kPhysicalSeeds) {
    SCOPED_TRACE(seed);
    const PhysicalCase c = random_physical_case(seed, variant);
    const PhysicalInterferenceModel model(*c.network);
    const double brute = brute_force_max(model, c);
    // No floor, and a floor that lets only the better sets through.
    for (const double floor : {0.0, 0.6 * brute}) {
      std::vector<MaxWeightSetResult> runs;
      for (const char* threads : {"1", "4", "8"}) {
        ThreadEnvGuard env(threads);
        runs.push_back(model.max_weight_independent_set(c.universe, c.weight,
                                                        floor));
      }
      ASSERT_TRUE(runs[0].found());
      for (std::size_t i = 1; i < runs.size(); ++i) {
        expect_sets_equal(runs[i].set, runs[0].set);
        EXPECT_EQ(runs[i].weight, runs[0].weight);
        EXPECT_EQ(runs[i].max_weight, runs[0].max_weight);
        ASSERT_EQ(runs[i].extras.size(), runs[0].extras.size());
        for (std::size_t k = 0; k < runs[0].extras.size(); ++k)
          expect_sets_equal(runs[i].extras[k], runs[0].extras[k]);
      }
    }
  }
}

TEST(PhysicalPricing, MatchesBruteForceOptimum) {
  expect_matches_brute_force(CaseVariant::kPlain);
}

TEST(PhysicalPricing, MatchesBruteForceOptimumWithRateCaps) {
  expect_matches_brute_force(CaseVariant::kRateCaps);
}

TEST(PhysicalPricing, MatchesBruteForceOptimumShadowed) {
  expect_matches_brute_force(CaseVariant::kShadowed);
}

TEST(PhysicalPricing, IdenticalAcrossThreadCounts) {
  expect_identical_across_thread_counts(CaseVariant::kPlain);
}

TEST(PhysicalPricing, IdenticalAcrossThreadCountsWithRateCaps) {
  expect_identical_across_thread_counts(CaseVariant::kRateCaps);
}

TEST(PhysicalPricing, IdenticalAcrossThreadCountsShadowed) {
  expect_identical_across_thread_counts(CaseVariant::kShadowed);
}

TEST(PhysicalPricing, FloorAboveEverySetReturnsEmpty) {
  for (std::uint64_t seed : kPhysicalSeeds) {
    SCOPED_TRACE(seed);
    const PhysicalCase c = random_physical_case(seed);
    const PhysicalInterferenceModel model(*c.network);
    const double floor = brute_force_max(model, c) * (1.0 + 1e-6) + 1e-6;
    for (const char* threads : {"1", "4"}) {
      ThreadEnvGuard env(threads);
      const MaxWeightSetResult r =
          model.max_weight_independent_set(c.universe, c.weight, floor);
      EXPECT_FALSE(r.found());
      EXPECT_TRUE(r.extras.empty());
      EXPECT_EQ(r.max_weight, floor);
    }
  }
}

// ---------------------------------------------------------------------------
// Exact physical pricing pinned on fixed weights: the optimum's (link, rate)
// couples, its weight and the beaten-best chain's extras. A change in the
// visit order, the bounds or the incumbent chain moves the extras even when
// the optimum stands, so a speed-up of the search must keep these.
// ---------------------------------------------------------------------------

/// The dual-shaped weights of the pricing benchmarks.
std::vector<double> benchmark_weights(std::size_t n) {
  std::vector<double> weights(n);
  for (std::size_t k = 0; k < n; ++k) weights[k] = 0.2 + 0.05 * double(k % 7);
  return weights;
}

struct PinnedPricing {
  double max_weight;
  std::vector<std::uint64_t> set;
  std::vector<std::vector<std::uint64_t>> extras;
};

void expect_pinned(const MaxWeightSetResult& r, const PinnedPricing& want) {
  EXPECT_DOUBLE_EQ(r.max_weight, want.max_weight);
  EXPECT_DOUBLE_EQ(r.weight, want.max_weight);
  EXPECT_EQ(column_signature(r.set), want.set);
  ASSERT_EQ(r.extras.size(), want.extras.size());
  for (std::size_t k = 0; k < want.extras.size(); ++k)
    EXPECT_EQ(column_signature(r.extras[k]), want.extras[k]) << "extra " << k;
}

TEST(PhysicalPricing, PinnedOnFortyLinkChain) {
  // BM_PricingExact/40's fixture: the 70 m chain of 40 links.
  const net::Network network(geom::chain(41, 70.0),
                             phy::PhyModel::paper_default());
  const PhysicalInterferenceModel model(network);
  std::vector<net::LinkId> universe;
  for (std::size_t i = 0; i < 40; ++i)
    universe.push_back(*network.find_link(i, i + 1));
  expect_pinned(
      model.max_weight_independent_set(universe,
                                       benchmark_weights(universe.size())),
      {0x1.e266666666667p+6,
       {0x1, 0x130001, 0x270002, 0x330001, 0x4b0001, 0x5f0002, 0x6b0001,
        0x870001, 0x9b0001},
       {{0x1, 0x130001, 0x270002, 0x330001, 0x4f0002, 0x5f0002, 0x6b0001,
         0x870001, 0x9b0001},
        {0x1, 0x130001, 0x270002, 0x330001, 0x4f0001, 0x6b0001, 0x870001,
         0x9b0001},
        {0x1, 0x130001, 0x270002, 0x330001, 0x4f0001, 0x630001, 0x770002,
         0x870001, 0x9b0001}}});
}

TEST(PhysicalPricing, PinnedOnScaledFig4Union) {
  // BM_PricingExact/fig4_seed4's universe: every link the scaled Fig. 4
  // study (seed 4, 500 nodes, 8 flows) routes by hop count.
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
  universe = canonical_universe(universe);
  ASSERT_EQ(universe.size(), 66u);
  expect_pinned(
      model.max_weight_independent_set(universe,
                                       benchmark_weights(universe.size())),
      {0x1.4d9999999999bp+6,
       {0x2450001, 0x2520002, 0x2780000, 0x2860003, 0x3440003, 0x45e0002,
        0x5610003, 0x5ee0003, 0x91e0002, 0xa410002, 0xe530003, 0x148b0003,
        0x14c60000},
       {{0x2450001, 0x2520002, 0x2780000, 0x3440003, 0x3800003, 0x45e0002,
         0x5610003, 0x5ee0003, 0x91e0002, 0xa410002, 0xa8c0003, 0x148b0003,
         0x14c60001},
        {0x2450001, 0x2520002, 0x2780000, 0x2860003, 0x3440003, 0x3800003,
         0x45e0002, 0x5610003, 0x5ee0003, 0x91e0002, 0xa410002, 0x13ad0003,
         0x148b0003, 0x14c60001},
        {0x2450001, 0x2520002, 0x2780000, 0x2860003, 0x3440003, 0x3800002,
         0x45e0002, 0x5610003, 0x91e0002, 0xa410002, 0x13ad0003,
         0x14c60001}}});
}

}  // namespace
}  // namespace mrwsn::core
