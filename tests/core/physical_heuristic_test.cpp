#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/scaled_fig4.hpp"
#include "core/conflict_matrix.hpp"
#include "core/independent_set.hpp"
#include "core/interference.hpp"
#include "geom/topology.hpp"
#include "net/network.hpp"
#include "phy/phy_model.hpp"
#include "routing/qos_router.hpp"
#include "util/rng.hpp"

/// Differential test of the physical Tier 1 pricing oracle
/// (heuristic_weight_independent_set_physical). The oracle below is the
/// straightforward form of the same multi-start search: every candidate is
/// pushed into the interference sums, scored by recomputing every member's
/// rate, and removed again when it does not raise the weight, and a failed
/// drop-one move is undone by removing and re-pushing every member. The
/// library's search scores before it pushes, undoes from a snapshot and
/// answers rate lookups from cached interference bands; it must return
/// the same sets, rates and weights.
namespace mrwsn::core {
namespace {

constexpr std::size_t kStarts = 12;  // ColumnGenOptions' default

class ThreadEnvGuard {
 public:
  explicit ThreadEnvGuard(const char* value) {
    ::setenv("MRWSN_THREADS", value, 1);
  }
  ~ThreadEnvGuard() { ::unsetenv("MRWSN_THREADS"); }
};

// ---------------------------------------------------------------------------
// Oracle: mutate-and-revert multi-start search
// ---------------------------------------------------------------------------

double oracle_jitter(std::size_t start, std::size_t v) {
  if (start == 0) return 1.0;
  SplitMix64 mix((0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(start)) ^
                 (static_cast<std::uint64_t>(v) + 0x6a09e667f3bcc909ULL));
  const double u = static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
  return 0.75 + 0.5 * u;
}

struct OracleStart {
  double weight = 0.0;
  std::vector<std::size_t> members;
  std::vector<phy::RateIndex> rates;
};

class OracleSearch {
 public:
  static constexpr std::size_t kNoSkip = static_cast<std::size_t>(-1);

  OracleSearch(const PricingContext& ctx, std::span<const double> link_weight,
               const std::vector<std::size_t>& candidates)
      : ctx_(ctx), link_weight_(link_weight), candidates_(candidates) {
    interference_.assign(ctx.size(), 0.0);
    blocked_.assign(ctx.size(), 0);
    in_set_.assign(ctx.size(), 0);
  }

  void greedy_fill(const std::vector<std::size_t>& order, std::size_t skip) {
    for (std::size_t v : order) {
      if (v == skip || in_set_[v] != 0 || blocked_[v] != 0) continue;
      if (!extension_feasible(v)) continue;
      push(v);
      const double w = member_weight();
      if (w > weight_)
        weight_ = w;
      else
        remove(v);
    }
  }

  void improve(const std::vector<std::size_t>& order) {
    for (int pass = 0; pass < 3; ++pass) {
      bool improved = false;
      const std::vector<std::size_t> snapshot = members_;
      for (std::size_t m : snapshot) {
        if (in_set_[m] == 0) continue;
        const std::vector<std::size_t> before = members_;
        const double before_weight = weight_;
        remove(m);
        weight_ = member_weight();
        greedy_fill(order, m);
        if (weight_ > before_weight) {
          improved = true;
          continue;
        }
        while (!members_.empty()) remove(members_.back());
        for (std::size_t v : before) push(v);
        weight_ = member_weight();
      }
      if (!improved) break;
    }
  }

  OracleStart outcome() {
    member_weight();
    return {weight_, members_, rates_};
  }

 private:
  double cross(std::size_t k, std::size_t u) const {
    return ctx_.cross_power[k * ctx_.size() + u];
  }
  std::optional<phy::RateIndex> rate_of(std::size_t u, double extra) const {
    const auto rate = ctx_.phy->max_rate(
        ctx_.signal[u], std::max(interference_[u], 0.0) + extra);
    if (!rate) return rate;
    return std::max(*rate, ctx_.rate_cap[u]);
  }
  bool extension_feasible(std::size_t v) const {
    if (!rate_of(v, 0.0)) return false;
    for (std::size_t j : members_)
      if (!rate_of(j, cross(v, j))) return false;
    return true;
  }
  void push(std::size_t v) {
    members_.push_back(v);
    in_set_[v] = 1;
    for (std::size_t u : candidates_) {
      if (u == v) continue;
      interference_[u] += cross(v, u);
      blocked_[u] += ctx_.shares[v * ctx_.size() + u];
    }
  }
  void remove(std::size_t v) {
    members_.erase(std::find(members_.begin(), members_.end(), v));
    in_set_[v] = 0;
    for (std::size_t u : candidates_) {
      if (u == v) continue;
      interference_[u] -= cross(v, u);
      blocked_[u] -= ctx_.shares[v * ctx_.size() + u];
    }
  }
  double member_weight() {
    rates_.clear();
    double total = 0.0;
    for (std::size_t j : members_) {
      const auto rate = rate_of(j, 0.0);
      EXPECT_TRUE(rate.has_value());
      rates_.push_back(*rate);
      total += link_weight_[j] * ctx_.phy->rates()[*rate].mbps;
    }
    return total;
  }

  const PricingContext& ctx_;
  std::span<const double> link_weight_;
  const std::vector<std::size_t>& candidates_;
  double weight_ = 0.0;
  std::vector<double> interference_;
  std::vector<int> blocked_;
  std::vector<char> in_set_;
  std::vector<std::size_t> members_;
  std::vector<phy::RateIndex> rates_;
};

IndependentSet oracle_set(const PricingContext& ctx, const OracleStart& s) {
  std::vector<std::size_t> by_link(s.members.size());
  std::iota(by_link.begin(), by_link.end(), std::size_t{0});
  std::sort(by_link.begin(), by_link.end(), [&](std::size_t a, std::size_t b) {
    return s.members[a] < s.members[b];
  });
  IndependentSet set;
  for (std::size_t k : by_link) {
    set.links.push_back(ctx.universe[s.members[k]]);
    set.rates.push_back(s.rates[k]);
    set.mbps.push_back(ctx.phy->rates()[s.rates[k]].mbps);
  }
  return set;
}

/// The multi-start driver around OracleSearch: same candidate order,
/// jitter, best-of reduction and runner-up selection as the library.
MaxWeightSetResult oracle_heuristic(const PricingContext& ctx,
                                    std::span<const double> link_weight,
                                    double floor, std::size_t starts) {
  std::vector<double> w_alone(ctx.size(), 0.0);
  std::vector<std::size_t> candidates;
  for (std::size_t u = 0; u < ctx.size(); ++u) {
    if (ctx.alone_usable[u] != 0) w_alone[u] = link_weight[u] * ctx.alone_mbps[u];
    if (w_alone[u] > 0.0) candidates.push_back(u);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](std::size_t a, std::size_t b) {
                     return w_alone[a] > w_alone[b];
                   });
  MaxWeightSetResult result;
  if (candidates.empty()) return result;

  std::vector<OracleStart> outcomes;
  for (std::size_t s = 0; s < starts; ++s) {
    std::vector<std::size_t> order = candidates;
    std::vector<double> key(ctx.size(), 0.0);
    for (std::size_t v : order) key[v] = w_alone[v] * oracle_jitter(s, v);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return key[a] > key[b]; });
    OracleSearch search(ctx, link_weight, candidates);
    search.greedy_fill(order, OracleSearch::kNoSkip);
    search.improve(order);
    outcomes.push_back(search.outcome());
  }

  std::size_t winner = outcomes.size();
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    if (outcomes[s].members.empty()) continue;
    if (winner == outcomes.size() || outcomes[s].weight > outcomes[winner].weight)
      winner = s;
  }
  if (winner == outcomes.size() || outcomes[winner].weight <= floor)
    return result;
  result.weight = outcomes[winner].weight;
  result.set = oracle_set(ctx, outcomes[winner]);
  std::set<std::vector<std::uint64_t>> seen{column_signature(result.set)};
  std::vector<std::size_t> runners;
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    if (s == winner || outcomes[s].members.empty()) continue;
    if (outcomes[s].weight <= floor) continue;
    if (!seen.insert(column_signature(oracle_set(ctx, outcomes[s]))).second)
      continue;
    runners.push_back(s);
  }
  std::stable_sort(runners.begin(), runners.end(),
                   [&](std::size_t a, std::size_t b) {
                     return outcomes[a].weight > outcomes[b].weight;
                   });
  if (runners.size() > 4) runners.resize(4);
  for (std::size_t s : runners)
    result.extras.push_back(oracle_set(ctx, outcomes[s]));
  return result;
}

// ---------------------------------------------------------------------------
// Universes and weights
// ---------------------------------------------------------------------------

/// A named pricing universe: the model's memoized context over `links`.
struct Universe {
  std::string name;
  std::shared_ptr<const PricingContext> ctx;
  std::vector<char> on_path;  ///< by position: new path, not background
};

Universe make_universe(std::string name,
                       const PhysicalInterferenceModel& model,
                       const std::vector<std::vector<net::LinkId>>& background,
                       const std::vector<net::LinkId>& new_path) {
  std::vector<net::LinkId> links = new_path;
  for (const auto& flow : background)
    links.insert(links.end(), flow.begin(), flow.end());
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  PricingCache cache;
  Universe u{std::move(name), cache.get(model, links), {}};
  u.on_path.assign(links.size(), 0);
  const auto mark = [&](net::LinkId l, char value) {
    u.on_path[static_cast<std::size_t>(
        std::lower_bound(links.begin(), links.end(), l) - links.begin())] = value;
  };
  for (net::LinkId l : new_path) mark(l, 1);
  for (const auto& flow : background)
    for (net::LinkId l : flow) mark(l, 0);
  return u;
}

/// Weight vectors shaped like column-generation duals: positive with a
/// short period everywhere (a loaded master mid-solve), concentrated on
/// the new path (phase B), on the background only (phase A), and sparse
/// random ones with many zero duals.
std::vector<std::vector<double>> dual_shaped_weights(const Universe& u,
                                                     std::uint64_t seed) {
  const std::size_t n = u.ctx->size();
  std::vector<std::vector<double>> families(4, std::vector<double>(n, 0.0));
  Rng rng(seed);
  for (std::size_t k = 0; k < n; ++k) {
    families[0][k] = 0.2 + 0.05 * static_cast<double>(k % 7);
    families[1][k] = u.on_path[k] != 0 ? 0.1 + 0.02 * double(k % 5) : 0.01;
    families[2][k] = u.on_path[k] != 0 ? 0.0 : 0.05 + 0.03 * double(k % 3);
    families[3][k] = rng.uniform(0.0, 1.0) < 0.4 ? 0.0 : rng.uniform(0.0, 1.0);
  }
  return families;
}

std::vector<net::LinkId> chain_links(const net::Network& net, std::size_t hops) {
  std::vector<net::LinkId> links;
  for (std::size_t i = 0; i < hops; ++i) links.push_back(*net.find_link(i, i + 1));
  return links;
}

void expect_same_set(const IndependentSet& got, const IndependentSet& want) {
  EXPECT_EQ(got.links, want.links);
  EXPECT_EQ(got.rates, want.rates);
  EXPECT_EQ(got.mbps, want.mbps);
}

void expect_same_result(const MaxWeightSetResult& got,
                        const MaxWeightSetResult& want) {
  EXPECT_EQ(got.weight, want.weight);
  expect_same_set(got.set, want.set);
  ASSERT_EQ(got.extras.size(), want.extras.size());
  for (std::size_t e = 0; e < got.extras.size(); ++e)
    expect_same_set(got.extras[e], want.extras[e]);
}

/// Compare the library against the oracle on every weight family, at
/// floor 0 and at a floor just under the oracle's weight (which prunes
/// the runner-ups).
void expect_matches_oracle(const Universe& u, std::uint64_t seed) {
  SCOPED_TRACE(u.name);
  const auto families = dual_shaped_weights(u, seed);
  for (std::size_t f = 0; f < families.size(); ++f) {
    SCOPED_TRACE("weight family " + std::to_string(f));
    const auto& w = families[f];
    const auto want = oracle_heuristic(*u.ctx, w, 0.0, kStarts);
    const auto got =
        heuristic_weight_independent_set_physical(*u.ctx, w, 0.0, kStarts);
    ASSERT_FALSE(want.set.links.empty());
    expect_same_result(got, want);
    const double floor = 0.95 * want.weight;
    expect_same_result(
        heuristic_weight_independent_set_physical(*u.ctx, w, floor, kStarts),
        oracle_heuristic(*u.ctx, w, floor, kStarts));
  }
}

TEST(PhysicalHeuristic, MatchesOracleOnSeedAndChainUniverses) {
  const net::Network short_net(geom::chain(6, 70.0),
                               phy::PhyModel::paper_default());
  const PhysicalInterferenceModel short_model(short_net);
  const auto five = chain_links(short_net, 5);
  expect_matches_oracle(
      make_universe("physical 5-link chain", short_model, {{five[0], five[1]}},
                    {five.begin() + 2, five.end()}),
      1);

  const net::Network long_net(geom::chain(27, 70.0),
                              phy::PhyModel::paper_default());
  const PhysicalInterferenceModel long_model(long_net);
  const auto chain = chain_links(long_net, 26);
  expect_matches_oracle(
      make_universe("26-link chain", long_model,
                    {{chain.begin(), chain.begin() + 6}}, chain),
      2);
}

TEST(PhysicalHeuristic, MatchesOracleOnGrid) {
  // The 5x5 grid of the column-generation suite: a 24-link serpentine
  // through every node plus two background flows on the middle column.
  constexpr std::size_t kRows = 5, kCols = 5;
  const net::Network net(geom::grid(kRows, kCols, 70.0),
                         phy::PhyModel::paper_default());
  const PhysicalInterferenceModel model(net);
  const auto node = [](std::size_t r, std::size_t c) { return r * kCols + c; };
  std::vector<net::LinkId> snake;
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c + 1 < kCols; ++c) {
      const std::size_t lo = (r % 2 == 0) ? c : kCols - 2 - c;
      snake.push_back(*net.find_link(node(r, lo), node(r, lo + 1)));
    }
    if (r + 1 < kRows) {
      const std::size_t c = (r % 2 == 0) ? kCols - 1 : 0;
      snake.push_back(*net.find_link(node(r, c), node(r + 1, c)));
    }
  }
  std::vector<net::LinkId> upper, lower;
  for (std::size_t r = 0; r + 1 < kRows; ++r)
    (r < 2 ? upper : lower).push_back(*net.find_link(node(r, 2), node(r + 1, 2)));
  expect_matches_oracle(make_universe("grid", model, {upper, lower}, snake), 3);
}

TEST(PhysicalHeuristic, MatchesOracleOnScaledFig4) {
  // The scaled Fig. 4 study's last truth query: flow 8 priced over the
  // seven flows routed before it, on the default 500-node instance.
  for (std::uint64_t seed : {3u, 4u}) {
    const auto setup = benchx::make_scaled_setup(seed, 500, 8, 2.0, 12.0);
    const PhysicalInterferenceModel model(setup.network);
    routing::QosRouter router(setup.network, model);
    const std::vector<double> all_idle(setup.network.num_nodes(), 1.0);
    std::vector<std::vector<net::LinkId>> paths;
    for (const auto& request : setup.requests) {
      const auto path = router.find_path(request.src, request.dst,
                                         routing::Metric::kHopCount, all_idle);
      if (path) paths.push_back(path->links());
    }
    ASSERT_GE(paths.size(), 2u);
    const std::vector<net::LinkId> last = paths.back();
    paths.pop_back();
    expect_matches_oracle(
        make_universe("scaled Fig. 4, seed " + std::to_string(seed), model,
                      paths, last),
        seed);
  }
}

// ---------------------------------------------------------------------------
// Random sweep
// ---------------------------------------------------------------------------

void expect_feasible_and_scored(const PhysicalInterferenceModel& model,
                                const PricingContext& ctx,
                                std::span<const double> w,
                                const IndependentSet& set, double weight) {
  ASSERT_FALSE(set.links.empty());
  EXPECT_TRUE(model.supports(set.links, set.rates));
  double total = 0.0;
  for (std::size_t i = 0; i < set.links.size(); ++i) {
    const auto pos = static_cast<std::size_t>(
        std::lower_bound(ctx.universe.begin(), ctx.universe.end(),
                         set.links[i]) -
        ctx.universe.begin());
    total += w[pos] * model.rate_table()[set.rates[i]].mbps;
  }
  EXPECT_NEAR(weight, total, 1e-12 * std::max(1.0, total));
}

TEST(PhysicalHeuristic, RandomSweepFeasibleScoredAndThreadIndependent) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const phy::PhyModel phy = phy::PhyModel::paper_default();
    const net::Network net(
        geom::connected_random_density(40, phy.max_tx_range(), 8.0, rng), phy);
    const PhysicalInterferenceModel model(net);
    // A random universe of up to 60 links.
    std::vector<net::LinkId> links(net.num_links());
    std::iota(links.begin(), links.end(), net::LinkId{0});
    for (std::size_t i = links.size(); i > 1; --i)
      std::swap(links[i - 1], links[rng.uniform_int(0, i - 1)]);
    links.resize(std::min<std::size_t>(links.size(), 60));
    const std::vector<net::LinkId> background(links.begin(),
                                              links.begin() + links.size() / 2);
    const Universe u = make_universe(
        "random", model, {background},
        {links.begin() + links.size() / 2, links.end()});
    for (const auto& w : dual_shaped_weights(u, seed)) {
      std::vector<MaxWeightSetResult> runs;
      for (const char* threads : {"1", "4"}) {
        ThreadEnvGuard env(threads);
        runs.push_back(
            heuristic_weight_independent_set_physical(*u.ctx, w, 0.0, kStarts));
      }
      expect_same_result(runs[1], runs[0]);
      expect_same_result(runs[0], oracle_heuristic(*u.ctx, w, 0.0, kStarts));
      if (runs[0].set.links.empty()) continue;
      expect_feasible_and_scored(model, *u.ctx, w, runs[0].set, runs[0].weight);
      for (const IndependentSet& extra : runs[0].extras) {
        ASSERT_FALSE(extra.links.empty());
        EXPECT_TRUE(model.supports(extra.links, extra.rates));
      }
    }
  }
}

}  // namespace
}  // namespace mrwsn::core
