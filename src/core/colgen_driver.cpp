#include "core/colgen_driver.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace mrwsn::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Pricing weights at or below this fraction of the round's largest weight
/// are dual round-off on links the master prices at zero; they are zeroed
/// so that whether such a link joins a priced set cannot depend on the
/// build's floating-point contraction.
constexpr double kDualNoiseTol = 1e-12;

/// Wentges smoothing: the stability center's weight (0.3 measured best on
/// the long-chain tailing-off instances — 26-link chain, exact-only
/// pricing: 130 pricing rounds vs 218 unstabilized — and neutral on grid
/// universes), and the pricing rounds before it activates (every seed
/// scenario converges within them, unstabilized).
constexpr double kSmoothingAlpha = 0.3;
constexpr std::size_t kSmoothingWarmup = 8;

/// Entering-column reduced-cost cutoff.
constexpr double kReducedCostTol = 1e-7;

}  // namespace

void require_distinct_links(std::span<const net::LinkId> path) {
  std::vector<net::LinkId> sorted(path.begin(), path.end());
  std::sort(sorted.begin(), sorted.end());
  MRWSN_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                    sorted.end(),
                "a new path cannot list a link twice");
}

Eq6Master eq6_master(std::span<const net::LinkId> universe,
                     std::span<const std::span<const net::LinkId>> paths,
                     std::span<const double> rhs, Eq6Pass pass,
                     double floor) {
  MRWSN_ASSERT(rhs.size() == universe.size(), "one rhs per universe link");
  const bool floor_pass = pass == Eq6Pass::kFloor;
  Eq6Master out{lp::Problem(lp::Objective::kMaximize)};
  lp::Problem& problem = out.problem;
  for (std::size_t j = 0; j < paths.size(); ++j)
    problem.add_variable(floor_pass ? 0.0 : 1.0, "f" + std::to_string(j));
  if (floor_pass) {
    const lp::VarId t = problem.add_variable(1.0, "t");
    for (lp::VarId fj = 0; fj < t; ++fj)
      problem.add_constraint({{fj, 1.0}, {t, -1.0}}, lp::Sense::kGreaterEqual,
                             0.0);
  } else if (pass == Eq6Pass::kSumAtFloor) {
    for (std::size_t j = 0; j < paths.size(); ++j)
      problem.add_constraint({{static_cast<lp::VarId>(j), 1.0}},
                             lp::Sense::kGreaterEqual, floor - 1e-9);
  }
  out.row0 = problem.num_constraints();
  problem.add_constraint({}, lp::Sense::kLessEqual, 1.0);

  // The f_j terms of each link row, by universe position.
  std::vector<std::vector<std::pair<lp::VarId, double>>> terms(universe.size());
  for (std::size_t j = 0; j < paths.size(); ++j) {
    require_distinct_links(paths[j]);
    for (const net::LinkId link : paths[j]) {
      const auto it = std::lower_bound(universe.begin(), universe.end(), link);
      MRWSN_ASSERT(it != universe.end() && *it == link,
                   "the universe holds every path link");
      terms[static_cast<std::size_t>(it - universe.begin())].emplace_back(
          static_cast<lp::VarId>(j), -1.0);
    }
  }
  for (std::size_t k = 0; k < universe.size(); ++k)
    problem.add_constraint(terms[k], lp::Sense::kGreaterEqual, rhs[k]);
  return out;
}

ColGenDriver::ColGenDriver(const InterferenceModel& model,
                           std::span<const net::LinkId> universe,
                           const ColumnGenOptions& options)
    : model_(model),
      universe_(universe),
      options_(options),
      weights_(universe.size()),
      link_weights_(model.num_links(), 0.0) {}

void ColGenMaster::exact_extras(std::vector<IndependentSet> extras) {
  for (IndependentSet& extra : extras) add_column(std::move(extra));
}

void Tier0Ranking::offer(std::size_t index, const IndependentSet& set) {
  double score = 0.0;
  for (std::size_t k = 0; k < set.links.size(); ++k)
    score += link_weight_[set.links[k]] * set.mbps[k];
  if (score > floor_) scored_.emplace_back(score, index);
}

std::vector<std::size_t> Tier0Ranking::best(std::size_t cap) {
  const std::size_t take = std::min(cap, scored_.size());
  std::partial_sort(
      scored_.begin(), scored_.begin() + static_cast<std::ptrdiff_t>(take),
      scored_.end(), [](const auto& a, const auto& b) {
        return a.first > b.first || (a.first == b.first && a.second < b.second);
      });
  std::vector<std::size_t> picked(take);
  for (std::size_t i = 0; i < take; ++i) picked[i] = scored_[i].second;
  return picked;
}

double ColGenDriver::load_weights(const std::vector<double>& duals,
                                  double sign) {
  // Reduced cost of a candidate column α (objective coefficient 0):
  //   rc = -(duals[0] + Σ_e duals[e] · R_α[e]).
  // An improving column (rc < 0 when minimizing, > 0 when maximizing)
  // therefore scores Σ_e w_e R_α[e] above the floor. The duals' sign
  // constraints make the clamp a no-op up to round-off.
  double max_weight = 0.0;
  for (std::size_t k = 0; k < universe_.size(); ++k) {
    weights_[k] = std::max(0.0, sign * duals[1 + k]);
    max_weight = std::max(max_weight, weights_[k]);
  }
  const double max_mbps = model_.rate_table().max_mbps();
  double zeroed_mass = 0.0;
  for (double& w : weights_) {
    if (w > 0.0 && w <= kDualNoiseTol * max_weight) {
      zeroed_mass += w * max_mbps;
      w = 0.0;
    }
  }
  return zeroed_mass;
}

bool ColGenDriver::price(ColGenMaster& master,
                         const std::vector<double>& duals, double sign,
                         bool exact_tier, ColumnGenStats* stats) {
  ++stats->rounds;
  exact_max_weight_ = kInf;
  const double zeroed_mass = load_weights(duals, sign);
  const double floor = std::max(0.0, -sign * duals[0]) + kReducedCostTol;

  // Tier 0: the master's store of already-priced columns — no search.
  for (std::size_t k = 0; k < universe_.size(); ++k)
    link_weights_[universe_[k]] = weights_[k];
  if (const std::size_t fresh = master.tier0(link_weights_, floor);
      fresh > 0) {
    stats->pool_hit_columns += fresh;
    return true;
  }

  // Tier 1: deterministic multi-start heuristics; the winner and every
  // signature-distinct runner-up join the master at once. A dry or
  // duplicate-only heuristic round certifies nothing, and a smoothed round
  // stops there. With no starts every round is exact, smoothed ones too.
  if (options_.heuristic_starts > 0) {
    MaxWeightSetResult h = model_.heuristic_max_weight_independent_set(
        universe_, weights_, floor, options_.heuristic_starts);
    if (h.found()) {
      std::size_t fresh = master.add_column(std::move(h.set)) ? 1 : 0;
      for (IndependentSet& extra : h.extras)
        if (master.add_column(std::move(extra))) ++fresh;
      stats->heuristic_columns += fresh;
      if (fresh > 0) return true;
    }
    if (!exact_tier) return false;
  }

  // Tier 2: the exact branch-and-bound, the certificate tier.
  ++stats->exact_rounds;
  MaxWeightSetResult priced =
      model_.max_weight_independent_set(universe_, weights_, floor);
  exact_max_weight_ = priced.max_weight + zeroed_mass;
  const bool fresh = priced.found() && master.add_column(std::move(priced.set));
  master.exact_extras(std::move(priced.extras));
  return fresh;
}

ColGenOutcome ColGenDriver::run(ColGenMaster& master, ColumnGenStats* stats,
                                const ColGenStop& stop) {
  ColGenOutcome out;
  const double sign = master.sense() == lp::Objective::kMinimize ? 1.0 : -1.0;
  std::vector<double> incumbent(universe_.size() + 1);
  // Wentges (in-out) stability center: the dual vector of the last
  // successful pricing round.
  std::vector<double> center;
  for (;;) {
    lp::Solution solution = master.solve();
    // Only a pivot-budget blowout lands here (every master is feasible and
    // bounded); the previous solution stands, unconverged.
    if (!solution.optimal()) break;
    out.solution = std::move(solution);
    out.solved = true;

    if (stop && stop(out.solution.objective, -sign * kInf)) {
      out.converged = true;
      break;
    }
    if (stats->rounds >= options_.max_rounds ||
        master.num_columns() >= options_.max_columns)
      break;
    master.duals(out.solution, incumbent);
    // Lagrangian bound on the full master's optimum from an upper bound W
    // on the incumbent duals' maximum column weight: every column's reduced
    // cost is at least u − W, and Σλ <= 1 caps how much of it any solution
    // collects (DESIGN.md §9, "Phase A certificate").
    const auto lagrangian_bound = [&](double max_weight) {
      const double u = std::max(0.0, -sign * incumbent[0]);
      return out.solution.objective - sign * std::max(0.0, max_weight - u);
    };
    if (stop) {
      // The oracle's root bound, with no search: when it already settles
      // the run, no tier runs this round.
      const double zeroed_mass = load_weights(incumbent, sign);
      const double bound = lagrangian_bound(
          model_.max_weight_upper_bound(universe_, weights_) + zeroed_mass);
      if (stop(out.solution.objective, bound)) {
        out.converged = true;
        stats->certified = true;
        break;
      }
    }

    // Stabilized rounds price against a convex combination of the
    // stability center and the incumbent duals, and escalate to the exact
    // oracle only when there is no Tier 1. A mispricing — no new column —
    // falls back to the incumbent duals within the same round, so
    // convergence is only ever declared from exact pricing.
    bool added = false;
    if (!center.empty() && stats->rounds >= kSmoothingWarmup) {
      std::vector<double> smoothed(incumbent.size());
      for (std::size_t i = 0; i < smoothed.size(); ++i)
        smoothed[i] = kSmoothingAlpha * center[i] +
                      (1.0 - kSmoothingAlpha) * incumbent[i];
      if (price(master, smoothed, sign, /*exact_tier=*/false, stats)) {
        added = true;
        center = std::move(smoothed);
      } else {
        ++stats->mispricings;
      }
    }
    if (added) continue;
    if (!price(master, incumbent, sign, /*exact_tier=*/true, stats)) {
      // The exact oracle ran on the incumbent duals and found nothing the
      // master lacks (a duplicate only comes from round-off within
      // tolerance): the optimality certificate.
      out.converged = true;
      stats->certified = true;
      break;
    }
    if (stop && exact_max_weight_ < kInf) {
      // An exact round on the incumbent duals proved W* itself.
      if (stop(out.solution.objective, lagrangian_bound(exact_max_weight_))) {
        out.converged = true;
        stats->certified = true;
        break;
      }
    }
    center = incumbent;
  }
  stats->columns = master.num_columns();
  return out;
}

}  // namespace mrwsn::core
