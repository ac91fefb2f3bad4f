#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/network.hpp"
#include "phy/rate.hpp"

namespace mrwsn::core {

class ConflictMatrix;
struct PricingContext;

/// A rate-coupled independent set (Section 2.4 of the paper): a set of
/// links together with one transmission rate per link such that every link
/// can sustain its rate while all links in the set transmit concurrently.
///
/// In a multirate network an independent set is *not* just a set of links —
/// the same links may be jointly feasible at one rate vector and infeasible
/// at another. `links` and `rates`/`mbps` are parallel arrays; `links` is
/// sorted ascending.
struct IndependentSet {
  std::vector<net::LinkId> links;
  std::vector<phy::RateIndex> rates;
  std::vector<double> mbps;

  std::size_t size() const { return links.size(); }

  /// Throughput this set delivers on `link` when scheduled (0 when the
  /// link is not a member). This is one column of the paper's R*_i vector.
  double mbps_on(net::LinkId link) const;

  /// True when scheduling `other` instead of this set delivers at least as
  /// much throughput on every link of this set ("other dominates this").
  /// Dominated sets are redundant in the available-bandwidth LP.
  bool dominated_by(const IndependentSet& other) const;
};

/// Canonical (links, rates) key of a column — the dedup signature of every
/// column store (the one-shot masters' pool and stash, AdmissionEngine's
/// persistent pool and its per-query masters).
std::vector<std::uint64_t> column_signature(const IndependentSet& set);

/// Remove every set dominated by another set in the collection (keeps the
/// first of exact duplicates).
std::vector<IndependentSet> remove_dominated(std::vector<IndependentSet> sets);

/// Result of a max-weight independent-set search (the pricing oracle of
/// column generation). `set` is empty when no feasible set scores strictly
/// above the floor the caller supplied; otherwise `weight` is the achieved
/// score  sum_i link_weight[i] * mbps_i  over the set's members.
struct MaxWeightSetResult {
  IndependentSet set;
  double weight = 0.0;
  /// Exact oracles only: an upper bound on every feasible set's score —
  /// the maximum when `set` is non-empty, the floor otherwise. `weight`
  /// sits at most a 1e-9 relative tie band below the maximum: among sets
  /// tied with it the exact searches return the largest, then the one with
  /// the lowest (link, rate) signature, so round-off in the weights cannot
  /// decide which tied set wins.
  double max_weight = 0.0;

  /// Runner-up feasible sets that scored above the floor but were later
  /// beaten while proving `set` optimal — free byproducts of the
  /// branch-and-bound's improving chain (most recent last, none above
  /// `max_weight`). Column-generation callers can add them as extra
  /// master columns per pricing round, which cuts the number of
  /// solve/price rounds without affecting exactness. Deterministic and
  /// independent of MRWSN_THREADS, like `set` itself.
  std::vector<IndependentSet> extras;

  bool found() const { return !set.links.empty(); }
};

/// Relative pad on the exact searches' optimistic bounds (and on
/// InterferenceModel::max_weight_upper_bound). A bound sums the same
/// non-negative products as the weights it bounds, but in another order
/// (and the physical search forms it by running updates), so round-off
/// alone could put a set a few ulps above it. The pad dwarfs that
/// round-off and stays far below the exact searches' 1e-9 tie band.
inline constexpr double kBoundPad = 1e-10;

/// Exact max-weight rate-coupled independent set under the protocol model:
/// a branch-and-bound search for the maximum-weight clique of the
/// compatibility graph in `matrix` (whose vertices are usable (link, rate)
/// couples), scoring couple (e, r) as
/// `link_weight[universe position of e] * rates[r].mbps`.
///
/// `link_weight` is parallel to matrix.universe() and must be
/// non-negative. Only sets scoring strictly above `floor` are reported.
/// The result is deterministic and independent of MRWSN_THREADS.
MaxWeightSetResult max_weight_independent_set_protocol(
    const ConflictMatrix& matrix, const phy::RateTable& rates,
    std::span<const double> link_weight, double floor = 0.0);

/// Exact max-weight independent set under the physical (cumulative-SINR)
/// model: a branch-and-bound over the links of `context.universe`, tracking
/// incremental interference so each member's rate is its true concurrent
/// maximum (pairwise compatibility is necessary but not sufficient under
/// cumulative SINR). Scoring, `link_weight` convention (parallel to
/// context.universe, non-negative), `floor`, and determinism match the
/// protocol variant.
MaxWeightSetResult max_weight_independent_set_physical(
    const PricingContext& context, std::span<const double> link_weight,
    double floor = 0.0);

/// The protocol search's bound before it branches: each universe link's
/// best positive-weight couple, summed (a clique holds at most one couple
/// per link), padded by kBoundPad. At least the exact search's
/// `max_weight` for the same inputs.
double max_weight_upper_bound_protocol(const ConflictMatrix& matrix,
                                       const phy::RateTable& rates,
                                       std::span<const double> link_weight);

/// The physical search's root bound: over a greedy clique cover of the
/// pairwise conflicts among the positive-weight links (shared node, or
/// either one cannot decode with only the other on air), the sum of each
/// clique's best alone score (link weight * alone mbps), padded by
/// kBoundPad. A feasible set holds at most one link per clique and no
/// member beats its alone rate, so this is at least the exact search's
/// `max_weight` for the same inputs.
double max_weight_upper_bound_physical(const PricingContext& context,
                                       std::span<const double> link_weight);

/// Heuristic (Tier 1) pricing under the protocol model: a weight-ordered
/// greedy clique constructor over the compatibility bits plus a (1,k)-swap
/// local search, run as a deterministic multi-start with a best-of
/// reduction independent of MRWSN_THREADS. `starts` counts the independent
/// greedy + local-search starts: start 0 orders candidates by exact weight,
/// later starts use deterministically jittered weight orderings, so more
/// starts buy diversity without giving up reproducibility; 0 returns an
/// empty result. Never reports a set at or below `floor`; an empty result
/// means the heuristic dried up, NOT that no improving set exists — callers
/// needing optimality must escalate to the exact oracle above. Runner-up
/// starts that also beat the floor come back in `extras` (weight
/// descending, signature-distinct).
MaxWeightSetResult heuristic_weight_independent_set_protocol(
    const ConflictMatrix& matrix, const phy::RateTable& rates,
    std::span<const double> link_weight, double floor, std::size_t starts);

/// Heuristic (Tier 1) pricing under the physical (cumulative-SINR) model:
/// greedy insertion in jittered alone-weight order with exact incremental
/// interference tracking (members keep their true concurrent max rates),
/// improved by a drop-one + greedy-refill local search. Same multi-start,
/// determinism, floor, and extras contract as the protocol variant.
MaxWeightSetResult heuristic_weight_independent_set_physical(
    const PricingContext& context, std::span<const double> link_weight,
    double floor, std::size_t starts);

}  // namespace mrwsn::core
