#pragma once

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/available_bandwidth.hpp"
#include "core/interference.hpp"
#include "lp/simplex.hpp"

namespace mrwsn::core {

/// One restricted master as ColGenDriver sees it. The adapter owns the LP,
/// its warm-start policy and its column store; the driver owns every
/// pricing rule. A column α prices at rc = −(y_0 + Σ_e y_e · R_α[e]), y_0
/// being the dual of the master's Σλ <= 1 row ("row 0"); a master whose
/// columns instead cost one unit of airtime each reports y_0 = −1.
class ColGenMaster {
 public:
  virtual lp::Objective sense() const = 0;
  /// Solve the master as it stands. A non-optimal status ends the run.
  virtual lp::Solution solve() = 0;
  /// out[0] = y_0; out[1 + k] = the dual of the row of pricing-universe
  /// position k, or 0 when that link has no row.
  virtual void duals(const lp::Solution& solution,
                     std::span<double> out) const = 0;
  /// Tier 0: move stored columns scoring above `floor` under `link_weight`
  /// (indexed by link id) into the master, chosen by Tier0Ranking up to
  /// the adapter's cap. Returns how many the master gained.
  virtual std::size_t tier0(std::span<const double> link_weight,
                            double floor) = 0;
  /// True when the master gained `set` (false: it holds the same column).
  virtual bool add_column(IndependentSet set) = 0;
  /// The runner-up sets of an exact round, offered after its winner; by
  /// default each goes through add_column (more columns per oracle call,
  /// fewer solve/price rounds, at no search cost).
  virtual void exact_extras(std::vector<IndependentSet> extras);
  /// Column count the max_columns cap applies to.
  virtual std::size_t num_columns() const = 0;

 protected:
  ~ColGenMaster() = default;  // adapters are never deleted through this
};

/// Tier 0 selection shared by every adapter: offer each stored column the
/// master may take, with its index in the store; `best(cap)` returns the
/// indices of those scoring Σ_k link_weight[links[k]] · mbps[k] above the
/// floor, best first (ties: lower index), at most `cap` of them.
class Tier0Ranking {
 public:
  Tier0Ranking(std::span<const double> link_weight, double floor)
      : link_weight_(link_weight), floor_(floor) {}

  void offer(std::size_t index, const IndependentSet& set);
  std::vector<std::size_t> best(std::size_t cap);

 private:
  std::span<const double> link_weight_;
  double floor_;
  std::vector<std::pair<double, std::size_t>> scored_;
};

/// The passes of an Eq. 6 solve: max-sum is one kSum pass; max-min is a
/// kFloor pass, then a kSumAtFloor pass with the floor pinned.
enum class Eq6Pass { kSum, kFloor, kSumAtFloor };

/// The fixed part of one Eq. 6 master; λ columns are appended after it.
struct Eq6Master {
  lp::Problem problem;
  std::size_t row0 = 0;  ///< the Σλ <= 1 row; link rows follow it
};

/// The one builder of the Eq. 6 row layout, for the one-shot solves and
/// AdmissionEngine's query master alike. Variables: f_0 .. f_{J-1}, one
/// per new path, then t on a kFloor pass. Rows: on the max-min passes J
/// leading rows (f_j − t >= 0 on kFloor, f_j >= floor − 1e-9 on
/// kSumAtFloor); then Σλ <= 1 at row0; then, for universe position k,
/// Σ_α λ_α R_α[e_k] − Σ_j f_j I_e_k(P_j) >= rhs[k]. `universe` is
/// strictly ascending and holds every path link; a path that lists a link
/// twice is rejected (see require_distinct_links).
Eq6Master eq6_master(std::span<const net::LinkId> universe,
                     std::span<const std::span<const net::LinkId>> paths,
                     std::span<const double> rhs, Eq6Pass pass,
                     double floor = 0.0);

/// Throws PreconditionError when `path` lists a link more than once: every
/// Eq. 6 entry point counts a new path's use of a link once.
void require_distinct_links(std::span<const net::LinkId> path);

/// Optional early stop, given the objective and a Lagrangian bound on the
/// full master's optimum (below it when minimizing, above it when
/// maximizing; infinite when the call proved none). The driver asks it
/// after each master solve with an infinite bound, then on every round
/// with the bound from the model's max_weight_upper_bound on the incumbent
/// duals (before any pricing), and after an exact round on the incumbent
/// duals with the bound from its W*. True ends the run converged, and
/// certified when the bound was finite. Only phase A sets one.
using ColGenStop = std::function<bool(double objective, double bound)>;

struct ColGenOutcome {
  lp::Solution solution;   ///< last optimal master solution
  bool solved = false;     ///< some master solve reached kOptimal
  bool converged = false;  ///< optimal over all columns, or stopped early
};

/// The one restricted-master / pricing loop: the one-shot solver's phase A
/// and pass masters and both AdmissionEngine masters run here.
/// It owns
///  - the effort caps, checked after each solve: `stats->rounds` reaching
///    max_rounds (callers may carry rounds over between runs) or the
///    master holding max_columns columns ends the run unconverged;
///  - duals → weights and floor, zeroing weights at or below 1e-12 of the
///    round's largest (dual round-off);
///  - the tiers: Tier 0 (the master's store), Tier 1 (heuristics, when
///    ColumnGenOptions::heuristic_starts > 0), Tier 2 (the exact oracle,
///    when the cheap tiers come back empty);
///  - Wentges smoothing (center weight 0.3 after 8 rounds), falling back
///    to the incumbent duals on a mispricing;
///  - the certificate: an exact round on the incumbent duals that gives
///    the master nothing new ends the run converged and certified;
///  - the Lagrangian bound, for the stop predicate: every round from the
///    model's root bound W_ub, before any tier runs, and after an exact
///    round on the incumbent duals from its W* (both assume a real
///    Σλ <= 1 row 0);
///  - the per-tier counters of ColumnGenStats.
/// `universe` (strictly ascending) is what the oracles price over.
class ColGenDriver {
 public:
  ColGenDriver(const InterferenceModel& model,
               std::span<const net::LinkId> universe,
               const ColumnGenOptions& options);

  ColGenOutcome run(ColGenMaster& master, ColumnGenStats* stats,
                    const ColGenStop& stop = nullptr);

 private:
  /// Fill weights_ from `duals`: clamped at zero, with round-off weights
  /// zeroed. Returns the zeroed weights' mass at the table's fastest rate,
  /// the most they could add to any column's weight.
  double load_weights(const std::vector<double>& duals, double sign);

  /// One pricing round; true when the master gained a column.
  bool price(ColGenMaster& master, const std::vector<double>& duals,
             double sign, bool exact_tier, ColumnGenStats* stats);

  const InterferenceModel& model_;
  std::span<const net::LinkId> universe_;
  const ColumnGenOptions& options_;
  std::vector<double> weights_;       ///< by universe position
  std::vector<double> link_weights_;  ///< by link id, for Tier 0
  /// Bound on the last round's exact maximum weight under the unrounded
  /// weights; +inf when the round did not reach the exact oracle.
  double exact_max_weight_ = 0.0;
};

}  // namespace mrwsn::core
