#include "core/available_bandwidth.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "core/colgen_driver.hpp"
#include "lp/simplex.hpp"
#include "util/error.hpp"

namespace mrwsn::core {

namespace {

constexpr double kTimeShareFloor = 1e-9;

/// Phase A optimum below this is "the background is deliverable" (the
/// artificial slacks are zero up to simplex round-off, in Mbps).
constexpr double kPhaseATol = 1e-7;

/// Most stashed (Tier 0) columns promoted into a one-shot master per
/// round; keeps degenerate duals from flooding the master with
/// near-duplicates.
constexpr std::size_t kStashTier0Cap = 4;

/// Sorted, deduplicated links of the new paths and the background flows.
std::vector<net::LinkId> union_of_links(
    std::span<const LinkFlow> background,
    std::span<const std::span<const net::LinkId>> paths) {
  std::vector<net::LinkId> universe;
  for (const std::span<const net::LinkId> path : paths)
    universe.insert(universe.end(), path.begin(), path.end());
  for (const LinkFlow& flow : background)
    universe.insert(universe.end(), flow.links.begin(), flow.links.end());
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()), universe.end());
  return universe;
}

/// The scheduled sets of `solution`, whose λ_i is VarId first_lambda + i.
std::vector<ScheduledSet> extract_schedule(const std::vector<IndependentSet>& sets,
                                           const lp::Solution& solution,
                                           std::size_t first_lambda) {
  std::vector<ScheduledSet> schedule;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const double share =
        solution.value(static_cast<lp::VarId>(first_lambda + i));
    if (share > kTimeShareFloor) schedule.push_back({sets[i], share});
  }
  return schedule;
}

/// The λ columns one solve's masters share (phase A and the passes), with
/// a signature guard so numerically stalled pricing (regenerating an
/// existing column off dual round-off) is detected instead of looping,
/// plus the Tier 0 stash of priced-but-unpromoted candidates (the exact
/// oracle's runner-up extras).
struct ColumnPool {
  std::vector<IndependentSet> sets;
  std::set<std::vector<std::uint64_t>> signatures;
  std::vector<IndependentSet> candidates;
  std::set<std::vector<std::uint64_t>> candidate_signatures;

  /// Append `set` unless an identical (links, rates) column exists.
  bool add(IndependentSet set) {
    if (!signatures.insert(column_signature(set)).second) return false;
    sets.push_back(std::move(set));
    return true;
  }

  /// Stash `set` as a Tier 0 candidate unless the master or the stash
  /// already holds an identical column.
  void stash(IndependentSet set) {
    auto key = column_signature(set);
    if (signatures.count(key) != 0) return;
    if (!candidate_signatures.insert(std::move(key)).second) return;
    candidates.push_back(std::move(set));
  }
};

/// One master of a one-shot solve, grown in place over a ColumnPool. The
/// caller builds its fixed part — the leading variables (f, t or the
/// artificial slacks) and every row, the Σλ <= 1 row at `row0` followed
/// by one row per universe link — and the master appends one λ column per
/// pool column, now and as pricing grows the pool. λ ids therefore follow
/// pool order after the fixed variables, so the saved basis stays valid
/// across re-solves, and the rows hold the same sorted terms a
/// from-scratch build would.
class PoolMaster final : public ColGenMaster {
 public:
  PoolMaster(lp::Problem fixed, std::size_t row0,
             std::span<const net::LinkId> universe, ColumnPool* pool,
             const ColumnGenOptions& options, ColumnGenStats* stats)
      : problem_(std::move(fixed)),
        row0_(row0),
        universe_(universe),
        pool_(pool),
        options_(options),
        stats_(stats) {
    for (const IndependentSet& set : pool_->sets) append(set);
  }

  lp::Objective sense() const override { return problem_.objective(); }

  lp::Solution solve() override {
    lp::SolveOptions solve_options;
    solve_options.warm_start = basis_.empty() ? nullptr : &basis_;
    solve_options.context = &context_;
    if (solve_options.warm_start != nullptr) ++stats_->warm_starts;
    lp::Solution solution = lp::solve(problem_, solve_options);
    if (solution.optimal()) basis_ = solution.basis;
    return solution;
  }

  void duals(const lp::Solution& solution,
             std::span<double> out) const override {
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = solution.dual(row0_ + i);
  }

  /// Promote the stashed candidates Tier0Ranking picks (ties keep stash
  /// order), capped per round.
  std::size_t tier0(std::span<const double> link_weight,
                    double floor) override {
    std::vector<IndependentSet>& candidates = pool_->candidates;
    Tier0Ranking ranking(link_weight, floor);
    for (std::size_t c = 0; c < candidates.size(); ++c)
      ranking.offer(c, candidates[c]);
    const std::vector<std::size_t> picked = ranking.best(kStashTier0Cap);
    if (picked.empty()) return 0;
    std::vector<char> promoted(candidates.size(), 0);
    for (const std::size_t c : picked) promoted[c] = 1;
    // Promote in stash order and compact the stash in the same pass.
    std::size_t fresh = 0;
    std::size_t kept = 0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (promoted[c]) {
        pool_->candidate_signatures.erase(column_signature(candidates[c]));
        if (add_column(std::move(candidates[c]))) ++fresh;
        continue;
      }
      if (kept != c) candidates[kept] = std::move(candidates[c]);
      ++kept;
    }
    candidates.resize(kept);
    return fresh;
  }

  bool add_column(IndependentSet set) override {
    if (!pool_->add(std::move(set))) return false;
    append(pool_->sets.back());
    return true;
  }

  /// Runner-ups price below the optimum now but often price positive
  /// under later duals: stashed for Tier 0, or dropped with no heuristic
  /// starts (the exact-only reference loop).
  void exact_extras(std::vector<IndependentSet> extras) override {
    if (options_.heuristic_starts == 0) return;
    for (IndependentSet& extra : extras) pool_->stash(std::move(extra));
  }

  std::size_t num_columns() const override { return pool_->sets.size(); }

 private:
  void append(const IndependentSet& set) {
    const lp::VarId id = problem_.add_variable(0.0);
    problem_.append_term(row0_, id, 1.0);
    for (std::size_t k = 0; k < set.links.size(); ++k) {
      const auto position = std::lower_bound(universe_.begin(),
                                             universe_.end(), set.links[k]) -
                            universe_.begin();
      problem_.append_term(row0_ + 1 + static_cast<std::size_t>(position), id,
                           set.mbps[k]);
    }
  }

  lp::Problem problem_;
  std::size_t row0_;
  std::span<const net::LinkId> universe_;
  ColumnPool* pool_;
  const ColumnGenOptions& options_;
  ColumnGenStats* stats_;
  lp::Basis basis_;
  lp::RevisedContext context_;
};

/// One Eq. 6 solve's column pool and its driver. The pool starts with one
/// singleton column per universe link that can carry traffic at all, a
/// cheap cover that makes every later master feasible; each master runs
/// through the driver, whose stats accumulate over the solve (so the
/// effort caps span it).
class OneShot {
 public:
  OneShot(const InterferenceModel& model, std::span<const net::LinkId> universe,
          const ColumnGenOptions& options, ColumnGenStats* stats)
      : universe_(universe),
        options_(options),
        stats_(stats),
        driver_(model, universe, options) {
    for (net::LinkId link : universe)
      if (auto set = singleton_column(model, link)) pool_.add(std::move(*set));
  }

  const std::vector<IndependentSet>& columns() const { return pool_.sets; }

  /// Solve the master whose fixed part is `fixed` (see PoolMaster).
  ColGenOutcome run(lp::Problem fixed, std::size_t row0,
                    const ColGenStop& stop = nullptr) {
    PoolMaster master(std::move(fixed), row0, universe_, &pool_, options_,
                      stats_);
    return driver_.run(master, stats_, stop);
  }

  /// Phase A of a two-phase column generation: can the background demands
  /// (`rhs`, by universe position) alone be delivered? Minimizes the sum
  /// of per-demanded-link artificial slacks. A zero optimum means the pool
  /// now delivers the background; a positive lower bound on the optimum —
  /// a Lagrangian bound from the model's root bound on any round or from
  /// an exact round (DESIGN.md §9, "Phase A certificate"), or convergence
  /// — proves it undeliverable. False (proven
  /// or capped) means no passes; the stats' `converged` then says which.
  bool phase_a(std::span<const double> rhs) {
    // One artificial slack per demanded link, ahead of the λ columns.
    lp::Problem problem(lp::Objective::kMinimize);
    for (const double demand : rhs)
      if (demand > 0.0)
        problem.add_variable(1.0, "s" + std::to_string(problem.num_variables()));
    stats_->converged = true;
    if (problem.num_variables() == 0) return true;
    problem.add_constraint({}, lp::Sense::kLessEqual, 1.0);
    lp::VarId next_slack = 0;
    for (const double demand : rhs) {
      std::vector<std::pair<lp::VarId, double>> row;
      if (demand > 0.0) row.emplace_back(next_slack++, 1.0);
      problem.add_constraint(row, lp::Sense::kGreaterEqual, demand);
    }
    const ColGenOutcome result =
        run(std::move(problem), /*row0=*/0, [](double objective, double bound) {
          return objective <= kPhaseATol || bound > kPhaseATol;
        });
    stats_->converged = result.converged;
    return result.solved && result.converged &&
           result.solution.objective <= kPhaseATol;
  }

 private:
  std::span<const net::LinkId> universe_;
  const ColumnGenOptions& options_;
  ColumnGenStats* stats_;
  ColumnPool pool_;
  ColGenDriver driver_;
};

struct Eq6Solve {
  JointBandwidthResult result;
  std::vector<net::LinkId> universe;
  lp::Solution last;  ///< the final pass's master solution, when feasible
};

/// The one Eq. 6 solve: the joint LP of §2.5 over the new `paths` against
/// the background, of which single-path Eq. 6 is the J = 1 max-sum case.
/// kMaxSum is one pass; kMaxMin is the lexicographic floor pass, then the
/// sum pass with the floor pinned. Every pass builds its fixed part with
/// eq6_master and solves it over the one pool, with a warm chain per pass
/// (the passes' row structures differ, so a basis never crosses passes).
Eq6Solve solve_eq6(const InterferenceModel& model,
                   std::span<const LinkFlow> background,
                   std::span<const std::span<const net::LinkId>> paths,
                   JointObjective objective, const ColumnGenOptions& options) {
  for (const std::span<const net::LinkId> path : paths) {
    MRWSN_REQUIRE(!path.empty(), "every new path needs at least one link");
    require_distinct_links(path);
  }
  Eq6Solve out;
  out.universe = union_of_links(background, paths);
  const std::vector<net::LinkId>& universe = out.universe;
  const std::vector<double> bg_demand = accumulate_link_demands(model, background);
  std::vector<double> rhs;
  rhs.reserve(universe.size());
  for (const net::LinkId link : universe) rhs.push_back(bg_demand[link]);

  JointBandwidthResult& result = out.result;
  OneShot solve(model, universe, options, &result.colgen);
  const bool feasible = solve.phase_a(rhs);
  result.num_independent_sets = solve.columns().size();
  if (!feasible) return out;

  // After phase A every master is feasible (the pool delivers the
  // background with every f_j = 0) and bounded (Σλ <= 1 caps each f_j
  // through its path's rows), so a run either converges or hits the
  // effort caps.
  std::vector<Eq6Pass> passes{Eq6Pass::kSum};
  if (objective == JointObjective::kMaxMin)
    passes = {Eq6Pass::kFloor, Eq6Pass::kSumAtFloor};
  bool converged = result.colgen.converged;
  double floor = 0.0;
  for (const Eq6Pass pass : passes) {
    Eq6Master fixed = eq6_master(universe, paths, rhs, pass, floor);
    const std::size_t first_lambda = fixed.problem.num_variables();
    ColGenOutcome run = solve.run(std::move(fixed.problem), fixed.row0);
    MRWSN_ASSERT(run.solved, "an Eq. 6 master after phase A cannot fail");
    converged = converged && run.converged;
    if (pass == Eq6Pass::kFloor) {
      // t is the variable right after the f_j block.
      floor = run.solution.value(static_cast<lp::VarId>(paths.size()));
      continue;
    }
    result.background_feasible = true;
    for (std::size_t j = 0; j < paths.size(); ++j) {
      const double mbps = run.solution.value(static_cast<lp::VarId>(j));
      result.per_path_mbps.push_back(mbps);
      result.total_mbps += mbps;
    }
    result.schedule =
        extract_schedule(solve.columns(), run.solution, first_lambda);
    out.last = std::move(run.solution);
  }
  result.colgen.converged = converged;
  result.num_independent_sets = solve.columns().size();
  return out;
}

}  // namespace

std::vector<double> accumulate_link_demands(const InterferenceModel& model,
                                            std::span<const LinkFlow> flows) {
  std::vector<double> demand(model.num_links(), 0.0);
  for (const LinkFlow& flow : flows) {
    MRWSN_REQUIRE(flow.demand_mbps >= 0.0, "flow demand cannot be negative");
    for (net::LinkId link : flow.links) {
      MRWSN_REQUIRE(link < model.num_links(), "flow link id out of range");
      demand[link] += flow.demand_mbps;
    }
  }
  return demand;
}

AvailableBandwidthResult max_path_bandwidth(const InterferenceModel& model,
                                            std::span<const LinkFlow> background,
                                            std::span<const net::LinkId> new_path,
                                            const ColumnGenOptions& options) {
  const std::span<const net::LinkId> paths[] = {new_path};
  Eq6Solve solve =
      solve_eq6(model, background, paths, JointObjective::kMaxSum, options);
  AvailableBandwidthResult result;
  result.background_feasible = solve.result.background_feasible;
  result.schedule = std::move(solve.result.schedule);
  result.num_independent_sets = solve.result.num_independent_sets;
  result.colgen = solve.result.colgen;
  if (!result.background_feasible) return result;

  result.available_mbps = solve.result.total_mbps;
  // Row 0 is Σλ <= 1; rows 1.. are the per-link rows in universe order.
  // The link rows are >=-sense, so their duals are <= 0 for this
  // maximization; negate to report "bandwidth lost per extra Mbps of
  // background demand".
  result.airtime_shadow_price = solve.last.dual(0);
  for (std::size_t k = 0; k < solve.universe.size(); ++k) {
    const double price = -solve.last.dual(1 + k);
    result.link_shadow_prices.emplace_back(
        solve.universe[k], price > kTimeShareFloor ? price : 0.0);
  }
  return result;
}

JointBandwidthResult max_joint_bandwidth(
    const InterferenceModel& model, std::span<const LinkFlow> background,
    std::span<const std::vector<net::LinkId>> new_paths,
    JointObjective objective, const ColumnGenOptions& options) {
  MRWSN_REQUIRE(!new_paths.empty(), "need at least one new path");
  const std::vector<std::span<const net::LinkId>> paths(new_paths.begin(),
                                                        new_paths.end());
  return solve_eq6(model, background, paths, objective, options).result;
}

double path_capacity(const InterferenceModel& model,
                     std::span<const net::LinkId> path) {
  const AvailableBandwidthResult result = max_path_bandwidth(model, {}, path);
  MRWSN_ASSERT(result.background_feasible,
               "path capacity with no background cannot be infeasible");
  return result.available_mbps;
}

}  // namespace mrwsn::core
