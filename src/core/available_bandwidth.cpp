#include "core/available_bandwidth.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>

#include "core/colgen_driver.hpp"
#include "lp/simplex.hpp"
#include "util/error.hpp"

namespace mrwsn::core {

namespace {

constexpr double kTimeShareFloor = 1e-9;

/// kAuto switches to column generation above this many universe links:
/// below it the handful of maximal sets is cheaper to materialize than to
/// price, and the seed scenarios stay on the (reference) enumeration path.
constexpr std::size_t kAutoColumnGenThreshold = 16;

/// Phase A optimum below this is "the background is deliverable" (the
/// artificial slacks are zero up to simplex round-off, in Mbps).
constexpr double kPhaseATol = 1e-7;

/// Most stashed (Tier 0) columns promoted into a one-shot master per
/// round; keeps degenerate duals from flooding the master with
/// near-duplicates.
constexpr std::size_t kStashTier0Cap = 4;

std::vector<net::LinkId> union_of_links(std::span<const LinkFlow> background,
                                        std::span<const net::LinkId> new_path) {
  std::vector<net::LinkId> universe(new_path.begin(), new_path.end());
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

// ---------------------------------------------------------------------------
// Column generation
// ---------------------------------------------------------------------------

/// The λ columns one solve's masters share (phase A, phase B, the joint
/// passes), with a signature guard so numerically stalled pricing
/// (regenerating an existing column off dual round-off) is detected
/// instead of looping, plus the Tier 0 stash of priced-but-unpromoted
/// candidates (the exact oracle's runner-up extras).
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

/// One restricted master of a one-shot solve, grown in place over a
/// ColumnPool. The caller builds its fixed part — the leading variables
/// (f, t or the artificial slacks) and every row, the Σλ <= 1 row at
/// `row0` followed by one row per universe link — and the master appends
/// one λ column per pool column, now and as pricing grows the pool. λ ids
/// therefore follow pool order after the fixed variables, so the saved
/// basis stays valid across re-solves, and the rows hold the same sorted
/// terms a from-scratch build would.
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
    solve_options.engine = options_.engine;
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
  /// under later duals: stashed for Tier 0 under kTiered, dropped under
  /// kExactOnly (the reference loop).
  void exact_extras(std::vector<IndependentSet> extras) override {
    if (options_.pricing != PricingMode::kTiered) return;
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

/// One column-generation solve: the pool its masters share — seeded with
/// one singleton column per universe link that can carry traffic at all, a
/// cheap cover that makes every later master feasible — the driver, and
/// the stats every run accumulates into (so the effort caps span the
/// solve).
class OneShot {
 public:
  OneShot(const InterferenceModel& model, std::span<const net::LinkId> universe,
          const ColumnGenOptions& options, ColumnGenStats* stats)
      : universe_(universe),
        options_(options),
        stats_(stats),
        driver_(model, universe, options) {
    stats->used = true;
    for (net::LinkId link : universe)
      if (auto set = singleton_column(model, link)) pool_.add(std::move(*set));
  }

  const std::vector<IndependentSet>& columns() const { return pool_.sets; }

  /// Run the master whose fixed part is `fixed` (see PoolMaster).
  ColGenOutcome run(lp::Problem fixed, std::size_t row0,
                    const ColGenStop& stop = nullptr) {
    PoolMaster master(std::move(fixed), row0, universe_, &pool_, options_,
                      stats_);
    return driver_.run(master, stats_, stop);
  }

  /// Phase A of a two-phase column generation: can the background demands
  /// alone be delivered? Minimizes the sum of per-demanded-link artificial
  /// slacks. A zero optimum means the pool now delivers the background; a
  /// positive lower bound on the optimum — an exact round's Lagrangian
  /// bound (DESIGN.md §9, "Phase A certificate") or convergence — proves
  /// it undeliverable. False (proven or capped) means no phase B;
  /// the stats' `converged` then says which.
  bool phase_a(std::span<const double> bg_demand) {
    // One artificial slack per demanded link, ahead of the λ columns.
    lp::Problem problem(lp::Objective::kMinimize);
    for (net::LinkId link : universe_)
      if (bg_demand[link] > 0.0)
        problem.add_variable(1.0, "s" + std::to_string(problem.num_variables()));
    stats_->converged = true;
    if (problem.num_variables() == 0) return true;
    problem.add_constraint({}, lp::Sense::kLessEqual, 1.0);
    lp::VarId next_slack = 0;
    for (net::LinkId link : universe_) {
      std::vector<std::pair<lp::VarId, double>> row;
      if (bg_demand[link] > 0.0) row.emplace_back(next_slack++, 1.0);
      problem.add_constraint(row, lp::Sense::kGreaterEqual, bg_demand[link]);
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

/// Column-generation solve of Eq. 6 for one new path. Same contract and
/// result layout as the enumeration path of max_path_bandwidth.
AvailableBandwidthResult max_path_bandwidth_colgen(
    const InterferenceModel& model, std::span<const net::LinkId> new_path,
    const std::vector<net::LinkId>& universe,
    const std::vector<double>& bg_demand, const ColumnGenOptions& options) {
  AvailableBandwidthResult result;
  OneShot solve(model, universe, options, &result.colgen);
  const bool feasible = solve.phase_a(bg_demand);
  result.num_independent_sets = solve.columns().size();
  if (!feasible) return result;

  // Phase B: maximize f over the same rows. The master is always feasible
  // (phase A left the pool delivering the background with f = 0) and
  // bounded (Σλ <= 1 caps f through the new path's rows), so the run
  // either converges or hits the effort caps.
  lp::Problem problem(lp::Objective::kMaximize);
  const lp::VarId f = problem.add_variable(1.0, "f");
  problem.add_constraint({}, lp::Sense::kLessEqual, 1.0);
  for (net::LinkId link : universe) {
    std::vector<std::pair<lp::VarId, double>> row;
    if (std::find(new_path.begin(), new_path.end(), link) != new_path.end())
      row.emplace_back(f, -1.0);
    problem.add_constraint(row, lp::Sense::kGreaterEqual, bg_demand[link]);
  }
  const bool phase_a_converged = result.colgen.converged;
  const ColGenOutcome phase_b = solve.run(std::move(problem), /*row0=*/0);
  MRWSN_ASSERT(phase_b.solved, "phase B master cannot be infeasible");
  result.colgen.converged = phase_a_converged && phase_b.converged;
  result.num_independent_sets = solve.columns().size();

  result.background_feasible = true;
  result.available_mbps = phase_b.solution.objective;
  result.schedule = extract_schedule(solve.columns(), phase_b.solution, 1);
  result.airtime_shadow_price = phase_b.solution.dual(0);
  for (std::size_t k = 0; k < universe.size(); ++k) {
    const double price = -phase_b.solution.dual(1 + k);
    result.link_shadow_prices.emplace_back(
        universe[k], price > kTimeShareFloor ? price : 0.0);
  }
  return result;
}

/// Column-generation solve of the joint (multi-new-flow) variant. Mirrors
/// the enumeration path's pass structure — kMaxMin runs the lexicographic
/// floor pass then the sum pass with the floor pinned — with one shared
/// column pool across passes and a warm chain per pass (the passes' row
/// structures differ, so a basis never crosses passes).
JointBandwidthResult max_joint_bandwidth_colgen(
    const InterferenceModel& model,
    std::span<const std::vector<net::LinkId>> new_paths,
    JointObjective objective, const std::vector<net::LinkId>& universe,
    const std::vector<double>& bg_demand, const ColumnGenOptions& options) {
  JointBandwidthResult result;
  OneShot solve(model, universe, options, &result.colgen);
  const bool feasible = solve.phase_a(bg_demand);
  result.num_independent_sets = solve.columns().size();
  if (!feasible) return result;

  const std::size_t num_paths = new_paths.size();
  bool all_converged = result.colgen.converged;
  double floor = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const bool floor_pass = objective == JointObjective::kMaxMin && pass == 0;
    if (pass == 1 && objective == JointObjective::kMaxSum) break;

    // Fixed variables: f_0..f_{J-1}, then t on the floor pass; λ columns
    // follow. kMaxMin passes carry J extra leading rows (f_j - t >= 0 on
    // the floor pass, the pinned floor afterwards), shifting the Σλ row
    // and the link rows by J.
    lp::Problem problem(lp::Objective::kMaximize);
    for (std::size_t j = 0; j < num_paths; ++j)
      problem.add_variable(floor_pass ? 0.0 : 1.0, "f" + std::to_string(j));
    if (floor_pass) {
      const lp::VarId t = problem.add_variable(1.0, "t");
      for (lp::VarId fj = 0; fj < t; ++fj)
        problem.add_constraint({{fj, 1.0}, {t, -1.0}},
                               lp::Sense::kGreaterEqual, 0.0);
    } else if (objective == JointObjective::kMaxMin) {
      for (std::size_t j = 0; j < num_paths; ++j)
        problem.add_constraint({{static_cast<lp::VarId>(j), 1.0}},
                               lp::Sense::kGreaterEqual, floor - 1e-9);
    }
    const std::size_t row0 = problem.num_constraints();
    const std::size_t first_lambda = problem.num_variables();
    problem.add_constraint({}, lp::Sense::kLessEqual, 1.0);
    for (net::LinkId link : universe) {
      std::vector<std::pair<lp::VarId, double>> row;
      for (std::size_t j = 0; j < num_paths; ++j) {
        const auto count =
            std::count(new_paths[j].begin(), new_paths[j].end(), link);
        if (count > 0)
          row.emplace_back(static_cast<lp::VarId>(j),
                           -static_cast<double>(count));
      }
      problem.add_constraint(row, lp::Sense::kGreaterEqual, bg_demand[link]);
    }
    const ColGenOutcome pass_result = solve.run(std::move(problem), row0);
    MRWSN_ASSERT(pass_result.solved, "joint master solve cannot fail");
    all_converged = all_converged && pass_result.converged;
    if (floor_pass) {
      // t is the variable right after the f_j block.
      floor = pass_result.solution.value(static_cast<lp::VarId>(num_paths));
      continue;
    }
    result.background_feasible = true;
    result.per_path_mbps.clear();
    result.total_mbps = 0.0;
    for (std::size_t j = 0; j < num_paths; ++j) {
      const double mbps =
          pass_result.solution.value(static_cast<lp::VarId>(j));
      result.per_path_mbps.push_back(mbps);
      result.total_mbps += mbps;
    }
    result.schedule =
        extract_schedule(solve.columns(), pass_result.solution, first_lambda);
  }
  result.colgen.converged = all_converged;
  result.num_independent_sets = solve.columns().size();
  return result;
}

/// Resolve kAuto: enumeration for small universes, column generation once
/// materializing every maximal set would dominate the solve.
bool use_column_generation(SolveMethod method, std::size_t universe_size) {
  switch (method) {
    case SolveMethod::kFullEnumeration:
      return false;
    case SolveMethod::kColumnGeneration:
      return true;
    case SolveMethod::kAuto:
      return universe_size > kAutoColumnGenThreshold;
  }
  return false;
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
                                            SolveMethod method,
                                            const ColumnGenOptions& options) {
  MRWSN_REQUIRE(!new_path.empty(), "the new path needs at least one link");
  const std::vector<net::LinkId> universe = union_of_links(background, new_path);
  const std::vector<double> bg_demand = accumulate_link_demands(model, background);
  if (use_column_generation(method, universe.size()))
    return max_path_bandwidth_colgen(model, new_path, universe, bg_demand,
                                     options);
  const std::vector<IndependentSet> sets = model.maximal_independent_sets(universe);

  AvailableBandwidthResult result;
  result.num_independent_sets = sets.size();

  // Eq. 6:  maximize f
  //   s.t.  Σ_α λ_α <= 1
  //         Σ_α λ_α R*_α[e] - Σ_k x_k I_e(P_k) - f I_e(P_new) >= 0  ∀ e ∈ P
  //         λ >= 0, f >= 0
  lp::Problem problem(lp::Objective::kMaximize);
  std::vector<lp::VarId> lambda;
  lambda.reserve(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i)
    lambda.push_back(problem.add_variable(0.0, "lambda" + std::to_string(i)));
  const lp::VarId f = problem.add_variable(1.0, "f");

  {
    std::vector<std::pair<lp::VarId, double>> total_time;
    for (lp::VarId id : lambda) total_time.emplace_back(id, 1.0);
    problem.add_constraint(total_time, lp::Sense::kLessEqual, 1.0);
  }

  for (net::LinkId link : universe) {
    std::vector<std::pair<lp::VarId, double>> row;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const double mbps = sets[i].mbps_on(link);
      if (mbps > 0.0) row.emplace_back(lambda[i], mbps);
    }
    const bool on_new_path =
        std::find(new_path.begin(), new_path.end(), link) != new_path.end();
    if (on_new_path) row.emplace_back(f, -1.0);
    problem.add_constraint(row, lp::Sense::kGreaterEqual, bg_demand[link]);
  }

  const lp::Solution solution = lp::solve(problem);
  if (solution.status != lp::Status::kOptimal) {
    MRWSN_REQUIRE(solution.status != lp::Status::kIterationLimit,
                  "enumeration LP exceeded the pivot budget; solve universes "
                  "this large with SolveMethod::kColumnGeneration");
    // With f free to be 0 the LP is infeasible only when the background
    // demands alone are unschedulable; it can never be unbounded
    // (Σλ <= 1 caps f through the new path's constraints).
    MRWSN_ASSERT(solution.status == lp::Status::kInfeasible,
                 "Eq. 6 LP cannot be unbounded");
    return result;
  }

  result.background_feasible = true;
  result.available_mbps = solution.objective;
  result.schedule = extract_schedule(sets, solution, 0);
  // Constraint 0 is Σλ <= 1; constraints 1.. are the per-link rows in
  // universe order. The link rows are >=-sense, so their duals are <= 0
  // for this maximization; negate to report "bandwidth lost per extra
  // Mbps of background demand".
  result.airtime_shadow_price = solution.dual(0);
  for (std::size_t k = 0; k < universe.size(); ++k) {
    const double price = -solution.dual(1 + k);
    result.link_shadow_prices.emplace_back(universe[k],
                                           price > kTimeShareFloor ? price : 0.0);
  }
  return result;
}

JointBandwidthResult max_joint_bandwidth(
    const InterferenceModel& model, std::span<const LinkFlow> background,
    std::span<const std::vector<net::LinkId>> new_paths,
    JointObjective objective, SolveMethod method,
    const ColumnGenOptions& options) {
  MRWSN_REQUIRE(!new_paths.empty(), "need at least one new path");
  for (const auto& path : new_paths)
    MRWSN_REQUIRE(!path.empty(), "every new path needs at least one link");

  std::vector<net::LinkId> universe;
  for (const auto& path : new_paths)
    universe.insert(universe.end(), path.begin(), path.end());
  for (const LinkFlow& flow : background)
    universe.insert(universe.end(), flow.links.begin(), flow.links.end());
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()), universe.end());
  const std::vector<double> bg_demand = accumulate_link_demands(model, background);
  if (use_column_generation(method, universe.size()))
    return max_joint_bandwidth_colgen(model, new_paths, objective, universe,
                                      bg_demand, options);

  const std::vector<IndependentSet> sets = model.maximal_independent_sets(universe);

  JointBandwidthResult result;
  result.num_independent_sets = sets.size();

  // Two passes for kMaxMin (floor first, then sum at the pinned floor);
  // one pass for kMaxSum (floor constraint disabled with floor = 0 and
  // sum objective directly).
  double floor = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const bool floor_pass = objective == JointObjective::kMaxMin && pass == 0;
    if (pass == 1 && objective == JointObjective::kMaxSum) break;

    lp::Problem problem(lp::Objective::kMaximize);
    std::vector<lp::VarId> lambda;
    for (std::size_t i = 0; i < sets.size(); ++i)
      lambda.push_back(problem.add_variable(0.0));
    std::vector<lp::VarId> f;
    for (std::size_t j = 0; j < new_paths.size(); ++j)
      f.push_back(problem.add_variable(floor_pass ? 0.0 : 1.0,
                                       "f" + std::to_string(j)));
    lp::VarId t = -1;
    if (floor_pass) {
      t = problem.add_variable(1.0, "t");
      for (lp::VarId fj : f)
        problem.add_constraint({{fj, 1.0}, {t, -1.0}}, lp::Sense::kGreaterEqual,
                               0.0);
    } else if (objective == JointObjective::kMaxMin) {
      for (lp::VarId fj : f)
        problem.add_constraint({{fj, 1.0}}, lp::Sense::kGreaterEqual,
                               floor - 1e-9);
    }

    {
      std::vector<std::pair<lp::VarId, double>> row;
      for (lp::VarId id : lambda) row.emplace_back(id, 1.0);
      problem.add_constraint(row, lp::Sense::kLessEqual, 1.0);
    }
    for (net::LinkId link : universe) {
      std::vector<std::pair<lp::VarId, double>> row;
      for (std::size_t i = 0; i < sets.size(); ++i) {
        const double mbps = sets[i].mbps_on(link);
        if (mbps > 0.0) row.emplace_back(lambda[i], mbps);
      }
      for (std::size_t j = 0; j < new_paths.size(); ++j) {
        const auto count = std::count(new_paths[j].begin(), new_paths[j].end(), link);
        if (count > 0) row.emplace_back(f[j], -static_cast<double>(count));
      }
      problem.add_constraint(row, lp::Sense::kGreaterEqual, bg_demand[link]);
    }

    const lp::Solution solution = lp::solve(problem);
    if (solution.status != lp::Status::kOptimal) {
      MRWSN_REQUIRE(solution.status != lp::Status::kIterationLimit,
                    "enumeration LP exceeded the pivot budget; solve "
                    "universes this large with SolveMethod::kColumnGeneration");
      MRWSN_ASSERT(solution.status == lp::Status::kInfeasible,
                   "joint LP cannot be unbounded");
      return result;
    }
    if (floor_pass) {
      floor = solution.value(t);
      continue;
    }
    result.background_feasible = true;
    result.per_path_mbps.clear();
    result.total_mbps = 0.0;
    for (std::size_t j = 0; j < new_paths.size(); ++j) {
      result.per_path_mbps.push_back(solution.value(f[j]));
      result.total_mbps += solution.value(f[j]);
    }
    result.schedule = extract_schedule(sets, solution, 0);
  }
  return result;
}

double path_capacity(const InterferenceModel& model,
                     std::span<const net::LinkId> path) {
  const AvailableBandwidthResult result = max_path_bandwidth(model, {}, path);
  MRWSN_ASSERT(result.background_feasible,
               "path capacity with no background cannot be infeasible");
  return result.available_mbps;
}

std::optional<AirtimeSchedule> min_airtime_schedule(
    const InterferenceModel& model, std::span<const net::LinkId> universe,
    std::span<const double> link_demand_mbps) {
  MRWSN_REQUIRE(link_demand_mbps.size() == model.num_links(),
                "demand vector must be indexed by link id over all links");
  const std::vector<IndependentSet> sets = model.maximal_independent_sets(universe);

  // minimize Σλ  s.t.  Σ_α λ_α R*_α[e] >= demand[e]  ∀ e ∈ universe.
  lp::Problem problem(lp::Objective::kMinimize);
  std::vector<lp::VarId> lambda;
  lambda.reserve(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i)
    lambda.push_back(problem.add_variable(1.0, "lambda" + std::to_string(i)));

  std::vector<net::LinkId> links(universe.begin(), universe.end());
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  for (net::LinkId link : links) {
    MRWSN_REQUIRE(link < model.num_links(), "universe link id out of range");
    if (link_demand_mbps[link] <= 0.0) continue;
    std::vector<std::pair<lp::VarId, double>> row;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const double mbps = sets[i].mbps_on(link);
      if (mbps > 0.0) row.emplace_back(lambda[i], mbps);
    }
    problem.add_constraint(row, lp::Sense::kGreaterEqual, link_demand_mbps[link]);
  }

  const lp::Solution solution = lp::solve(problem);
  if (solution.status != lp::Status::kOptimal) return std::nullopt;

  AirtimeSchedule schedule;
  schedule.total_airtime = solution.objective;
  schedule.entries = extract_schedule(sets, solution, 0);
  return schedule;
}

bool flows_feasible(const InterferenceModel& model,
                    std::span<const LinkFlow> flows) {
  std::vector<net::LinkId> universe;
  for (const LinkFlow& flow : flows)
    universe.insert(universe.end(), flow.links.begin(), flow.links.end());
  if (universe.empty()) return true;
  const std::vector<double> demand = accumulate_link_demands(model, flows);
  const auto schedule = min_airtime_schedule(model, universe, demand);
  return schedule.has_value() && schedule->total_airtime <= 1.0 + 1e-9;
}

}  // namespace mrwsn::core
