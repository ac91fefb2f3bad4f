#include "core/available_bandwidth.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <utility>

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

/// Pricing weights at or below this fraction of the round's largest weight
/// are dual round-off on links the master prices at zero; they are zeroed
/// so that whether such a link joins a priced set cannot depend on the
/// build's floating-point contraction.
constexpr double kDualNoiseTol = 1e-12;

std::vector<net::LinkId> union_of_links(std::span<const LinkFlow> background,
                                        std::span<const net::LinkId> new_path) {
  std::vector<net::LinkId> universe(new_path.begin(), new_path.end());
  for (const LinkFlow& flow : background)
    universe.insert(universe.end(), flow.links.begin(), flow.links.end());
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()), universe.end());
  return universe;
}

std::vector<ScheduledSet> extract_schedule(const std::vector<IndependentSet>& sets,
                                           const lp::Solution& solution,
                                           const std::vector<lp::VarId>& lambda) {
  std::vector<ScheduledSet> schedule;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const double share = solution.value(lambda[i]);
    if (share > kTimeShareFloor) schedule.push_back({sets[i], share});
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// Column generation
// ---------------------------------------------------------------------------

/// The growing set of λ columns of a restricted master, with a signature
/// guard so numerically stalled pricing (regenerating an existing column
/// off dual round-off) is detected instead of looping. Tiered pricing also
/// keeps a stash of priced-but-unpromoted candidates (the oracles'
/// runner-up extras): Tier 0 re-scores them against each round's duals and
/// promotes the winners without any search.
struct ColumnPool {
  std::vector<IndependentSet> sets;
  std::set<std::vector<std::uint64_t>> signatures;
  std::vector<IndependentSet> candidates;
  std::set<std::vector<std::uint64_t>> candidate_signatures;

  /// Canonical (links, rates) key of a column — the dedup signature shared
  /// by the master, the stash, and AdmissionEngine's cross-query pool.
  static std::vector<std::uint64_t> signature_of(const IndependentSet& set) {
    std::vector<std::uint64_t> key;
    key.reserve(set.links.size());
    for (std::size_t i = 0; i < set.links.size(); ++i)
      key.push_back((static_cast<std::uint64_t>(set.links[i]) << 16) |
                    static_cast<std::uint64_t>(set.rates[i]));
    return key;
  }

  /// Append `set` unless an identical (links, rates) column exists.
  bool add(IndependentSet set) {
    if (!signatures.insert(signature_of(set)).second) return false;
    sets.push_back(std::move(set));
    return true;
  }

  /// Stash `set` as a Tier 0 candidate unless the master or the stash
  /// already holds an identical column.
  void stash(IndependentSet set) {
    auto key = signature_of(set);
    if (signatures.count(key) != 0) return;
    if (!candidate_signatures.insert(std::move(key)).second) return;
    candidates.push_back(std::move(set));
  }

  /// Move the candidates at `indices` (ascending) into the master; returns
  /// how many were fresh master columns.
  std::size_t promote(const std::vector<std::size_t>& indices) {
    std::size_t fresh = 0;
    for (std::size_t c : indices) {
      candidate_signatures.erase(signature_of(candidates[c]));
      if (add(std::move(candidates[c]))) ++fresh;
    }
    std::size_t out = 0;
    std::size_t next = 0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (next < indices.size() && indices[next] == c) {
        ++next;
        continue;
      }
      if (out != c) candidates[out] = std::move(candidates[c]);
      ++out;
    }
    candidates.resize(out);
    return fresh;
  }
};

/// Seed the pool with one singleton column per universe link that can carry
/// traffic at all — a cheap cover that makes every later master feasible
/// (and phase A's artificials the only slack that is ever needed).
void seed_singleton_columns(const InterferenceModel& model,
                            std::span<const net::LinkId> universe,
                            ColumnPool* pool) {
  for (net::LinkId link : universe) {
    const auto rate = model.max_rate_alone(link);
    if (!rate) continue;
    IndependentSet set;
    set.links = {link};
    set.rates = {*rate};
    set.mbps = {model.rate_table()[*rate].mbps};
    pool->add(std::move(set));
  }
}

struct ColGenLoopResult {
  lp::Solution solution;   ///< last optimal master solution
  bool solved = false;     ///< at least one master solve reached kOptimal
  bool converged = false;  ///< pricing proved the master optimal overall
};

/// One restricted-master / pricing loop. `build` must construct the master
/// over the current pool with its fixed variables first and λ columns last
/// (in pool order), so variable ids — and therefore the exported basis —
/// stay valid across re-solves as columns are appended. `row0_index` /
/// `link_rows_begin` locate the Σλ <= 1 row and the per-universe-link rows
/// inside the master; `stop` (optional) ends pricing early once the
/// objective is good enough (phase A stops at zero artificials). The only
/// minimizing master is phase A's, which also stops, certified, once an
/// exact round proves its optimum above kPhaseATol (DESIGN.md §9, "Phase A
/// certificate").
ColGenLoopResult column_generation_loop(
    const InterferenceModel& model, std::span<const net::LinkId> universe,
    const ColumnGenOptions& options, ColumnPool* pool, ColumnGenStats* stats,
    std::size_t row0_index, std::size_t link_rows_begin,
    const std::function<lp::Problem(const ColumnPool&)>& build,
    const std::function<bool(const lp::Solution&)>& stop = nullptr) {
  ColGenLoopResult out;
  lp::Basis basis;
  lp::RevisedContext context;
  std::vector<double> weights(universe.size());
  // Tier 0 scores candidates by link id; the positional universe weights
  // scatter into this each round (only universe positions are ever written
  // or read, so stale entries cannot leak between rounds).
  std::vector<double> wlink(model.num_links(), 0.0);
  // Wentges (in-out) stability center: the smoothed dual vector
  // [row0 ; link rows...] of the last successful pricing round.
  std::vector<double> center;
  const double max_mbps = model.rate_table().max_mbps();
  // An upper bound on max_α Σ_e w_e R_α[e] under the last round's
  // unrounded weights: the exact oracle's bound plus the most the zeroed
  // round-off weights could add, or +inf when the round never reached the
  // exact oracle (so no Lagrangian bound follows from it).
  double exact_max_weight = std::numeric_limits<double>::infinity();
  // One pricing round against the dual vector `duals`
  // ([row0 ; link rows...]). Returns true when the master gained at least
  // one new column; false means no improving column was found (or only
  // columns the pool already has — dual round-off noise within tolerance).
  // Under kTiered the cheap tiers run first and `exact_tier` gates the
  // exact B&B: a round that reaches the exact oracle and comes back empty
  // is the optimality certificate.
  const auto price_and_add = [&](const std::vector<double>& duals, double sign,
                                 bool exact_tier) {
    ++stats->rounds;
    exact_max_weight = std::numeric_limits<double>::infinity();
    double max_weight = 0.0;
    for (std::size_t k = 0; k < universe.size(); ++k) {
      weights[k] = std::max(0.0, sign * duals[1 + k]);
      max_weight = std::max(max_weight, weights[k]);
    }
    double zeroed_mass = 0.0;
    for (double& w : weights) {
      if (w > 0.0 && w <= kDualNoiseTol * max_weight) {
        zeroed_mass += w * max_mbps;
        w = 0.0;
      }
    }
    const double floor =
        std::max(0.0, -sign * duals[0]) + options.reduced_cost_tol;

    if (options.pricing == PricingMode::kTiered) {
      for (std::size_t k = 0; k < universe.size(); ++k)
        wlink[universe[k]] = weights[k];

      // Tier 0: promote stashed candidates that price above the floor
      // under the current duals — no search at all. Best scores first,
      // capped so degenerate duals cannot flood the master.
      if (!pool->candidates.empty() && options.max_tier0_columns > 0) {
        std::vector<std::pair<double, std::size_t>> scored;
        for (std::size_t c = 0; c < pool->candidates.size(); ++c) {
          const IndependentSet& s = pool->candidates[c];
          double score = 0.0;
          for (std::size_t i = 0; i < s.links.size(); ++i)
            score += wlink[s.links[i]] * s.mbps[i];
          if (score > floor) scored.emplace_back(score, c);
        }
        if (!scored.empty()) {
          std::stable_sort(scored.begin(), scored.end(),
                           [](const auto& a, const auto& b) {
                             return a.first > b.first;
                           });
          if (scored.size() > options.max_tier0_columns)
            scored.resize(options.max_tier0_columns);
          std::vector<std::size_t> indices;
          indices.reserve(scored.size());
          for (const auto& entry : scored) indices.push_back(entry.second);
          std::sort(indices.begin(), indices.end());
          const std::size_t fresh = pool->promote(indices);
          stats->pool_hit_columns += fresh;
          if (fresh > 0) return true;
        }
      }

      // Tier 1: deterministic multi-start heuristics; the winner and every
      // signature-distinct runner-up join the master at once.
      if (options.heuristic_starts > 0) {
        HeuristicPricingParams params;
        params.starts = options.heuristic_starts;
        MaxWeightSetResult h = model.heuristic_max_weight_independent_set(
            universe, weights, floor, params);
        if (h.found()) {
          std::size_t fresh = pool->add(std::move(h.set)) ? 1 : 0;
          for (IndependentSet& extra : h.extras)
            if (pool->add(std::move(extra))) ++fresh;
          stats->heuristic_columns += fresh;
          if (fresh > 0) return true;
        }
      }

      if (!exact_tier) return false;
    }

    // Tier 2 / exact-only: the exact branch-and-bound. Its runner-up
    // extras go to the Tier 0 stash (tiered mode only) — they priced below
    // the optimum now but often price positive under later duals.
    ++stats->exact_rounds;
    MaxWeightSetResult priced =
        model.max_weight_independent_set(universe, weights, floor);
    exact_max_weight = priced.max_weight + zeroed_mass;
    if (options.pricing == PricingMode::kTiered)
      for (IndependentSet& extra : priced.extras) pool->stash(std::move(extra));
    return priced.found() && pool->add(std::move(priced.set));
  };
  for (;;) {
    const lp::Problem problem = build(*pool);
    lp::SolveOptions solve_options;
    solve_options.engine = options.engine;
    solve_options.warm_start = basis.empty() ? nullptr : &basis;
    solve_options.context = &context;
    if (solve_options.warm_start != nullptr) ++stats->warm_starts;
    lp::Solution solution = lp::solve(problem, solve_options);
    if (solution.status != lp::Status::kOptimal) {
      // Every master here is feasible and bounded by construction, so only
      // a pivot-budget blowout lands here; keep the previous round's
      // solution and report non-convergence.
      break;
    }
    basis = solution.basis;
    out.solution = std::move(solution);
    out.solved = true;

    if (stop && stop(out.solution)) {
      out.converged = true;
      break;
    }
    if (stats->rounds >= options.max_rounds ||
        pool->sets.size() >= options.max_columns)
      break;

    // Reduced cost of a candidate column α (objective coefficient 0):
    //   rc = -(dual(row0) + Σ_e dual(row_e) · R_α[e]).
    // An improving column (rc < 0 when minimizing, > 0 when maximizing)
    // therefore scores Σ_e w_e R_α[e] above the floor, with the signs
    // inside price_and_add. The duals' sign constraints make both clamps
    // no-ops up to round-off.
    const double sign =
        problem.objective() == lp::Objective::kMinimize ? 1.0 : -1.0;
    std::vector<double> incumbent(universe.size() + 1);
    incumbent[0] = out.solution.dual(row0_index);
    for (std::size_t k = 0; k < universe.size(); ++k)
      incumbent[1 + k] = out.solution.dual(link_rows_begin + k);

    // Stabilized rounds price against a convex combination of the
    // stability center and the incumbent duals. A mispricing — the
    // smoothed duals yield no column, or one the pool already has — falls
    // back to the exact incumbent duals within the same round, so
    // convergence is only ever declared from exact pricing.
    bool added = false;
    if (options.stabilize && !center.empty() &&
        stats->rounds >= options.smoothing_warmup) {
      const double alpha =
          std::clamp(options.smoothing_alpha, 0.0, 1.0 - 1e-3);
      std::vector<double> smoothed(universe.size() + 1);
      for (std::size_t i = 0; i < smoothed.size(); ++i)
        smoothed[i] = alpha * center[i] + (1.0 - alpha) * incumbent[i];
      // Smoothed tiered rounds stay cheap: they never escalate to the
      // exact oracle (a dry round falls back to the incumbent duals below,
      // where the certificate lives).
      if (price_and_add(smoothed, sign, /*exact_tier=*/false)) {
        added = true;
        center = std::move(smoothed);
      } else {
        ++stats->mispricings;
      }
    }
    if (!added) {
      const bool fresh_column = price_and_add(incumbent, sign,
                                              /*exact_tier=*/true);
      if (!fresh_column) {
        // No improving column — or the "improving" column already exists,
        // which only happens from dual round-off noise within tolerance.
        // Reaching here means the exact oracle ran on the incumbent duals
        // and found nothing: the optimality certificate.
        out.converged = true;
        stats->certified = true;
        break;
      }
      if (sign > 0.0) {
        // Phase A (the only minimizing master). The Lagrangian bound of
        // an exact round on the incumbent duals:
        // every column's reduced cost is at least u − W*, and Σλ <= 1
        // caps how much of it any solution can collect, so the full
        // master's optimum is at least z_RMP − max(0, W* − u).
        const double u = std::max(0.0, -incumbent[0]);
        const double lower_bound =
            out.solution.objective - std::max(0.0, exact_max_weight - u);
        if (lower_bound > kPhaseATol) {
          out.converged = true;
          stats->certified = true;
          break;
        }
      }
      center = std::move(incumbent);
    }
  }
  stats->columns = pool->sets.size();
  return out;
}

struct PhaseAResult {
  bool feasible = false;   ///< the pool now delivers the background demands
  bool converged = false;  ///< settled (either way) before the effort caps
};

/// Phase A of a two-phase column generation: can the background demands
/// alone be delivered? Minimizes the sum of per-demanded-link artificial
/// slacks; a zero optimum means the pool now contains columns delivering
/// the background, while a converged positive optimum proves the demands
/// undeliverable. `feasible == false` (proven or caps hit) means the caller
/// must not proceed to phase B.
PhaseAResult background_phase_feasible(const InterferenceModel& model,
                                       std::span<const net::LinkId> universe,
                                       std::span<const double> bg_demand,
                                       const ColumnGenOptions& options,
                                       ColumnPool* pool,
                                       ColumnGenStats* stats) {
  std::vector<net::LinkId> demanded;
  for (net::LinkId link : universe)
    if (bg_demand[link] > 0.0) demanded.push_back(link);
  if (demanded.empty()) return {true, true};

  const auto build = [&](const ColumnPool& columns) {
    lp::Problem problem(lp::Objective::kMinimize);
    // One artificial slack per demanded link, ahead of the λ columns so
    // their ids survive pool growth.
    for (std::size_t d = 0; d < demanded.size(); ++d)
      problem.add_variable(1.0, "s" + std::to_string(d));
    std::vector<lp::VarId> lambda;
    lambda.reserve(columns.sets.size());
    for (std::size_t i = 0; i < columns.sets.size(); ++i)
      lambda.push_back(problem.add_variable(0.0));

    std::vector<std::pair<lp::VarId, double>> row;
    for (lp::VarId id : lambda) row.emplace_back(id, 1.0);
    problem.add_constraint(row, lp::Sense::kLessEqual, 1.0);
    std::size_t next_demanded = 0;
    for (net::LinkId link : universe) {
      row.clear();
      for (std::size_t i = 0; i < columns.sets.size(); ++i) {
        const double mbps = columns.sets[i].mbps_on(link);
        if (mbps > 0.0) row.emplace_back(lambda[i], mbps);
      }
      if (bg_demand[link] > 0.0)
        row.emplace_back(static_cast<lp::VarId>(next_demanded++), 1.0);
      problem.add_constraint(row, lp::Sense::kGreaterEqual, bg_demand[link]);
    }
    return problem;
  };
  const auto result = column_generation_loop(
      model, universe, options, pool, stats, /*row0_index=*/0,
      /*link_rows_begin=*/1, build,
      [](const lp::Solution& s) { return s.objective <= kPhaseATol; });
  PhaseAResult phase_a;
  phase_a.converged = result.converged;
  phase_a.feasible = result.solved && result.converged &&
                     result.solution.objective <= kPhaseATol;
  return phase_a;
}

/// Column-generation solve of Eq. 6 for one new path. Same contract and
/// result layout as the enumeration path of max_path_bandwidth.
AvailableBandwidthResult max_path_bandwidth_colgen(
    const InterferenceModel& model, std::span<const net::LinkId> new_path,
    const std::vector<net::LinkId>& universe,
    const std::vector<double>& bg_demand, const ColumnGenOptions& options) {
  AvailableBandwidthResult result;
  result.colgen.used = true;

  ColumnPool pool;
  seed_singleton_columns(model, universe, &pool);

  const PhaseAResult phase_a = background_phase_feasible(
      model, universe, bg_demand, options, &pool, &result.colgen);
  if (!phase_a.feasible) {
    result.colgen.converged = phase_a.converged;
    result.num_independent_sets = pool.sets.size();
    return result;
  }

  // Phase B: maximize f over the same rows, warm-chained masters. The
  // master is always feasible (phase A left the pool delivering the
  // background with f = 0) and bounded (Σλ <= 1 caps f through the new
  // path's rows), so the loop either converges or hits the effort caps.
  const auto build = [&](const ColumnPool& columns) {
    lp::Problem problem(lp::Objective::kMaximize);
    const lp::VarId f = problem.add_variable(1.0, "f");
    std::vector<lp::VarId> lambda;
    lambda.reserve(columns.sets.size());
    for (std::size_t i = 0; i < columns.sets.size(); ++i)
      lambda.push_back(problem.add_variable(0.0));

    std::vector<std::pair<lp::VarId, double>> row;
    for (lp::VarId id : lambda) row.emplace_back(id, 1.0);
    problem.add_constraint(row, lp::Sense::kLessEqual, 1.0);
    for (net::LinkId link : universe) {
      row.clear();
      for (std::size_t i = 0; i < columns.sets.size(); ++i) {
        const double mbps = columns.sets[i].mbps_on(link);
        if (mbps > 0.0) row.emplace_back(lambda[i], mbps);
      }
      if (std::find(new_path.begin(), new_path.end(), link) != new_path.end())
        row.emplace_back(f, -1.0);
      problem.add_constraint(row, lp::Sense::kGreaterEqual, bg_demand[link]);
    }
    return problem;
  };
  const auto phase_b =
      column_generation_loop(model, universe, options, &pool, &result.colgen,
                             /*row0_index=*/0, /*link_rows_begin=*/1, build);
  MRWSN_ASSERT(phase_b.solved, "phase B master cannot be infeasible");
  result.colgen.converged = phase_a.converged && phase_b.converged;
  result.num_independent_sets = pool.sets.size();

  result.background_feasible = true;
  result.available_mbps = phase_b.solution.objective;
  std::vector<lp::VarId> lambda(pool.sets.size());
  for (std::size_t i = 0; i < pool.sets.size(); ++i)
    lambda[i] = static_cast<lp::VarId>(1 + i);  // f is variable 0
  result.schedule = extract_schedule(pool.sets, phase_b.solution, lambda);
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
  result.colgen.used = true;

  ColumnPool pool;
  seed_singleton_columns(model, universe, &pool);

  const PhaseAResult phase_a = background_phase_feasible(
      model, universe, bg_demand, options, &pool, &result.colgen);
  if (!phase_a.feasible) {
    result.colgen.converged = phase_a.converged;
    result.num_independent_sets = pool.sets.size();
    return result;
  }

  const std::size_t num_paths = new_paths.size();
  bool all_converged = phase_a.converged;
  double floor = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const bool floor_pass = objective == JointObjective::kMaxMin && pass == 0;
    if (pass == 1 && objective == JointObjective::kMaxSum) break;

    // Fixed variables: f_0..f_{J-1}, then t on the floor pass; λ columns
    // follow. kMaxMin passes carry J extra leading rows (f_j - t >= 0 on
    // the floor pass, the pinned floor afterwards), shifting the Σλ row
    // and the link rows by J.
    const std::size_t fixed_vars = num_paths + (floor_pass ? 1 : 0);
    const std::size_t extra_rows =
        objective == JointObjective::kMaxMin ? num_paths : 0;
    const auto build = [&](const ColumnPool& columns) {
      lp::Problem problem(lp::Objective::kMaximize);
      std::vector<lp::VarId> f;
      f.reserve(num_paths);
      for (std::size_t j = 0; j < num_paths; ++j)
        f.push_back(problem.add_variable(floor_pass ? 0.0 : 1.0,
                                         "f" + std::to_string(j)));
      lp::VarId t = -1;
      if (floor_pass) t = problem.add_variable(1.0, "t");
      std::vector<lp::VarId> lambda;
      lambda.reserve(columns.sets.size());
      for (std::size_t i = 0; i < columns.sets.size(); ++i)
        lambda.push_back(problem.add_variable(0.0));

      if (floor_pass) {
        for (lp::VarId fj : f)
          problem.add_constraint({{fj, 1.0}, {t, -1.0}},
                                 lp::Sense::kGreaterEqual, 0.0);
      } else if (objective == JointObjective::kMaxMin) {
        for (lp::VarId fj : f)
          problem.add_constraint({{fj, 1.0}}, lp::Sense::kGreaterEqual,
                                 floor - 1e-9);
      }
      std::vector<std::pair<lp::VarId, double>> row;
      for (lp::VarId id : lambda) row.emplace_back(id, 1.0);
      problem.add_constraint(row, lp::Sense::kLessEqual, 1.0);
      for (net::LinkId link : universe) {
        row.clear();
        for (std::size_t i = 0; i < columns.sets.size(); ++i) {
          const double mbps = columns.sets[i].mbps_on(link);
          if (mbps > 0.0) row.emplace_back(lambda[i], mbps);
        }
        for (std::size_t j = 0; j < num_paths; ++j) {
          const auto count =
              std::count(new_paths[j].begin(), new_paths[j].end(), link);
          if (count > 0) row.emplace_back(f[j], -static_cast<double>(count));
        }
        problem.add_constraint(row, lp::Sense::kGreaterEqual, bg_demand[link]);
      }
      return problem;
    };
    const auto pass_result = column_generation_loop(
        model, universe, options, &pool, &result.colgen,
        /*row0_index=*/extra_rows, /*link_rows_begin=*/extra_rows + 1, build);
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
    std::vector<lp::VarId> lambda(pool.sets.size());
    for (std::size_t i = 0; i < pool.sets.size(); ++i)
      lambda[i] = static_cast<lp::VarId>(fixed_vars + i);
    result.schedule = extract_schedule(pool.sets, pass_result.solution, lambda);
  }
  result.colgen.converged = all_converged;
  result.num_independent_sets = pool.sets.size();
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
  result.schedule = extract_schedule(sets, solution, lambda);
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
    result.schedule = extract_schedule(sets, solution, lambda);
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
  schedule.entries = extract_schedule(sets, solution, lambda);
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
