// Differential fuzz harness for the sparse revised simplex (the production
// engine) against the dense vector-of-rows tableau of tests/oracles
// (solve_reference, the same algorithm and pivot rules).
//
// A seeded generator draws LP instances from five families — feasible
// bounded, provably infeasible, provably unbounded, degenerate (duplicate
// rows, zero-RHS rows, redundant equalities), and Eq. 6-shaped
// column-generation masters (synthetic and extracted from a real scenario)
// — and every instance is solved by BOTH engines. The harness asserts:
//
//   * identical status (optimal / infeasible / unbounded),
//   * objectives matching to 1e-6,
//   * primal feasibility of each engine's solution against the Problem,
//   * dual feasibility and complementary slackness of each engine's duals
//     (the KKT certificate, which is what column generation prices from),
//   * the revised engine's warm-start path, chained through its
//     RevisedContext, reaching the dense cold optimum after columns are
//     appended (the column-generation re-solve pattern),
//   * none of these in-domain instances failing numerically.
//
// A sixth, badly-scaled family (rows and columns scaled across 1e-8..1e8)
// drives the revised engine into numerical failure on purpose and holds
// its equilibrated cold restart to a witness point instead of the oracle.
//
// Seed count: kSeedsPerFamily per family by default (>= 500 instances
// total); override with MRWSN_FUZZ_SEEDS=<n> (n seeds per family) for
// longer runs, e.g. via tools/run_fuzz.sh.
#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/interference.hpp"
#include "core/scenarios.hpp"
#include "oracles/reference_simplex.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mrwsn::lp {
namespace {

constexpr double kObjectiveTol = 1e-6;
constexpr double kFeasTol = 1e-6;

std::size_t seeds_per_family() {
  constexpr std::size_t kSeedsPerFamily = 110;  // 5 families -> 550 instances
  if (const char* env = std::getenv("MRWSN_FUZZ_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return kSeedsPerFamily;
}

// ---------------------------------------------------------------------------
// Solution certificates
// ---------------------------------------------------------------------------

double row_activity(const Problem::Row& row, const std::vector<double>& x) {
  double acc = 0.0;
  for (const auto& [var, coeff] : row.terms)
    acc += coeff * x[static_cast<std::size_t>(var)];
  return acc;
}

/// Primal feasibility of `solution.values` against the original Problem.
void check_primal_feasible(const Problem& problem, const Solution& solution,
                           const std::string& tag) {
  ASSERT_EQ(solution.values.size(), problem.num_variables()) << tag;
  for (std::size_t j = 0; j < solution.values.size(); ++j)
    EXPECT_GE(solution.values[j], -kFeasTol) << tag << " var " << j;
  for (std::size_t i = 0; i < problem.num_constraints(); ++i) {
    const Problem::Row& row = problem.rows()[i];
    const double lhs = row_activity(row, solution.values);
    // Scale-aware slack tolerance: coefficients can be a few units large.
    const double tol = kFeasTol * (1.0 + std::abs(row.rhs));
    switch (row.sense) {
      case Sense::kLessEqual:
        EXPECT_LE(lhs, row.rhs + tol) << tag << " row " << i;
        break;
      case Sense::kGreaterEqual:
        EXPECT_GE(lhs, row.rhs - tol) << tag << " row " << i;
        break;
      case Sense::kEqual:
        EXPECT_NEAR(lhs, row.rhs, tol) << tag << " row " << i;
        break;
    }
  }
}

/// Dual feasibility + complementary slackness of `solution.duals` — the
/// KKT certificate of optimality. For a maximization: duals of <= rows are
/// >= 0, of >= rows <= 0; every variable's reduced cost c_j - y^T A_j is
/// <= 0; and each inequality (primal slack) x (dual) as well as each
/// (reduced cost) x (primal value) product vanishes. Minimization is the
/// mirror image, handled by flipping the sign convention once.
void check_kkt(const Problem& problem, const Solution& solution,
               const std::string& tag) {
  ASSERT_EQ(solution.duals.size(), problem.num_constraints()) << tag;
  const double sign = problem.objective() == Objective::kMaximize ? 1.0 : -1.0;
  for (std::size_t i = 0; i < problem.num_constraints(); ++i) {
    const Problem::Row& row = problem.rows()[i];
    const double y = sign * solution.duals[i];
    const double slack = row.rhs - row_activity(row, solution.values);
    switch (row.sense) {
      case Sense::kLessEqual:
        EXPECT_GE(y, -kFeasTol) << tag << " dual sign, row " << i;
        break;
      case Sense::kGreaterEqual:
        EXPECT_LE(y, kFeasTol) << tag << " dual sign, row " << i;
        break;
      case Sense::kEqual:
        break;  // equality duals are free
    }
    if (row.sense != Sense::kEqual) {
      EXPECT_NEAR(y * slack, 0.0, 1e-5 * (1.0 + std::abs(y)))
          << tag << " complementary slackness, row " << i;
    }
  }
  for (std::size_t j = 0; j < problem.num_variables(); ++j) {
    double priced = 0.0;
    for (std::size_t i = 0; i < problem.num_constraints(); ++i)
      priced +=
          solution.duals[i] * problem.rows()[i].coeff(static_cast<VarId>(j));
    const double reduced = sign * (problem.objective_coeffs()[j] - priced);
    EXPECT_LE(reduced, 1e-5) << tag << " dual feasibility, var " << j;
    EXPECT_NEAR(reduced * solution.values[j], 0.0,
                1e-5 * (1.0 + std::abs(solution.values[j])))
        << tag << " complementary slackness, var " << j;
  }
}

/// The core differential check: both engines, same status; on optimal,
/// 1e-6 objectives and a full KKT certificate from each engine. These
/// instances are in the revised engine's domain, so it must not fail
/// numerically on any of them.
void check_differential(const Problem& problem, const std::string& tag) {
  const Solution dense = solve_reference(problem);
  SolveStats stats;
  SolveOptions options;
  options.stats = &stats;
  const Solution revised = solve(problem, options);

  EXPECT_NE(stats.fallback_reason, Fallback::kNumerical) << tag;
  ASSERT_EQ(dense.status, revised.status) << tag;
  // Bland's rule termination: a pivot-budget blowout on these small
  // instances would mean the eta-update path cycles where the dense
  // tableau does not.
  ASSERT_NE(revised.status, Status::kIterationLimit) << tag;
  if (dense.status != Status::kOptimal) return;

  EXPECT_NEAR(dense.objective, revised.objective, kObjectiveTol) << tag;
  check_primal_feasible(problem, dense, tag + " [dense]");
  check_primal_feasible(problem, revised, tag + " [revised]");
  check_kkt(problem, dense, tag + " [dense]");
  check_kkt(problem, revised, tag + " [revised]");
}

// ---------------------------------------------------------------------------
// Instance families
// ---------------------------------------------------------------------------

/// Feasible bounded family: constraints built around a known non-negative
/// point (so the instance is never vacuously infeasible) plus a box row
/// that keeps the maximization bounded.
Problem feasible_bounded(Rng& rng) {
  const int vars = static_cast<int>(rng.uniform_int(2, 24));
  const int rows = static_cast<int>(rng.uniform_int(1, 20));
  Problem problem(rng.uniform() < 0.5 ? Objective::kMaximize
                                      : Objective::kMinimize);
  std::vector<VarId> x;
  std::vector<double> feasible;
  for (int j = 0; j < vars; ++j) {
    x.push_back(problem.add_variable(rng.uniform(-1.5, 2.0)));
    feasible.push_back(rng.uniform(0.0, 3.0));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<std::pair<VarId, double>> row;
    double lhs = 0.0;
    for (int j = 0; j < vars; ++j) {
      if (rng.uniform() < 0.3) continue;  // sparse rows
      const double c = rng.uniform(-1.0, 2.0);
      row.emplace_back(x[static_cast<std::size_t>(j)], c);
      lhs += c * feasible[static_cast<std::size_t>(j)];
    }
    switch (rng.uniform_int(0, 2)) {
      case 0:
        problem.add_constraint(row, Sense::kLessEqual,
                               lhs + rng.uniform(0.0, 2.0));
        break;
      case 1:
        problem.add_constraint(row, Sense::kGreaterEqual,
                               lhs - rng.uniform(0.0, 2.0));
        break;
      default:
        problem.add_constraint(row, Sense::kEqual, lhs);
        break;
    }
  }
  std::vector<std::pair<VarId, double>> box;
  for (VarId id : x) box.emplace_back(id, 1.0);
  problem.add_constraint(box, Sense::kLessEqual, 4.0 * vars);
  return problem;
}

/// Infeasible family: a feasible core plus a pair of rows over the same
/// non-negative combination demanding sum <= a and sum >= a + margin with
/// margin >= 0.5, so infeasibility is robust to tolerances.
Problem infeasible(Rng& rng) {
  Problem problem = feasible_bounded(rng);
  const std::size_t vars = problem.num_variables();
  std::vector<std::pair<VarId, double>> row;
  for (std::size_t j = 0; j < vars; ++j) {
    const double c = rng.uniform(0.5, 2.0);
    if (rng.uniform() < 0.7) row.emplace_back(static_cast<VarId>(j), c);
  }
  if (row.empty()) row.emplace_back(0, 1.0);
  const double a = rng.uniform(0.0, 5.0);
  problem.add_constraint(row, Sense::kLessEqual, a);
  problem.add_constraint(row, Sense::kGreaterEqual,
                         a + 0.5 + rng.uniform(0.0, 2.0));
  return problem;
}

/// Unbounded family: a feasible core plus a fresh variable that improves
/// the objective but appears in no constraint — an improving ray no pivot
/// rule can miss, robust to tolerances.
Problem unbounded(Rng& rng) {
  Problem problem = feasible_bounded(rng);
  const double improving =
      problem.objective() == Objective::kMaximize ? 1.0 : -1.0;
  problem.add_variable(improving * rng.uniform(0.5, 2.0), "ray");
  return problem;
}

/// Degenerate family: duplicated rows, zero-RHS rows that pin a subset of
/// variables to zero, and redundant equalities — the inputs that force
/// degenerate pivots (ratio 0) and keep artificials basic at zero on
/// redundant rows. This is the family that exercises Bland's anti-cycling
/// rule under the eta-update path.
Problem degenerate(Rng& rng) {
  const int vars = static_cast<int>(rng.uniform_int(2, 16));
  Problem problem(rng.uniform() < 0.5 ? Objective::kMaximize
                                      : Objective::kMinimize);
  std::vector<VarId> x;
  for (int j = 0; j < vars; ++j)
    x.push_back(problem.add_variable(rng.uniform(-1.0, 1.5)));

  // Zero-RHS rows: a non-negative combination <= 0 pins its support to 0.
  const int pinned_rows = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < pinned_rows; ++i) {
    std::vector<std::pair<VarId, double>> row;
    for (VarId id : x)
      if (rng.uniform() < 0.4) row.emplace_back(id, rng.uniform(0.5, 2.0));
    if (row.empty()) row.emplace_back(x[0], 1.0);
    problem.add_constraint(row, Sense::kLessEqual, 0.0);
  }
  // A small feasible block (the origin is feasible throughout).
  const int core_rows = static_cast<int>(rng.uniform_int(1, 6));
  std::vector<Problem::Row> dup_candidates;
  for (int i = 0; i < core_rows; ++i) {
    std::vector<std::pair<VarId, double>> row;
    for (VarId id : x)
      if (rng.uniform() < 0.5) row.emplace_back(id, rng.uniform(-1.0, 2.0));
    if (row.empty()) row.emplace_back(x[0], 1.0);
    const double rhs = rng.uniform(0.0, 3.0);
    problem.add_constraint(row, Sense::kLessEqual, rhs);
    // Duplicate some rows verbatim (a redundant basis candidate)...
    if (rng.uniform() < 0.5) problem.add_constraint(row, Sense::kLessEqual, rhs);
    // ... and pin some as a redundant equality pair at the origin level.
    if (rng.uniform() < 0.3) {
      problem.add_constraint(row, Sense::kGreaterEqual, 0.0);
      if (rng.uniform() < 0.5)
        problem.add_constraint(row, Sense::kGreaterEqual, 0.0);
    }
  }
  // Redundant equality: 0 == 0 over a random support, twice.
  std::vector<std::pair<VarId, double>> zero;
  for (VarId id : x)
    if (rng.uniform() < 0.4) zero.emplace_back(id, rng.uniform(0.5, 1.5));
  if (zero.empty()) zero.emplace_back(x[0], 1.0);
  problem.add_constraint(zero, Sense::kEqual, 0.0);
  if (rng.uniform() < 0.5) problem.add_constraint(zero, Sense::kEqual, 0.0);
  // Keep the maximization bounded.
  std::vector<std::pair<VarId, double>> box;
  for (VarId id : x) box.emplace_back(id, 1.0);
  problem.add_constraint(box, Sense::kLessEqual, 2.0 * vars);
  return problem;
}

/// Synthetic Eq. 6-shaped master: lambda columns over random "independent
/// sets" with multirate link speeds, the airtime row, and per-link rows
/// coupling the new-path throughput f — the exact shape every
/// column-generation master in src/core has.
Problem eq6_master(Rng& rng) {
  const std::size_t links = rng.uniform_int(4, 14);
  const std::size_t sets = rng.uniform_int(links, links + 20);
  const double rates[] = {54.0, 36.0, 18.0, 6.0};

  Problem problem(Objective::kMaximize);
  const VarId f = problem.add_variable(1.0, "f");
  std::vector<VarId> lambda;
  std::vector<std::vector<double>> mbps(sets, std::vector<double>(links, 0.0));
  for (std::size_t s = 0; s < sets; ++s) {
    lambda.push_back(problem.add_variable(0.0));
    // Ensure each column carries at least one link.
    const std::size_t forced = rng.uniform_int(0, links - 1);
    for (std::size_t e = 0; e < links; ++e)
      if (e == forced || rng.uniform() < 0.3)
        mbps[s][e] = rates[rng.uniform_int(0, 3)];
  }
  std::vector<std::pair<VarId, double>> share;
  for (VarId id : lambda) share.emplace_back(id, 1.0);
  problem.add_constraint(share, Sense::kLessEqual, 1.0);
  for (std::size_t e = 0; e < links; ++e) {
    std::vector<std::pair<VarId, double>> row;
    for (std::size_t s = 0; s < sets; ++s)
      if (mbps[s][e] > 0.0) row.emplace_back(lambda[s], mbps[s][e]);
    row.emplace_back(f, -1.0);
    // Background demand low enough that singleton coverage keeps the
    // master feasible for most draws; infeasible draws are valid
    // differential cases too.
    problem.add_constraint(row, Sense::kGreaterEqual, rng.uniform(0.0, 2.0));
  }
  return problem;
}

Problem instance_for(std::size_t family, Rng& rng) {
  switch (family) {
    case 0: return feasible_bounded(rng);
    case 1: return infeasible(rng);
    case 2: return unbounded(rng);
    case 3: return degenerate(rng);
    default: return eq6_master(rng);
  }
}

const char* family_name(std::size_t family) {
  switch (family) {
    case 0: return "feasible";
    case 1: return "infeasible";
    case 2: return "unbounded";
    case 3: return "degenerate";
    default: return "eq6";
  }
}

// ---------------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------------

TEST(RevisedSimplexFuzz, DifferentialParityAcrossFamilies) {
  const std::size_t seeds = seeds_per_family();
  for (std::size_t family = 0; family < 5; ++family) {
    for (std::size_t seed = 1; seed <= seeds; ++seed) {
      Rng rng(0x5eedULL * 2654435761ULL + family * 1000003ULL + seed);
      const Problem problem = instance_for(family, rng);
      const std::string tag = std::string(family_name(family)) + " seed=" +
                              std::to_string(seed);
      check_differential(problem, tag);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Eq. 6-shaped master over the first `use_sets` of `sets` columns: f is
/// variable 0, λ columns follow in pool order, row 0 is Σλ <= 1, link rows
/// follow — ids stay stable as the pool grows, exactly like the builders in
/// src/core/available_bandwidth.cpp.
Problem build_master(const std::vector<std::vector<double>>& sets,
                     std::size_t use_sets, std::size_t links,
                     const std::vector<double>& demand) {
  Problem problem(Objective::kMaximize);
  const VarId f = problem.add_variable(1.0, "f");
  std::vector<VarId> lambda;
  for (std::size_t s = 0; s < use_sets; ++s)
    lambda.push_back(problem.add_variable(0.0));
  std::vector<std::pair<VarId, double>> share;
  for (VarId id : lambda) share.emplace_back(id, 1.0);
  problem.add_constraint(share, Sense::kLessEqual, 1.0);
  for (std::size_t e = 0; e < links; ++e) {
    std::vector<std::pair<VarId, double>> row;
    for (std::size_t s = 0; s < use_sets; ++s)
      if (sets[s][e] > 0.0) row.emplace_back(lambda[s], sets[s][e]);
    row.emplace_back(f, -1.0);
    problem.add_constraint(row, Sense::kGreaterEqual, demand[e]);
  }
  return problem;
}

/// The column-generation re-solve pattern, differentially: solve a
/// restricted master, grow the column pool, warm-start the revised engine
/// from the exported basis (chained through its RevisedContext), and
/// compare each round against a cold dense solve of the grown master.
TEST(RevisedSimplexFuzz, WarmStartParityAfterAppendingColumns) {
  const std::size_t seeds = std::max<std::size_t>(seeds_per_family() / 2, 25);
  const double rates[] = {54.0, 36.0, 18.0, 6.0};
  for (std::size_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(0xa11ceULL ^ (seed * 0x9e3779b97f4a7c15ULL));
    const std::size_t links = rng.uniform_int(4, 10);
    const std::size_t total_sets = links + 12;
    std::vector<std::vector<double>> sets(total_sets,
                                          std::vector<double>(links, 0.0));
    for (std::size_t s = 0; s < total_sets; ++s) {
      const std::size_t forced = s % links;  // singleton coverage first
      for (std::size_t e = 0; e < links; ++e)
        if (e == forced || (s >= links && rng.uniform() < 0.35))
          sets[s][e] = rates[rng.uniform_int(0, 3)];
    }
    std::vector<double> demand(links);
    for (double& d : demand) d = rng.uniform(0.0, 1.5);

    RevisedContext context;
    Basis revised_basis;
    for (std::size_t use = links + 2; use <= total_sets; use += 2) {
      const Problem problem = build_master(sets, use, links, demand);
      SolveOptions revised_options;
      revised_options.context = &context;
      revised_options.warm_start =
          revised_basis.empty() ? nullptr : &revised_basis;
      const Solution revised = solve(problem, revised_options);
      const Solution cold = solve_reference(problem);

      const std::string tag =
          "seed=" + std::to_string(seed) + " use=" + std::to_string(use);
      ASSERT_EQ(cold.status, revised.status) << tag;
      if (cold.status != Status::kOptimal) break;
      EXPECT_NEAR(cold.objective, revised.objective, kObjectiveTol) << tag;
      check_primal_feasible(problem, revised, tag + " [revised warm]");
      check_kkt(problem, revised, tag + " [revised warm]");
      revised_basis = revised.basis;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Rebuild `base` with a new rhs per row — Problem is append-only, so a
/// right-hand-side change means a fresh build over identical rows (the
/// variable ids and row order carry over, which is what keeps the old
/// basis meaningful).
Problem with_rhs(const Problem& base, const std::vector<double>& rhs) {
  Problem out(base.objective());
  for (std::size_t j = 0; j < base.num_variables(); ++j)
    out.add_variable(base.objective_coeffs()[j]);
  for (std::size_t i = 0; i < base.rows().size(); ++i)
    out.add_constraint(base.rows()[i].terms, base.rows()[i].sense, rhs[i]);
  return out;
}

/// Row-append family: the dual re-solve pattern, differentially. Solve a
/// feasible instance, then tighten right-hand sides and append rows that
/// mostly cut the old optimum — changes under which the stored basis stays
/// dual feasible — and hold the dual-simplex re-solve to a cold dense
/// solve of the grown problem: same status, 1e-6 objective parity, primal
/// feasibility, and KKT on every instance. Instances that go infeasible
/// after the cut are part of the family (the dual loop's Farkas exit).
TEST(RevisedSimplexFuzz, DualResolveParityAfterAppendingRows) {
  const std::size_t seeds = std::max<std::size_t>(seeds_per_family() / 2, 25);
  std::size_t engaged = 0;
  std::size_t attempted = 0;
  for (std::size_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(0xd0a1ULL ^ (seed * 0x9e3779b97f4a7c15ULL));
    const Problem base = feasible_bounded(rng);
    RevisedContext context;
    SolveOptions base_options;
    base_options.context = &context;
    const Solution first = solve(base, base_options);
    if (first.status != Status::kOptimal || first.basis.empty()) continue;
    ++attempted;

    std::vector<double> rhs;
    rhs.reserve(base.rows().size());
    for (const auto& row : base.rows()) rhs.push_back(row.rhs);
    const std::size_t tweaks = rng.uniform_int(0, 3);
    for (std::size_t t = 0; t < tweaks; ++t) {
      const std::size_t i = rng.uniform_int(0, base.rows().size() - 1);
      const double delta = rng.uniform(0.0, 1.0);
      switch (base.rows()[i].sense) {
        case Sense::kLessEqual: rhs[i] -= delta; break;     // tighten
        case Sense::kGreaterEqual: rhs[i] += delta; break;  // tighten
        case Sense::kEqual: break;
      }
    }

    Problem grown = with_rhs(base, rhs);
    const std::size_t appended = rng.uniform_int(1, 3);
    for (std::size_t r = 0; r < appended; ++r) {
      std::vector<std::pair<VarId, double>> row;
      double at_optimum = 0.0;
      for (std::size_t j = 0; j < grown.num_variables(); ++j) {
        if (rng.uniform() < 0.4) continue;
        const double c = rng.uniform(-1.0, 2.0);
        row.emplace_back(static_cast<VarId>(j), c);
        at_optimum += c * first.values[j];
      }
      if (row.empty()) {
        row.emplace_back(0, 1.0);
        at_optimum = first.values[0];
      }
      const bool cutting = rng.uniform() < 0.8;
      if (rng.uniform() < 0.5) {
        grown.add_constraint(
            row, Sense::kLessEqual,
            at_optimum + (cutting ? -rng.uniform(0.1, 1.5)
                                  : rng.uniform(0.0, 1.0)));
      } else {
        grown.add_constraint(
            row, Sense::kGreaterEqual,
            at_optimum + (cutting ? rng.uniform(0.1, 1.5)
                                  : -rng.uniform(0.0, 1.0)));
      }
    }

    SolveOptions dual_options;
    dual_options.warm_start = &first.basis;
    dual_options.context = &context;
    dual_options.dual_resolve = true;
    SolveStats stats;
    dual_options.stats = &stats;
    const Solution warm = solve(grown, dual_options);

    const Solution cold = solve_reference(grown);

    const std::string tag = "dual-resolve seed=" + std::to_string(seed);
    ASSERT_NE(warm.status, Status::kIterationLimit) << tag;
    ASSERT_EQ(cold.status, warm.status) << tag;
    if (stats.dual_phase && stats.fallback_reason == Fallback::kNone)
      ++engaged;
    if (cold.status != Status::kOptimal) continue;
    EXPECT_NEAR(cold.objective, warm.objective, kObjectiveTol) << tag;
    check_primal_feasible(grown, warm, tag + " [dual warm]");
    check_kkt(grown, warm, tag + " [dual warm]");
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The family must actually exercise the dual phase on a healthy share of
  // its instances, not quietly fall back cold.
  EXPECT_GT(4 * engaged, attempted)
      << "dual path engaged on " << engaged << "/" << attempted;
}

/// A badly-scaled instance and the facts that make it checkable: a witness
/// point x̂ that satisfies every row, and the column scales c_j.
struct ScaledInstance {
  Problem problem;
  std::vector<double> witness;
  std::vector<double> col_scale;
};

/// Badly-scaled family: a well-scaled feasible core (as in
/// feasible_bounded) whose rows are multiplied by r_i and whose variables
/// are divided by c_j, both drawn log-uniformly from 1e-8..1e8. The witness
/// x̂_j = c_j·w_j satisfies every row by construction, and a bounding row
/// Σ x_j/c_j <= Σ x̂_j/c_j + 1 keeps the instance bounded either way, so the
/// only correct verdict is kOptimal.
ScaledInstance badly_scaled(Rng& rng) {
  const auto scale = [&rng] { return std::pow(10.0, rng.uniform(-8.0, 8.0)); };
  const std::size_t vars = rng.uniform_int(2, 24);
  const std::size_t rows = rng.uniform_int(1, 20);
  ScaledInstance out{Problem(rng.uniform() < 0.5 ? Objective::kMaximize
                                                 : Objective::kMinimize),
                     {}, {}};
  for (std::size_t j = 0; j < vars; ++j) {
    const double c = scale();
    out.col_scale.push_back(c);
    out.witness.push_back(c * rng.uniform(0.0, 3.0));
    out.problem.add_variable(rng.uniform(-1.5, 2.0) / c);
  }
  for (std::size_t i = 0; i < rows; ++i) {
    const double r = scale();
    std::vector<std::pair<VarId, double>> row;
    double lhs = 0.0;
    for (std::size_t j = 0; j < vars; ++j) {
      if (rng.uniform() < 0.3) continue;
      const double a = r * rng.uniform(-1.0, 2.0) / out.col_scale[j];
      row.emplace_back(static_cast<VarId>(j), a);
      lhs += a * out.witness[j];
    }
    switch (rng.uniform_int(0, 2)) {
      case 0:
        out.problem.add_constraint(row, Sense::kLessEqual,
                                   lhs + r * rng.uniform(0.0, 2.0));
        break;
      case 1:
        out.problem.add_constraint(row, Sense::kGreaterEqual,
                                   lhs - r * rng.uniform(0.0, 2.0));
        break;
      default:
        out.problem.add_constraint(row, Sense::kEqual, lhs);
        break;
    }
  }
  std::vector<std::pair<VarId, double>> bound;
  double level = 1.0;
  for (std::size_t j = 0; j < vars; ++j) {
    bound.emplace_back(static_cast<VarId>(j), 1.0 / out.col_scale[j]);
    level += out.witness[j] / out.col_scale[j];
  }
  out.problem.add_constraint(bound, Sense::kLessEqual, level);
  return out;
}

/// True when `solution` is an optimum the instance's witness vouches for:
/// kOptimal, x >= 0 and every row satisfied to 1e-6 relative to the
/// magnitudes in that row, and an objective no worse than x̂'s.
bool answers_scaled_instance(const ScaledInstance& instance,
                             const Solution& solution) {
  const Problem& problem = instance.problem;
  if (solution.status != Status::kOptimal ||
      solution.values.size() != problem.num_variables())
    return false;
  const std::vector<double>& x = solution.values;
  for (std::size_t j = 0; j < x.size(); ++j)
    if (!(x[j] >= -kFeasTol * instance.col_scale[j])) return false;
  for (const Problem::Row& row : problem.rows()) {
    double lhs = 0.0;
    double magnitude = std::abs(row.rhs);
    for (const auto& [var, coeff] : row.terms) {
      lhs += coeff * x[static_cast<std::size_t>(var)];
      magnitude += std::abs(coeff * x[static_cast<std::size_t>(var)]);
    }
    const double tol = kFeasTol * magnitude;
    if ((row.sense != Sense::kGreaterEqual && lhs > row.rhs + tol) ||
        (row.sense != Sense::kLessEqual && lhs < row.rhs - tol))
      return false;
  }
  const double sign = problem.objective() == Objective::kMaximize ? 1.0 : -1.0;
  double found = 0.0, witnessed = 0.0, magnitude = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    const double c = problem.objective_coeffs()[j];
    found += c * x[j];
    witnessed += c * instance.witness[j];
    magnitude += std::abs(c) * (std::abs(x[j]) + instance.witness[j]);
  }
  return sign * found >= sign * witnessed - kFeasTol * magnitude;
}

/// The badly-scaled family against the equilibrated restart. The revised
/// engine's first pass fails numerically on a few percent of these
/// instances; solve() then re-runs it on a power-of-two equilibrated copy.
/// At least 90% of the instances that reach that restart must come back
/// optimal, feasible and no worse than the witness, with duals that close
/// the duality gap; any exception must be InvariantError (anything else
/// escapes the catch and fails the test).
TEST(RevisedSimplexFuzz, BadlyScaledFamilyRestartsEquilibrated) {
  const std::size_t instances = 20 * seeds_per_family();
  std::size_t reached = 0, correct = 0, wrong_verdict = 0, bad_answer = 0,
              threw = 0;
  for (std::size_t seed = 1; seed <= instances; ++seed) {
    Rng rng(0x5ca1eULL ^ (seed * 0x9e3779b97f4a7c15ULL));
    const ScaledInstance instance = badly_scaled(rng);
    SolveStats stats;
    SolveOptions options;
    options.stats = &stats;
    try {
      const Solution solution = solve(instance.problem, options);
      if (stats.fallback_reason != Fallback::kNumerical) continue;
      ++reached;
      if (solution.status != Status::kOptimal) {
        ++wrong_verdict;
        continue;
      }
      if (!answers_scaled_instance(instance, solution)) {
        ++bad_answer;
        continue;
      }
      ++correct;
      // Strong duality: y·b equals the optimum when the duals were scaled
      // back by the same row factors as the rows.
      double yb = 0.0, magnitude = std::abs(solution.objective);
      for (std::size_t i = 0; i < solution.duals.size(); ++i) {
        const double term = solution.duals[i] * instance.problem.rows()[i].rhs;
        yb += term;
        magnitude += std::abs(term);
      }
      EXPECT_NEAR(yb, solution.objective, kFeasTol * magnitude)
          << "seed=" << seed;
    } catch (const InvariantError&) {
      ++reached;
      ++threw;
    }
  }
  std::printf(
      "badly-scaled: %zu instances, %zu reached the restart: %zu correct, "
      "%zu wrong verdict, %zu infeasible answer, %zu threw\n",
      instances, reached, correct, wrong_verdict, bad_answer, threw);
  EXPECT_GE(10 * correct, 9 * reached);
  // About 3-4% of the family reaches the restart; a sample this large that
  // reaches it far less often no longer tests it.
  if (instances >= 1000) {
    EXPECT_GE(50 * reached, instances);
  }
}

/// Beale's classic cycling LP (1955): Dantzig's most-improving rule cycles
/// forever on this instance under exact arithmetic. The engines' permanent
/// switch to Bland's rule must terminate it at the known optimum — on the
/// revised engine this exercises anti-cycling under the eta-update path.
TEST(RevisedSimplexFuzz, BealeCyclingInstanceTerminatesAtOptimum) {
  Problem problem(Objective::kMinimize);
  const VarId x1 = problem.add_variable(-0.75);
  const VarId x2 = problem.add_variable(150.0);
  const VarId x3 = problem.add_variable(-0.02);
  const VarId x4 = problem.add_variable(6.0);
  problem.add_constraint(
      {{x1, 0.25}, {x2, -60.0}, {x3, -1.0 / 25.0}, {x4, 9.0}},
      Sense::kLessEqual, 0.0);
  problem.add_constraint(
      {{x1, 0.5}, {x2, -90.0}, {x3, -1.0 / 50.0}, {x4, 3.0}},
      Sense::kLessEqual, 0.0);
  problem.add_constraint({{x3, 1.0}}, Sense::kLessEqual, 1.0);
  check_differential(problem, "beale");
  const Solution revised = solve(problem);
  ASSERT_TRUE(revised.optimal());
  EXPECT_NEAR(revised.objective, -0.05, 1e-9);
}

/// Eq. 6 master extracted from a real scenario (the Scenario II chain of
/// the paper), solved by both engines: the one non-synthetic instance the
/// ISSUE calls out by name, pinned to the analytically known optimum.
TEST(RevisedSimplexFuzz, ScenarioTwoMasterParity) {
  const core::ScenarioTwo scenario = core::make_scenario_two();
  const auto sets = scenario.model.maximal_independent_sets(scenario.chain);
  std::vector<std::vector<double>> mbps(sets.size());
  for (std::size_t s = 0; s < sets.size(); ++s)
    for (net::LinkId link : scenario.chain)
      mbps[s].push_back(sets[s].mbps_on(link));
  const std::vector<double> demand(scenario.chain.size(), 0.0);
  const Problem problem =
      build_master(mbps, sets.size(), scenario.chain.size(), demand);
  check_differential(problem, "scenario-two master");
  const Solution revised = solve(problem);
  ASSERT_TRUE(revised.optimal());
  EXPECT_NEAR(revised.objective, core::ScenarioTwo::kOptimalMbps, 1e-9);
}

}  // namespace
}  // namespace mrwsn::lp
