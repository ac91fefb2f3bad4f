#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace mrwsn::lp {
namespace {

constexpr double kTol = 1e-7;

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  ->  x=2, y=6, z=36.
  Problem p(Objective::kMaximize);
  const VarId x = p.add_variable(3.0, "x");
  const VarId y = p.add_variable(5.0, "y");
  p.add_constraint({{x, 1.0}}, Sense::kLessEqual, 4.0);
  p.add_constraint({{y, 2.0}}, Sense::kLessEqual, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Sense::kLessEqual, 18.0);

  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 36.0, kTol);
  EXPECT_NEAR(s.value(x), 2.0, kTol);
  EXPECT_NEAR(s.value(y), 6.0, kTol);
}

TEST(Simplex, TextbookDualsMatchHandComputation) {
  // Same LP as above; the optimal duals are (0, 3/2, 1):
  // complementary slackness kills y1 (x < 4), then 3 = 3*y3, 5 = 2*y2 + 2*y3.
  Problem p(Objective::kMaximize);
  const VarId x = p.add_variable(3.0);
  const VarId y = p.add_variable(5.0);
  p.add_constraint({{x, 1.0}}, Sense::kLessEqual, 4.0);
  p.add_constraint({{y, 2.0}}, Sense::kLessEqual, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Sense::kLessEqual, 18.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  ASSERT_EQ(s.duals.size(), 3u);
  EXPECT_NEAR(s.dual(0), 0.0, kTol);
  EXPECT_NEAR(s.dual(1), 1.5, kTol);
  EXPECT_NEAR(s.dual(2), 1.0, kTol);
  // Strong duality: y'b equals the optimum.
  EXPECT_NEAR(0.0 * 4 + 1.5 * 12 + 1.0 * 18, s.objective, kTol);
}

TEST(Simplex, MinimizationDualsAreRhsDerivatives) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2: optimum 20 at (10, 0).
  // Raising the first rhs by 1 raises the cost by 2 -> dual = 2; the
  // second constraint is slack -> dual = 0.
  Problem p(Objective::kMinimize);
  const VarId x = p.add_variable(2.0);
  const VarId y = p.add_variable(3.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGreaterEqual, 10.0);
  p.add_constraint({{x, 1.0}}, Sense::kGreaterEqual, 2.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.dual(0), 2.0, kTol);
  EXPECT_NEAR(s.dual(1), 0.0, kTol);
}

TEST(Simplex, EqualityConstraintDual) {
  // max x + y s.t. x + y = 5, x <= 3: raising the equality rhs by 1
  // raises the optimum by 1.
  Problem p(Objective::kMaximize);
  const VarId x = p.add_variable(1.0);
  const VarId y = p.add_variable(1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kEqual, 5.0);
  p.add_constraint({{x, 1.0}}, Sense::kLessEqual, 3.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.dual(0), 1.0, kTol);
  EXPECT_NEAR(s.dual(1), 0.0, kTol);
}

TEST(Simplex, DualOfNegatedRowMatchesFiniteDifference) {
  // max x s.t. -x <= -3 (x >= 3), x <= 7: only the second row binds.
  Problem p(Objective::kMaximize);
  const VarId x = p.add_variable(1.0);
  p.add_constraint({{x, -1.0}}, Sense::kLessEqual, -3.0);
  p.add_constraint({{x, 1.0}}, Sense::kLessEqual, 7.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.dual(0), 0.0, kTol);
  EXPECT_NEAR(s.dual(1), 1.0, kTol);
}

TEST(Simplex, SolvesMinimizationWithGreaterEqual) {
  // min 2x + 3y  s.t. x + y >= 10, x >= 2  ->  x=10 is not forced; optimum
  // at y=0, x=10 -> 20? cost(2)=2 per x < 3 per y, so all x: x=10, z=20.
  Problem p(Objective::kMinimize);
  const VarId x = p.add_variable(2.0);
  const VarId y = p.add_variable(3.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGreaterEqual, 10.0);
  p.add_constraint({{x, 1.0}}, Sense::kGreaterEqual, 2.0);

  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 20.0, kTol);
  EXPECT_NEAR(s.value(x), 10.0, kTol);
  EXPECT_NEAR(s.value(y), 0.0, kTol);
}

TEST(Simplex, HandlesEqualityConstraints) {
  // max x + y  s.t. x + y = 5, x <= 3  ->  z = 5.
  Problem p(Objective::kMaximize);
  const VarId x = p.add_variable(1.0);
  const VarId y = p.add_variable(1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kEqual, 5.0);
  p.add_constraint({{x, 1.0}}, Sense::kLessEqual, 3.0);

  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 5.0, kTol);
  EXPECT_NEAR(s.value(x) + s.value(y), 5.0, kTol);
}

TEST(Simplex, DetectsInfeasibility) {
  Problem p(Objective::kMaximize);
  const VarId x = p.add_variable(1.0);
  p.add_constraint({{x, 1.0}}, Sense::kLessEqual, 1.0);
  p.add_constraint({{x, 1.0}}, Sense::kGreaterEqual, 2.0);
  EXPECT_EQ(solve(p).status, Status::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Problem p(Objective::kMaximize);
  const VarId x = p.add_variable(1.0);
  const VarId y = p.add_variable(0.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}}, Sense::kLessEqual, 1.0);
  EXPECT_EQ(solve(p).status, Status::kUnbounded);
}

TEST(Simplex, HandlesNegativeRhs) {
  // max x  s.t. -x <= -3 (i.e. x >= 3), x <= 7.
  Problem p(Objective::kMaximize);
  const VarId x = p.add_variable(1.0);
  p.add_constraint({{x, -1.0}}, Sense::kLessEqual, -3.0);
  p.add_constraint({{x, 1.0}}, Sense::kLessEqual, 7.0);

  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 7.0, kTol);
}

TEST(Simplex, AccumulatesRepeatedTerms) {
  // x + x <= 4 means 2x <= 4.
  Problem p(Objective::kMaximize);
  const VarId x = p.add_variable(1.0);
  p.add_constraint({{x, 1.0}, {x, 1.0}}, Sense::kLessEqual, 4.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 2.0, kTol);
}

TEST(Simplex, DegenerateProblemStillTerminates) {
  // Classic degeneracy: multiple constraints active at the optimum.
  Problem p(Objective::kMaximize);
  const VarId x = p.add_variable(1.0);
  const VarId y = p.add_variable(1.0);
  p.add_constraint({{x, 1.0}}, Sense::kLessEqual, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 1.0);
  p.add_constraint({{x, 1.0}, {y, 2.0}}, Sense::kLessEqual, 1.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 1.0, kTol);
}

TEST(Simplex, RedundantEqualityRowsAreAccepted) {
  Problem p(Objective::kMaximize);
  const VarId x = p.add_variable(1.0);
  p.add_constraint({{x, 1.0}}, Sense::kEqual, 2.0);
  p.add_constraint({{x, 2.0}}, Sense::kEqual, 4.0);  // same hyperplane
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 2.0, kTol);
}

TEST(Simplex, EmptyProblemIsTriviallyOptimal) {
  Problem p(Objective::kMaximize);
  const Solution s = solve(p);
  EXPECT_TRUE(s.optimal());
  EXPECT_EQ(s.objective, 0.0);
}

TEST(Simplex, ZeroVariableInfeasibleConstraint) {
  Problem p(Objective::kMaximize);
  p.add_constraint({}, Sense::kGreaterEqual, 1.0);  // 0 >= 1
  EXPECT_EQ(solve(p).status, Status::kInfeasible);
}

TEST(Simplex, RejectsUnknownVariable) {
  Problem p(Objective::kMaximize);
  (void)p.add_variable(1.0);
  EXPECT_THROW(p.add_constraint({{7, 1.0}}, Sense::kLessEqual, 1.0),
               PreconditionError);
}

TEST(Simplex, RejectsNonFiniteCoefficients) {
  // NaN/inf coefficients used to flow silently into the pivots and poison
  // every comparison downstream; they must be rejected at build time.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Problem p(Objective::kMaximize);
  const VarId x = p.add_variable(1.0, "x");
  EXPECT_THROW((void)p.add_variable(kNan), PreconditionError);
  EXPECT_THROW((void)p.add_variable(-kInf), PreconditionError);
  EXPECT_THROW(p.add_constraint({{x, kNan}}, Sense::kLessEqual, 1.0),
               PreconditionError);
  EXPECT_THROW(p.add_constraint({{x, kInf}}, Sense::kGreaterEqual, 0.0),
               PreconditionError);
  EXPECT_THROW(p.add_constraint({{x, 1.0}}, Sense::kLessEqual, kNan),
               PreconditionError);
  EXPECT_THROW(p.add_constraint({{x, 1.0}}, Sense::kEqual, -kInf),
               PreconditionError);
  // The error message names the offending variable.
  try {
    p.add_constraint({{x, kNan}}, Sense::kLessEqual, 1.0);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("'x'"), std::string::npos);
  }
  // The problem is still usable after the rejected rows.
  p.add_constraint({{x, 1.0}}, Sense::kLessEqual, 2.0);
  const Solution solution = solve(p);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 2.0, 1e-9);
}

TEST(Simplex, VariableNamesAreStored) {
  Problem p;
  const VarId a = p.add_variable(0.0, "alpha");
  const VarId b = p.add_variable(0.0);
  EXPECT_EQ(p.variable_name(a), "alpha");
  EXPECT_EQ(p.variable_name(b), "x1");
}

TEST(Simplex, SetTermEditsRowsInPlace) {
  // set_term must cover insert / replace / erase while preserving the
  // sorted-sparse row invariant that the solver matrix build relies on.
  Problem p(Objective::kMaximize);
  const VarId a = p.add_variable(1.0);
  const VarId b = p.add_variable(1.0);
  const VarId c = p.add_variable(1.0);
  p.add_constraint({{a, 1.0}, {c, 3.0}}, Sense::kLessEqual, 6.0);

  p.set_term(0, b, 2.0);  // insert in the middle
  ASSERT_EQ(p.rows()[0].terms.size(), 3u);
  EXPECT_EQ(p.rows()[0].coeff(b), 2.0);
  EXPECT_TRUE(std::is_sorted(
      p.rows()[0].terms.begin(), p.rows()[0].terms.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; }));

  p.set_term(0, a, 4.0);  // replace existing
  EXPECT_EQ(p.rows()[0].coeff(a), 4.0);

  p.set_term(0, c, 0.0);  // zero coefficient erases the term
  EXPECT_EQ(p.rows()[0].terms.size(), 2u);
  EXPECT_EQ(p.rows()[0].coeff(c), 0.0);

  p.remove_term(0, b);
  EXPECT_EQ(p.rows()[0].terms.size(), 1u);
  p.remove_term(0, b);  // absent: no-op
  EXPECT_EQ(p.rows()[0].terms.size(), 1u);

  // The edited problem solves to what a freshly built equivalent gives:
  // max a + b + c s.t. 4a <= 6 with b, c unbounded... so bound them.
  p.add_constraint({{b, 1.0}}, Sense::kLessEqual, 1.0);
  p.add_constraint({{c, 1.0}}, Sense::kLessEqual, 1.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 6.0 / 4.0 + 1.0 + 1.0, kTol);

  EXPECT_THROW(p.set_term(9, a, 1.0), PreconditionError);
  EXPECT_THROW(p.set_term(0, 99, 1.0), PreconditionError);
  EXPECT_THROW(p.set_term(0, a, std::numeric_limits<double>::quiet_NaN()),
               PreconditionError);
}

TEST(Simplex, RetireColumnByEditMatchesRebuild) {
  // The churn-repair pattern: zero a column out of every row and price it
  // out of the objective; the edited master must solve exactly like one
  // built without the column (which keeps x=0 for the retiree).
  Problem edited(Objective::kMinimize);
  const VarId keep = edited.add_variable(1.0);
  const VarId retire = edited.add_variable(0.5);
  edited.add_constraint({{keep, 2.0}, {retire, 1.0}}, Sense::kGreaterEqual,
                        4.0);
  edited.add_constraint({{keep, 1.0}, {retire, 3.0}}, Sense::kGreaterEqual,
                        3.0);
  edited.remove_term(0, retire);
  edited.remove_term(1, retire);
  edited.set_objective_coeff(retire, 1.0);  // inert for minimize: cost > 0

  Problem rebuilt(Objective::kMinimize);
  const VarId k2 = rebuilt.add_variable(1.0);
  rebuilt.add_constraint({{k2, 2.0}}, Sense::kGreaterEqual, 4.0);
  rebuilt.add_constraint({{k2, 1.0}}, Sense::kGreaterEqual, 3.0);

  const Solution a = solve(edited);
  const Solution b = solve(rebuilt);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_NEAR(a.objective, b.objective, kTol);
  EXPECT_NEAR(a.value(retire), 0.0, kTol);
  EXPECT_NEAR(a.value(keep), b.value(k2), kTol);
}

TEST(Simplex, SchedulingShapedProblem) {
  // Shape of Eq. 6 in miniature: two "independent set" columns serving two
  // links; maximize new-flow throughput with a background demand.
  // Columns: A delivers 54 on link0; B delivers 12 on link0 and 18 on link1.
  // Background: 6 Mbps on link0. New path: both links (f on each).
  Problem p(Objective::kMaximize);
  const VarId la = p.add_variable(0.0, "lambdaA");
  const VarId lb = p.add_variable(0.0, "lambdaB");
  const VarId f = p.add_variable(1.0, "f");
  p.add_constraint({{la, 1.0}, {lb, 1.0}}, Sense::kLessEqual, 1.0);
  p.add_constraint({{la, 54.0}, {lb, 12.0}, {f, -1.0}}, Sense::kGreaterEqual, 6.0);
  p.add_constraint({{lb, 18.0}, {f, -1.0}}, Sense::kGreaterEqual, 0.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  // f = 18*lb and 54(1-lb) + 12lb - f >= 6 -> 54 - 42lb - 18lb >= 6 ->
  // lb <= 0.8 -> f = 14.4.
  EXPECT_NEAR(s.objective, 14.4, kTol);
}

/// Property sweep: random feasible-by-construction LPs must come back
/// optimal, respect every constraint, and never beat an obvious bound.
class SimplexRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomTest, RandomBoxProblemsAreSolvedWithinBounds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = static_cast<int>(rng.uniform_int(1, 6));
  const int m = static_cast<int>(rng.uniform_int(1, 6));

  Problem p(Objective::kMaximize);
  std::vector<VarId> vars;
  std::vector<double> costs;
  for (int j = 0; j < n; ++j) {
    costs.push_back(rng.uniform(0.0, 5.0));
    vars.push_back(p.add_variable(costs.back()));
  }
  // Random non-negative rows with positive rhs: x=0 is always feasible and
  // each variable is capped, so the LP is feasible and bounded.
  std::vector<double> caps(n, 1e30);
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<VarId, double>> row;
    const double rhs = rng.uniform(1.0, 10.0);
    for (int j = 0; j < n; ++j) {
      const double coeff = rng.uniform(0.1, 3.0);
      row.emplace_back(vars[j], coeff);
      caps[j] = std::min(caps[j], rhs / coeff);
    }
    p.add_constraint(row, Sense::kLessEqual, rhs);
  }

  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  double bound = 0.0;
  for (int j = 0; j < n; ++j) bound += costs[j] * caps[j];
  EXPECT_LE(s.objective, bound + kTol);
  EXPECT_GE(s.objective, -kTol);
  for (int j = 0; j < n; ++j) EXPECT_GE(s.value(vars[j]), -kTol);

  // Strong duality on every instance: y'b == optimum, and for a
  // maximization with <= rows every dual is non-negative.
  ASSERT_EQ(s.duals.size(), p.num_constraints());
  double dual_value = 0.0;
  for (std::size_t i = 0; i < p.rows().size(); ++i) {
    EXPECT_GE(s.dual(i), -kTol);
    dual_value += s.dual(i) * p.rows()[i].rhs;
  }
  EXPECT_NEAR(dual_value, s.objective, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomTest, ::testing::Range(0, 25));

// The textbook LP all dual-resolve tests below start from:
// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> optimum 36 at (2, 6).
Problem dual_base(VarId* x, VarId* y) {
  Problem p(Objective::kMaximize);
  *x = p.add_variable(3.0, "x");
  *y = p.add_variable(5.0, "y");
  p.add_constraint({{*x, 1.0}}, Sense::kLessEqual, 4.0);
  p.add_constraint({{*y, 2.0}}, Sense::kLessEqual, 12.0);
  p.add_constraint({{*x, 3.0}, {*y, 2.0}}, Sense::kLessEqual, 18.0);
  return p;
}

TEST(SimplexDualResolve, AppendedRowReSolvesWarm) {
  VarId x = 0, y = 0;
  Problem p = dual_base(&x, &y);
  RevisedContext context;
  SolveOptions first;
  first.context = &context;
  const Solution base = solve(p, first);
  ASSERT_TRUE(base.optimal());
  ASSERT_FALSE(base.basis.empty());

  // A new row cutting the old optimum (x + y <= 6) makes the stored basis
  // primal infeasible but dual feasible; the dual phase must land on the
  // cold optimum x=0, y=6 -> 30.
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 6.0);
  SolveOptions re;
  re.warm_start = &base.basis;
  re.context = &context;
  re.dual_resolve = true;
  SolveStats stats;
  re.stats = &stats;
  const Solution warm = solve(p, re);
  const Solution cold = solve(p);
  ASSERT_TRUE(warm.optimal());
  ASSERT_TRUE(cold.optimal());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  EXPECT_NEAR(warm.objective, 30.0, 1e-9);
  EXPECT_TRUE(stats.dual_phase);
  EXPECT_FALSE(stats.cold);
  EXPECT_GE(stats.dual_pivots, 1u);
  EXPECT_EQ(stats.fallback_reason, Fallback::kNone);
}

TEST(SimplexDualResolve, RhsOnlyChangeReusesContextFactorization) {
  VarId x = 0, y = 0;
  Problem p = dual_base(&x, &y);
  RevisedContext context;
  SolveOptions first;
  first.context = &context;
  const Solution base = solve(p, first);
  ASSERT_TRUE(base.optimal());

  // Tighten the binding third row: same basis matrix, so the cached
  // factorization applies verbatim and only the dual phase runs.
  Problem tightened(Objective::kMaximize);
  VarId tx = tightened.add_variable(3.0, "x");
  VarId ty = tightened.add_variable(5.0, "y");
  tightened.add_constraint({{tx, 1.0}}, Sense::kLessEqual, 4.0);
  tightened.add_constraint({{ty, 2.0}}, Sense::kLessEqual, 12.0);
  tightened.add_constraint({{tx, 3.0}, {ty, 2.0}}, Sense::kLessEqual, 14.0);
  SolveOptions re;
  re.warm_start = &base.basis;
  re.context = &context;
  re.dual_resolve = true;
  SolveStats stats;
  re.stats = &stats;
  const Solution warm = solve(tightened, re);
  const Solution cold = solve(tightened);
  ASSERT_TRUE(warm.optimal());
  ASSERT_TRUE(cold.optimal());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  EXPECT_TRUE(stats.context_reused);
  EXPECT_TRUE(stats.dual_phase);
  EXPECT_EQ(stats.fallback_reason, Fallback::kNone);
}

TEST(SimplexDualResolve, InfeasibleAfterRowAppendIsDetected) {
  VarId x = 0, y = 0;
  Problem p = dual_base(&x, &y);
  const Solution base = solve(p);
  ASSERT_TRUE(base.optimal());

  p.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGreaterEqual, 100.0);
  SolveOptions re;
  re.warm_start = &base.basis;
  re.dual_resolve = true;
  const Solution warm = solve(p, re);
  EXPECT_EQ(warm.status, solve(p).status);
  EXPECT_EQ(warm.status, Status::kInfeasible);
}

TEST(SimplexDualResolve, ObjectiveChangeFailsDualAuditAndFallsBackCold) {
  VarId x = 0, y = 0;
  Problem p = dual_base(&x, &y);
  const Solution base = solve(p);
  ASSERT_TRUE(base.optimal());

  // Same rows, different objective: the stored basis is not dual feasible
  // for this problem, so the audit must reject it and the cold path must
  // still produce the right optimum.
  Problem flipped(Objective::kMaximize);
  VarId fx = flipped.add_variable(5.0, "x");
  VarId fy = flipped.add_variable(1.0, "y");
  flipped.add_constraint({{fx, 1.0}}, Sense::kLessEqual, 4.0);
  flipped.add_constraint({{fy, 2.0}}, Sense::kLessEqual, 12.0);
  flipped.add_constraint({{fx, 3.0}, {fy, 2.0}}, Sense::kLessEqual, 18.0);
  SolveOptions re;
  re.warm_start = &base.basis;
  re.dual_resolve = true;
  SolveStats stats;
  re.stats = &stats;
  const Solution warm = solve(flipped, re);
  const Solution cold = solve(flipped);
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  EXPECT_EQ(stats.fallback_reason, Fallback::kNotDualFeasible);
  EXPECT_TRUE(stats.cold);
}

TEST(SimplexDualResolve, StaleContextIsInvalidatedWithoutDualPath) {
  VarId x = 0, y = 0;
  Problem p = dual_base(&x, &y);
  RevisedContext context;
  SolveOptions first;
  first.context = &context;
  const Solution base = solve(p, first);
  ASSERT_TRUE(base.optimal());
  EXPECT_FALSE(context.empty());
  EXPECT_EQ(context.rows(), 3u);

  // Row count changed and no dual re-solve requested: the context must be
  // dropped (not silently bypassed) and the fallback reason surfaced.
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 6.0);
  SolveOptions stale;
  stale.context = &context;
  SolveStats stats;
  stale.stats = &stats;
  const Solution re = solve(p, stale);
  ASSERT_TRUE(re.optimal());
  EXPECT_NEAR(re.objective, 30.0, 1e-9);
  EXPECT_EQ(stats.fallback_reason, Fallback::kStaleContextRows);
  // The context now belongs to the four-row problem again.
  EXPECT_EQ(context.rows(), 4u);
}

TEST(SimplexDualResolve, DualPivotCapStallsToColdFallback) {
  // Three cutting rows leave several primal-infeasible basic slacks, so
  // the dual phase needs at least two pivots; first establish that with an
  // uncapped re-solve, then hold the identical edit to a cap of one and
  // require the stall guard to abandon the dual path and land cold on the
  // optimum (x=1, y=4 -> 23).
  VarId x = 0, y = 0;
  Problem warm_p = dual_base(&x, &y);
  RevisedContext warm_context;
  SolveOptions warm_first;
  warm_first.context = &warm_context;
  const Solution warm_base = solve(warm_p, warm_first);
  ASSERT_TRUE(warm_base.optimal());
  warm_p.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 6.0);
  warm_p.add_constraint({{x, 1.0}}, Sense::kLessEqual, 1.0);
  warm_p.add_constraint({{y, 1.0}}, Sense::kLessEqual, 4.0);
  SolveOptions warm_re;
  warm_re.warm_start = &warm_base.basis;
  warm_re.context = &warm_context;
  warm_re.dual_resolve = true;
  SolveStats warm_stats;
  warm_re.stats = &warm_stats;
  const Solution warm = solve(warm_p, warm_re);
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, 23.0, 1e-9);
  EXPECT_TRUE(warm_stats.dual_phase);
  ASSERT_GE(warm_stats.dual_pivots, 2u);

  Problem capped_p = dual_base(&x, &y);
  RevisedContext capped_context;
  SolveOptions capped_first;
  capped_first.context = &capped_context;
  const Solution capped_base = solve(capped_p, capped_first);
  ASSERT_TRUE(capped_base.optimal());
  capped_p.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 6.0);
  capped_p.add_constraint({{x, 1.0}}, Sense::kLessEqual, 1.0);
  capped_p.add_constraint({{y, 1.0}}, Sense::kLessEqual, 4.0);
  SolveOptions capped_re;
  capped_re.warm_start = &capped_base.basis;
  capped_re.context = &capped_context;
  capped_re.dual_resolve = true;
  capped_re.dual_pivot_cap = 1;
  SolveStats capped_stats;
  capped_re.stats = &capped_stats;
  const Solution capped = solve(capped_p, capped_re);
  ASSERT_TRUE(capped.optimal());
  EXPECT_NEAR(capped.objective, warm.objective, 1e-9);
  EXPECT_TRUE(capped_stats.cold);
  EXPECT_EQ(capped_stats.fallback_reason, Fallback::kDualStalled);
}

TEST(SimplexDualResolve, TrailingEqualityRowIsRejectedToColdPath) {
  VarId x = 0, y = 0;
  Problem p = dual_base(&x, &y);
  const Solution base = solve(p);
  ASSERT_TRUE(base.optimal());

  // An appended equality row has no slack to complete the basis with; the
  // dual path must bow out and the cold solve must still be returned.
  p.add_constraint({{x, 1.0}}, Sense::kEqual, 1.0);
  SolveOptions re;
  re.warm_start = &base.basis;
  re.dual_resolve = true;
  SolveStats stats;
  re.stats = &stats;
  const Solution warm = solve(p, re);
  const Solution cold = solve(p);
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  EXPECT_EQ(stats.fallback_reason, Fallback::kDualRejected);
}

// Two badly scaled LPs from the fuzz harness's badly-scaled family, cut
// down to the rows that still make the revised engine's first cold pass
// fail numerically. Each is bounded and feasible (the witness satisfies
// every row), so the only right answer is an optimum at least as good as
// the witness. solve() must reach it through the equilibrated restart.
struct WitnessedLp {
  Problem problem{Objective::kMaximize};
  std::vector<double> witness;
};

void expect_equilibrated_optimum(const WitnessedLp& lp) {
  SolveStats stats;
  SolveOptions options;
  options.stats = &stats;
  const Solution s = solve(lp.problem, options);
  EXPECT_EQ(stats.fallback_reason, Fallback::kNumerical);
  ASSERT_TRUE(s.optimal());
  for (const Problem::Row& row : lp.problem.rows()) {
    double lhs = 0.0, magnitude = std::abs(row.rhs);
    for (const auto& [var, coeff] : row.terms) {
      lhs += coeff * s.value(var);
      magnitude += std::abs(coeff * s.value(var));
    }
    if (row.sense != Sense::kGreaterEqual) {
      EXPECT_LE(lhs, row.rhs + 1e-6 * magnitude);
    }
    if (row.sense != Sense::kLessEqual) {
      EXPECT_GE(lhs, row.rhs - 1e-6 * magnitude);
    }
  }
  double witnessed = 0.0;
  for (std::size_t j = 0; j < lp.witness.size(); ++j)
    witnessed += lp.problem.objective_coeffs()[j] * lp.witness[j];
  EXPECT_GE(s.objective, witnessed - 1e-6 * std::abs(witnessed));
}

TEST(SimplexEquilibratedRestart, DriftedArtificialAfterPhaseOneIsRestarted) {
  // The first pass ends phase 1 with a basic artificial at a nonzero value;
  // this used to escape solve() as an InvariantError.
  WitnessedLp lp;
  Problem& p = lp.problem;
  p.add_variable(0x1.04638cff3adcep+12);
  p.add_variable(-0x1.23ae1a88815a7p-18);
  lp.witness = {0x1.0f4bd1b655ca8p-15, 0x1.9c8aa9445f47cp+13};
  p.add_constraint({{0, 0x1.5d605b4a476c8p-4}}, Sense::kEqual,
                   0x1.72407a12e27cbp-19);
  p.add_constraint({{0, 0x1.ee86de8353b2dp+25}, {1, -0x1.7f1694113ce93p-3}},
                   Sense::kLessEqual, 0x1.44246f5310e1ap+10);
  p.add_constraint({{0, -0x1.a8b833334f231p-14}, {1, 0x1.931af65404a1dp-28}},
                   Sense::kEqual, 0x1.44c9598eab188p-14);
  p.add_constraint({{0, 0x1.d99dc9ba95118p+12}, {1, 0x1.c7ae0ac5d02ffp-15}},
                   Sense::kLessEqual, 0x1.f65204552929cp+0);
  expect_equilibrated_optimum(lp);
}

TEST(SimplexEquilibratedRestart, FeasibleBadlyScaledLpIsNotCalledInfeasible) {
  // The first pass fails numerically; a cold dense tableau rerun of the
  // same unscaled rows called this feasible LP infeasible.
  WitnessedLp lp;
  Problem& p = lp.problem;
  for (double c : {-0x1.be5b5c6d10768p+10, 0x1.87b609c15f154p-15,
                   0x1.291c09582055p-15, -0x1.b75ebd7b6d654p-6})
    p.add_variable(c);
  lp.witness = {0x1.b586ff769f555p-10, 0x1.0c49cba057026p+15,
                0x1.ddc62fdce1fa4p+16, 0x1.448d35093391ap+5};
  p.add_constraint({{0, -0x1.34175d1f79fa6p+28}, {3, 0x1.1c60aa14dd18dp+14}},
                   Sense::kLessEqual, 0x1.3abbe787c5ca8p+20);
  p.add_constraint({{0, 0x1.7a6276f452e96p-2},
                    {1, 0x1.519c03636973fp-28},
                    {2, 0x1.456900f81b159p-28}},
                   Sense::kGreaterEqual, 0x1.61c1ad32cef4ap-10);
  p.add_constraint({{0, 0x1.f75e02e737613p+3},
                    {1, 0x1.34299dffc6a85p-21},
                    {2, -0x1.85489269efd18p-23},
                    {3, 0x1.031554d3f133p-11}},
                   Sense::kEqual, 0x1.6726fc469393fp-5);
  p.add_constraint({{1, 0x1.c7dc7af281cc2p-17}, {2, 0x1.842b90bb7d99ep-15}},
                   Sense::kGreaterEqual, 0x1.47758fdaf8fe4p+2);
  p.add_constraint({{0, -0x1.594cc1d7e9a9fp-14}, {3, 0x1.4ca21f38938a9p-29}},
                   Sense::kEqual, -0x1.50e2e7dc58692p-25);
  p.add_constraint({{1, 0x1.4d587e1be50d1p+12},
                    {2, 0x1.2d4484c92b988p+10},
                    {3, 0x1.f14bf9c5aac1ep+21}},
                   Sense::kEqual, 0x1.d8da74e22910cp+28);
  p.add_constraint({{0, 0x1.f3272b0587928p+2},
                    {1, -0x1.1a1ef0a267e74p-24},
                    {3, 0x1.5b17623102a8p-14}},
                   Sense::kEqual, 0x1.cea45fc105863p-7);
  p.add_constraint({{0, 0x1.4f8345861e24bp+37},
                    {1, 0x1.af57b4db3f24bp+11},
                    {2, 0x1.e487dc6dbde43p+9},
                    {3, 0x1.172b15dee67e8p+21}},
                   Sense::kEqual, 0x1.2c9e9a7920b0bp+29);
  p.add_constraint({{0, 0x1.6a7ab4da1c502p+10},
                    {1, 0x1.72e6e13b4dfap-15},
                    {2, 0x1.8a89bedc192f8p-16},
                    {3, 0x1.c646056b259aep-6}},
                   Sense::kLessEqual, 0x1.1e101da060506p+3);
  expect_equilibrated_optimum(lp);
}

}  // namespace
}  // namespace mrwsn::lp
