#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

/// A small, self-contained linear-programming solver.
///
/// The paper's available-bandwidth model (Eq. 6) and its clique-based upper
/// bound (Eq. 9) are linear programs over schedule time shares: few rows
/// (one per universe link plus the airtime budget) but column pools that
/// grow into the thousands under column generation. The production engine
/// is a sparse revised two-phase primal simplex — columns stored sparse, an
/// LU factorization of the basis with product-form (eta-file) updates
/// between pivots, periodic refactorization — whose per-iteration cost
/// scales with the problem's nonzeros instead of the full tableau; it is
/// the only engine solve() runs. When a cold run fails numerically, it
/// runs once more on a copy of the problem equilibrated by powers of two.
/// No external solver is used anywhere in the repository.
namespace mrwsn::lp {

enum class Objective { kMaximize, kMinimize };
enum class Sense { kLessEqual, kGreaterEqual, kEqual };

enum class Status {
  kOptimal,     ///< an optimal basic feasible solution was found
  kInfeasible,  ///< the constraint set admits no solution with x >= 0
  kUnbounded,   ///< the objective is unbounded over the feasible region
  kIterationLimit,  ///< the pivot budget of SolveOptions ran out first
};

/// Identifier of a decision variable within a Problem. Variables are
/// implicitly constrained to be non-negative (x >= 0), which matches every
/// use in this repository (time shares and throughputs).
using VarId = int;

/// Builder for an LP instance.
class Problem {
 public:
  explicit Problem(Objective objective = Objective::kMaximize)
      : objective_(objective) {}

  /// Add a non-negative decision variable with the given objective
  /// coefficient. Returns its id (dense, starting at 0).
  VarId add_variable(double objective_coeff, std::string name = {});

  /// Add a linear constraint  sum(coeff_i * x_i)  <sense>  rhs.
  /// Terms may repeat a variable; coefficients are accumulated.
  void add_constraint(const std::vector<std::pair<VarId, double>>& terms,
                      Sense sense, double rhs);

  /// Append one term to an existing row. `var` must be newer than every
  /// variable already in the row, which keeps the sorted-sparse invariant
  /// without a re-sort — exactly the column-generation pattern of growing
  /// a restricted master by one column in place instead of rebuilding it.
  void append_term(std::size_t row, VarId var, double coeff);

  /// Replace the right-hand side of an existing row (a master whose
  /// demands moved keeps its structure — and therefore any saved basis).
  void set_rhs(std::size_t row, double rhs);

  /// Set (insert, replace, or — with coeff 0 — erase) one coefficient of
  /// an existing row, keeping the sorted-sparse invariant. O(log nnz) to
  /// locate plus O(nnz) to shift on insert/erase. This is the in-place
  /// repair primitive for topology churn: a retired column is zeroed out
  /// of the rows it touches instead of rebuilding the whole master.
  void set_term(std::size_t row, VarId var, double coeff);

  /// Erase `var`'s coefficient from an existing row (no-op when absent).
  void remove_term(std::size_t row, VarId var);

  /// Replace a variable's objective coefficient in place. Retiring a
  /// master column = remove its terms from every row it touches and set
  /// its cost to the retired sentinel (a value that can never price in).
  void set_objective_coeff(VarId var, double objective_coeff);

  std::size_t num_variables() const { return objective_coeffs_.size(); }
  std::size_t num_constraints() const { return rows_.size(); }
  Objective objective() const { return objective_; }
  /// The variable's name; anonymous variables read back as "x<id>".
  std::string variable_name(VarId id) const {
    const std::string& name = names_.at(static_cast<std::size_t>(id));
    return name.empty() ? "x" + std::to_string(id) : name;
  }

  /// One stored constraint row. Coefficients are kept sparse — sorted by
  /// variable id, duplicates merged, exact zeros dropped — so building a
  /// solver matrix costs O(nnz) rather than O(num_variables) per row, and
  /// appending columns to a column-generation master never touches
  /// existing rows.
  struct Row {
    std::vector<std::pair<VarId, double>> terms;
    Sense sense;
    double rhs;

    /// Coefficient of `var` in this row (0 when absent). Binary search;
    /// meant for tests and spot checks, not solver inner loops.
    double coeff(VarId var) const {
      const auto it = std::lower_bound(
          terms.begin(), terms.end(), var,
          [](const std::pair<VarId, double>& t, VarId v) { return t.first < v; });
      return it != terms.end() && it->first == var ? it->second : 0.0;
    }
  };

  const std::vector<Row>& rows() const { return rows_; }
  const std::vector<double>& objective_coeffs() const { return objective_coeffs_; }

 private:
  Objective objective_;
  std::vector<double> objective_coeffs_;
  std::vector<std::string> names_;
  std::vector<Row> rows_;
};

/// One basis slot: which variable is basic in one constraint row. The
/// entry is expressed against the Problem — a structural VarId or "the
/// slack of constraint i" — rather than internal tableau columns, so a
/// basis stays meaningful after further variables are appended to the
/// problem. That is the contract column generation relies on: the optimal
/// basis of the previous restricted master warm-starts the next one after
/// new columns arrive.
struct BasisEntry {
  enum class Kind : std::uint8_t { kStructural, kSlack };
  Kind kind = Kind::kSlack;
  int index = 0;  ///< VarId for kStructural; constraint index for kSlack

  friend bool operator==(const BasisEntry&, const BasisEntry&) = default;
};

/// One entry per constraint, in the order constraints were added. Empty
/// when no reusable basis exists (e.g. a redundant row kept an artificial
/// basic).
using Basis = std::vector<BasisEntry>;

/// Opaque cross-solve state of the revised engine: the LU factorization
/// (plus eta file) of the last optimal basis and the basis it belongs to.
/// Pass the same context to a chain of warm-started re-solves of a growing
/// problem (the column-generation master pattern: identical rows, columns
/// only appended) and the solver reuses the factorization instead of
/// refactorizing the warm basis from scratch. A context never changes
/// results — it is bypassed whenever it does not exactly match the
/// requested warm basis and row count. When the problem's row count has
/// changed since the factorization was stored, solve() drops the context
/// eagerly unless the caller requested a dual re-solve
/// (SolveOptions::dual_resolve), the one path that can still exploit it.
class RevisedContext {
 public:
  RevisedContext();
  ~RevisedContext();
  RevisedContext(RevisedContext&&) noexcept;
  RevisedContext& operator=(RevisedContext&&) noexcept;
  RevisedContext(const RevisedContext&) = delete;
  RevisedContext& operator=(const RevisedContext&) = delete;

  /// Drop the cached factorization (e.g. when the constraint rows change).
  void reset();

  /// True when no factorization is cached.
  bool empty() const;

  /// Row count of the problem the cached factorization belongs to
  /// (0 when empty).
  std::size_t rows() const;

 private:
  friend class RevisedSimplex;
  struct State;
  std::unique_ptr<State> state_;
};

/// Why solve() abandoned the requested warm/dual fast path (first cause
/// wins when several apply). kNone means the fast path — or a plain cold
/// solve, when none was requested — ran to completion.
enum class Fallback : std::uint8_t {
  kNone = 0,
  /// The context's factorization belonged to a different row count and no
  /// dual re-solve was requested: the context was invalidated and the
  /// solve proceeded without it.
  kStaleContextRows,
  /// The primal warm basis did not apply (wrong size, unknown entries,
  /// singular, or primal infeasible) and the solve went cold.
  kWarmRejected,
  /// The dual re-solve basis did not apply structurally (wrong size,
  /// unknown entries, trailing equality row with no slack, or singular).
  kDualRejected,
  /// The dual re-solve basis failed the dual-feasibility audit — it is not
  /// the optimal basis of a rows-appended/rhs-changed variant of this
  /// problem (e.g. columns or the objective changed too).
  kNotDualFeasible,
  /// The revised engine failed numerically: a warm or dual attempt
  /// restarted cold, and a cold run re-ran cold on a copy of the problem
  /// with rows and columns scaled by powers of two (geometric
  /// equilibration), whose values and duals were scaled back.
  kNumerical,
  /// The dual phase of a dual re-solve exceeded SolveOptions::
  /// dual_pivot_cap (a degenerate stall, not progress) and the solve went
  /// cold instead.
  kDualStalled,
};

/// Optional per-solve telemetry, filled in when SolveOptions::stats is
/// set. Callers batching thousands of re-solves aggregate these to see
/// how often the warm paths actually held.
struct SolveStats {
  Fallback fallback_reason = Fallback::kNone;
  bool dual_phase = false;      ///< a dual simplex phase ran
  bool context_reused = false;  ///< factorization taken from RevisedContext
  bool cold = false;            ///< a cold two-phase solve ran
  std::size_t dual_pivots = 0;  ///< pivots spent in the dual phase
  std::size_t pivots = 0;       ///< total pivots spent (all phases)
};

/// Knobs for solve().
struct SolveOptions {
  /// Total pivot budget across both phases; exhausted => kIterationLimit.
  std::size_t max_pivots = 400000;
  /// Optional starting basis, typically Solution::basis from a previous
  /// solve of a problem with the same constraints and a subset of the
  /// variables. When it applies (non-singular and primal feasible) phase 1
  /// is skipped entirely; otherwise the solver silently falls back to the
  /// cold two-phase path.
  const Basis* warm_start = nullptr;
  /// Optional cross-solve factorization cache (see RevisedContext).
  RevisedContext* context = nullptr;
  /// Dual-simplex row re-solve. Treat `warm_start` as the optimal basis of
  /// this problem *before* it gained trailing rows and/or changed
  /// right-hand sides: the basis is completed with the
  /// slacks of the trailing rows (which keeps it dual feasible — the
  /// extended basis matrix is block triangular, so the old duals extend
  /// with zeros and no reduced cost moves; duals never depend on the rhs)
  /// and a dual simplex phase restores primal feasibility from the
  /// retained factorization instead of re-solving cold. The basis is
  /// audited for dual feasibility on entry and anything else is rejected
  /// to the cold path, so results never change. With only x >= 0 bounds in
  /// this library (no finite uppers), the bound-flipping dual ratio test
  /// degenerates to the standard one. On numerical failure the instance
  /// falls back to a cold solve, like every other path.
  bool dual_resolve = false;
  /// Pivot cap for the dual phase of a dual re-solve (0 = bounded only by
  /// max_pivots). A genuine rows-appended/rhs-changed re-solve lands
  /// within a few pivots; on dual-degenerate masters the dual phase can
  /// instead grind through an enormous stalled pivot sequence that a cold
  /// solve would beat by orders of magnitude. When the cap trips, the
  /// re-solve is abandoned (Fallback::kDualStalled) and the solve runs
  /// cold — results never change, only the path taken.
  std::size_t dual_pivot_cap = 0;
  /// Optional per-solve telemetry sink; reset at entry on every solve().
  SolveStats* stats = nullptr;
};

/// Result of solving a Problem.
struct Solution {
  Status status = Status::kInfeasible;
  double objective = 0.0;        ///< valid when status == kOptimal
  std::vector<double> values;    ///< per-variable values; valid when kOptimal

  /// The optimal basis (one entry per constraint), for warm-starting a
  /// re-solve after columns are appended. Empty when not reusable. Valid
  /// when kOptimal.
  Basis basis;

  /// Dual value (shadow price) per constraint, in the order constraints
  /// were added: the derivative of the optimal objective with respect to
  /// that constraint's right-hand side. For a maximization, binding <=
  /// constraints have non-negative duals and binding >= constraints
  /// non-positive ones. Valid when kOptimal.
  std::vector<double> duals;

  bool optimal() const { return status == Status::kOptimal; }
  double value(VarId id) const { return values.at(static_cast<std::size_t>(id)); }
  double dual(std::size_t constraint) const { return duals.at(constraint); }
};

/// Solve with the revised two-phase primal simplex, at a fixed
/// feasibility/optimality tolerance of 1e-9 suited to the well-scaled
/// problems this library produces (coefficients within a few orders of
/// magnitude of 1). Throws InvariantError when the engine fails
/// numerically on the problem and on its equilibrated copy.
Solution solve(const Problem& problem);

/// Solve with explicit options (pivot budget, warm-start basis).
Solution solve(const Problem& problem, const SolveOptions& options);

}  // namespace mrwsn::lp
