#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace mrwsn::lp {

namespace {

/// Feasibility/optimality tolerance of every solve: suited to the
/// well-scaled problems this library produces (coefficients within a few
/// orders of magnitude of 1).
constexpr double kEps = 1e-9;

}  // namespace

VarId Problem::add_variable(double objective_coeff, std::string name) {
  MRWSN_REQUIRE(std::isfinite(objective_coeff),
                "objective coefficient must be finite (got NaN or infinity)");
  objective_coeffs_.push_back(objective_coeff);
  // Unnamed variables get their "x<id>" name synthesized on demand in
  // variable_name(); not materializing it here keeps the column-generation
  // hot path (thousands of anonymous λ columns) free of string traffic.
  names_.push_back(std::move(name));
  // Rows are sparse: a variable absent from a row has coefficient zero, so
  // appending a column (the column-generation hot path) is O(1).
  return static_cast<VarId>(objective_coeffs_.size() - 1);
}

void Problem::add_constraint(const std::vector<std::pair<VarId, double>>& terms,
                             Sense sense, double rhs) {
  Row row;
  row.terms.reserve(terms.size());
  for (const auto& [var, coeff] : terms) {
    MRWSN_REQUIRE(var >= 0 && static_cast<std::size_t>(var) < num_variables(),
                  "constraint references an unknown variable");
    MRWSN_REQUIRE(std::isfinite(coeff),
                  "constraint coefficient for variable '" +
                      variable_name(var) +
                      "' must be finite (got NaN or infinity)");
    row.terms.emplace_back(var, coeff);
  }
  MRWSN_REQUIRE(std::isfinite(rhs),
                "constraint right-hand side must be finite (got NaN or "
                "infinity)");
  // Canonical sparse form: sorted by variable, duplicates accumulated,
  // exact zeros dropped. Column-generation masters build their rows in
  // ascending variable order already; one linear scan detects that and
  // skips the sort.
  if (!std::is_sorted(
          row.terms.begin(), row.terms.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; }))
    std::sort(row.terms.begin(), row.terms.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < row.terms.size();) {
    const VarId var = row.terms[i].first;
    double acc = 0.0;
    for (; i < row.terms.size() && row.terms[i].first == var; ++i)
      acc += row.terms[i].second;
    if (acc != 0.0) row.terms[out++] = {var, acc};
  }
  row.terms.resize(out);
  row.sense = sense;
  row.rhs = rhs;
  rows_.push_back(std::move(row));
}

void Problem::append_term(std::size_t row, VarId var, double coeff) {
  MRWSN_REQUIRE(row < rows_.size(), "append_term references an unknown row");
  MRWSN_REQUIRE(var >= 0 && static_cast<std::size_t>(var) < num_variables(),
                "append_term references an unknown variable");
  MRWSN_REQUIRE(std::isfinite(coeff),
                "constraint coefficient for variable '" + variable_name(var) +
                    "' must be finite (got NaN or infinity)");
  std::vector<std::pair<VarId, double>>& terms = rows_[row].terms;
  MRWSN_REQUIRE(terms.empty() || terms.back().first < var,
                "append_term must extend the row with a newer variable");
  if (coeff != 0.0) terms.emplace_back(var, coeff);
}

void Problem::set_rhs(std::size_t row, double rhs) {
  MRWSN_REQUIRE(row < rows_.size(), "set_rhs references an unknown row");
  MRWSN_REQUIRE(std::isfinite(rhs),
                "constraint right-hand side must be finite (got NaN or "
                "infinity)");
  rows_[row].rhs = rhs;
}

void Problem::set_term(std::size_t row, VarId var, double coeff) {
  MRWSN_REQUIRE(row < rows_.size(), "set_term references an unknown row");
  MRWSN_REQUIRE(var >= 0 && static_cast<std::size_t>(var) < num_variables(),
                "set_term references an unknown variable");
  MRWSN_REQUIRE(std::isfinite(coeff),
                "constraint coefficient for variable '" + variable_name(var) +
                    "' must be finite (got NaN or infinity)");
  std::vector<std::pair<VarId, double>>& terms = rows_[row].terms;
  const auto it = std::lower_bound(
      terms.begin(), terms.end(), var,
      [](const std::pair<VarId, double>& t, VarId v) { return t.first < v; });
  if (it != terms.end() && it->first == var) {
    if (coeff != 0.0)
      it->second = coeff;
    else
      terms.erase(it);
  } else if (coeff != 0.0) {
    terms.insert(it, {var, coeff});
  }
}

void Problem::remove_term(std::size_t row, VarId var) {
  MRWSN_REQUIRE(row < rows_.size(), "remove_term references an unknown row");
  MRWSN_REQUIRE(var >= 0 && static_cast<std::size_t>(var) < num_variables(),
                "remove_term references an unknown variable");
  set_term(row, var, 0.0);
}

void Problem::set_objective_coeff(VarId var, double objective_coeff) {
  MRWSN_REQUIRE(var >= 0 && static_cast<std::size_t>(var) < num_variables(),
                "set_objective_coeff references an unknown variable");
  MRWSN_REQUIRE(std::isfinite(objective_coeff),
                "objective coefficient must be finite (got NaN or infinity)");
  objective_coeffs_[static_cast<std::size_t>(var)] = objective_coeff;
}

/// One product-form (eta) update of the basis factorization: after the
/// pivot at basis position `pos` with FTRAN'd entering column `w`,
/// B_new = B_old * E where E is the identity with column `pos` replaced by
/// `w`. FTRAN applies E^{-1} left-to-right after the LU solve; BTRAN
/// applies the transposed inverses right-to-left before it.
struct RevisedEta {
  std::size_t pos = 0;
  std::vector<double> w;
};

struct RevisedContext::State {
  std::size_t rows = 0;
  Basis basis;                    ///< the basis the factorization belongs to
  std::vector<double> row_sign;   ///< rhs sign normalization at save time:
                                  ///< B's entries depend on it, so a sign
                                  ///< flip (rhs crossing zero) voids the
                                  ///< factorization even for the same basis
  std::vector<double> lu;         ///< rows x rows packed L\U of B0
  std::vector<std::size_t> perm;  ///< LU row permutation
  std::vector<RevisedEta> etas;   ///< updates accumulated on top of lu
};

RevisedContext::RevisedContext() = default;
RevisedContext::~RevisedContext() = default;
RevisedContext::RevisedContext(RevisedContext&&) noexcept = default;
RevisedContext& RevisedContext::operator=(RevisedContext&&) noexcept = default;

void RevisedContext::reset() { state_.reset(); }

bool RevisedContext::empty() const { return state_ == nullptr; }

std::size_t RevisedContext::rows() const {
  return state_ != nullptr ? state_->rows : 0;
}

/// Sparse revised two-phase primal simplex. Column layout: structural,
/// slack, then artificial columns, with rows sign-normalized to rhs >= 0.
/// Pivot rules: Dantzig with a permanent switch to Bland's anti-cycling
/// rule after a stall, and a Bland tie-break in the ratio test. A dense
/// full-tableau simplex with the same layout and rules agrees with it on
/// status and optimum; the differential fuzz harness holds it to that.
///
/// Instead of updating an m x cols tableau on every pivot, it keeps an LU
/// factorization (partial pivoting) of the m x m basis matrix plus an eta
/// file of product-form updates, FTRAN/BTRANs vectors through them, and
/// prices candidate columns through their sparse entries: per-pivot cost
/// O(m^2 + nnz(A)) instead of O(m * cols), which is what lets the
/// column-generation master scale to thousands of pooled columns. The
/// basis is refactorized every kRefactorInterval eta updates (and on warm
/// starts, unless a RevisedContext supplies the factorization of the
/// previous optimum, in which case pivoting-in is skipped entirely).
class RevisedSimplex {
 public:
  explicit RevisedSimplex(const Problem& p) {
    const std::size_t n = p.num_variables();
    const std::size_t m = p.num_constraints();

    std::size_t num_slack = 0;
    std::size_t num_art = 0;
    std::vector<double> signs(m, 1.0);
    std::vector<char> needs_art(m, 0);
    for (std::size_t i = 0; i < m; ++i) {
      const auto& row = p.rows()[i];
      signs[i] = row.rhs < 0.0 ? -1.0 : 1.0;
      if (row.sense != Sense::kEqual) ++num_slack;
      const bool slack_is_basic =
          (row.sense == Sense::kLessEqual && signs[i] > 0.0) ||
          (row.sense == Sense::kGreaterEqual && signs[i] < 0.0);
      needs_art[i] = slack_is_basic ? 0 : 1;
      if (needs_art[i]) ++num_art;
    }

    n_ = n;
    slack_begin_ = n;
    art_begin_ = n + num_slack;
    cols_ = n + num_slack + num_art;
    rows_ = m;

    row_sign_ = std::move(signs);
    row_slack_col_.assign(m, cols_);
    slack_row_.assign(num_slack, 0);
    b_.assign(m, 0.0);
    initial_head_.assign(m, 0);

    // Sparse columns (CSC): count, then fill. Structural columns carry the
    // sign-normalized row coefficients; slack and artificial columns are
    // singletons.
    col_start_.assign(cols_ + 1, 0);
    for (std::size_t i = 0; i < m; ++i) {
      for (const auto& term : p.rows()[i].terms)
        ++col_start_[static_cast<std::size_t>(term.first) + 1];
    }
    std::size_t slack = slack_begin_;
    std::size_t art = art_begin_;
    for (std::size_t i = 0; i < m; ++i) {
      const auto& prow = p.rows()[i];
      if (prow.sense != Sense::kEqual) {
        row_slack_col_[i] = slack;
        slack_row_[slack - slack_begin_] = i;
        ++col_start_[slack + 1];
        ++slack;
      }
      if (needs_art[i]) {
        initial_head_[i] = art;
        ++col_start_[art + 1];
        ++art;
      } else {
        initial_head_[i] = row_slack_col_[i];
      }
    }
    for (std::size_t j = 0; j < cols_; ++j) col_start_[j + 1] += col_start_[j];
    entry_row_.assign(col_start_[cols_], 0);
    entry_val_.assign(col_start_[cols_], 0.0);
    std::vector<std::size_t> fill(col_start_.begin(), col_start_.end() - 1);
    art = art_begin_;
    for (std::size_t i = 0; i < m; ++i) {
      const auto& prow = p.rows()[i];
      const double sign = row_sign_[i];
      for (const auto& [var, coeff] : prow.terms) {
        const std::size_t j = static_cast<std::size_t>(var);
        entry_row_[fill[j]] = i;
        entry_val_[fill[j]] = sign * coeff;
        ++fill[j];
      }
      const std::size_t slack_col = row_slack_col_[i];
      if (slack_col != cols_) {
        entry_row_[fill[slack_col]] = i;
        entry_val_[fill[slack_col]] =
            sign * (prow.sense == Sense::kLessEqual ? 1.0 : -1.0);
        ++fill[slack_col];
      }
      if (needs_art[i]) {
        entry_row_[fill[art]] = i;
        entry_val_[fill[art]] = 1.0;
        ++art;
      }
      b_[i] = sign * prow.rhs;
    }

    obj_.assign(cols_, 0.0);
    const double obj_sign = p.objective() == Objective::kMaximize ? 1.0 : -1.0;
    for (std::size_t j = 0; j < n; ++j) obj_[j] = obj_sign * p.objective_coeffs()[j];
    obj_sign_ = obj_sign;
  }

  /// Cold two-phase solve.
  Solution run(std::size_t max_pivots) {
    budget_ = max_pivots;
    head_ = initial_head_;
    in_basis_.assign(cols_, 0);
    for (std::size_t c : head_) in_basis_[c] = 1;
    refactorize();  // the slack/artificial start basis is I: never singular
    x_ = b_;

    if (art_begin_ < cols_) {
      std::vector<double> phase1(cols_, 0.0);
      for (std::size_t j = art_begin_; j < cols_; ++j) phase1[j] = -1.0;
      const LoopResult r = pivot_loop(phase1, /*allow_artificials=*/true);
      if (r == LoopResult::kNumericalFailure) return Solution{};
      if (r == LoopResult::kLimit) return limit_solution();
      // Phase 1 is bounded below by zero; "unbounded" here means the eta
      // file drifted. Flag a numerical failure so solve() re-runs this
      // instance on an equilibrated copy.
      if (r != LoopResult::kOptimal) {
        numerical_failure_ = true;
        return Solution{};
      }
      double phase1_value = 0.0;
      for (std::size_t k = 0; k < rows_; ++k)
        if (head_[k] >= art_begin_) phase1_value -= x_[k];
      if (phase1_value < -kEps) return Solution{};
      drive_out_artificials();
      if (numerical_failure_) return Solution{};
    }
    return phase2();
  }

  /// Install `warm` and run phase 2 from it, skipping phase 1. When
  /// `context` holds the factorization of exactly this basis (the
  /// column-generation re-solve pattern), it is reused and no
  /// refactorization happens at all. Returns false when the basis does not
  /// apply (wrong size, unknown entries, singular, primal infeasible); the
  /// caller must rerun cold.
  bool run_warm(const Basis& warm, std::size_t max_pivots, Solution* out,
                const RevisedContext* context) {
    budget_ = max_pivots;
    if (warm.size() != rows_ || !install_basis(warm)) return false;
    // Appending columns changes neither the rows nor any pre-existing
    // column, so the previous optimum's factorization still holds.
    if (!reuse_context(context, warm) && !refactorize()) return false;

    // The warm basis must be primal feasible here (it always is when the
    // problem only gained columns since the basis was optimal). Tiny
    // negative values from factorization round-off are clamped; anything
    // larger means a genuinely different problem.
    x_ = b_;
    ftran(&x_);
    for (std::size_t k = 0; k < rows_; ++k)
      if (x_[k] < -1e-7) return false;
    for (std::size_t k = 0; k < rows_; ++k)
      if (x_[k] < 0.0) x_[k] = 0.0;
    *out = phase2();
    return true;
  }

  /// Dual-simplex row re-solve: install `warm` — the optimal basis of this
  /// problem before it gained trailing rows and/or changed right-hand
  /// sides — complete it with the slacks of the trailing rows, audit dual
  /// feasibility, and run a dual simplex phase down to primal feasibility
  /// followed by primal phase 2 for cleanup and extraction. Completing
  /// with trailing slacks preserves dual feasibility by construction: the
  /// extended basis matrix is block triangular, so the old duals extend
  /// with zeros and every reduced cost is unchanged, and duals do not
  /// depend on b at all (rhs-only changes reuse the context factorization
  /// verbatim). Returns false when the basis does not apply — wrong size,
  /// unknown entries, a trailing equality row (no slack to complete with),
  /// singular, or not dual feasible — and the caller must rerun cold.
  /// Like run()/run_warm(), a mid-loop numerical failure returns true with
  /// numerical_failure() set.
  bool run_dual(const Basis& warm, std::size_t max_pivots, Solution* out,
                const RevisedContext* context, SolveStats* stats,
                std::size_t dual_pivot_cap = 0) {
    budget_ = max_pivots;
    if (warm.empty() || warm.size() > rows_ || !install_basis(warm)) {
      if (stats) stats->fallback_reason = Fallback::kDualRejected;
      return false;
    }
    // A rhs-only change leaves the basis matrix untouched, so the stored
    // factorization applies verbatim. Appended rows change B (the
    // trailing slack block) and force one refactorization — still far
    // cheaper than a cold two-phase solve.
    const bool reused = reuse_context(context, warm);
    if (!reused && !refactorize()) {
      if (stats) stats->fallback_reason = Fallback::kDualRejected;
      return false;
    }
    if (stats) stats->context_reused = reused;

    // Dual-feasibility audit: one BTRAN plus one pass over the nonzeros.
    // A basis carried across anything other than the append-rows /
    // change-rhs patterns (columns appended, objective changed) shows up
    // here as a positive reduced cost and is rejected to the cold path, so
    // a dual re-solve can never change results.
    std::vector<double> y(rows_);
    for (std::size_t k = 0; k < rows_; ++k) y[k] = obj_[head_[k]];
    btran(&y);
    for (std::size_t j = 0; j < art_begin_; ++j) {
      if (in_basis_[j]) continue;
      if (obj_[j] - column_dot(j, y) > kDualAuditTol) {
        if (stats) stats->fallback_reason = Fallback::kNotDualFeasible;
        return false;
      }
    }

    x_ = b_;
    ftran(&x_);
    if (stats) stats->dual_phase = true;
    // The dual phase runs under its own cap when the caller set one: past
    // it the phase is stalling on degeneracy, not converging, and the cold
    // path is cheaper. Whatever the cap leaves unspent returns to the
    // shared budget for phase 2.
    const std::size_t reserve =
        (dual_pivot_cap > 0 && dual_pivot_cap < budget_)
            ? budget_ - dual_pivot_cap
            : 0;
    budget_ -= reserve;
    const LoopResult r = dual_loop();
    budget_ += reserve;
    if (r == LoopResult::kNumericalFailure) return true;  // flag already set
    if (r == LoopResult::kLimit) {
      if (reserve > 0) {
        // The cap tripped before the global budget: abandon the re-solve.
        if (stats) stats->fallback_reason = Fallback::kDualStalled;
        return false;
      }
      *out = limit_solution();
      return true;
    }
    if (r == LoopResult::kInfeasible) {
      *out = Solution{};  // default status kInfeasible
      return true;
    }
    *out = phase2();
    return true;
  }

  std::size_t dual_pivots() const { return dual_pivots_; }
  /// Pivots consumed so far, given the budget the run started with.
  std::size_t pivots_spent(std::size_t max_pivots) const {
    return max_pivots - budget_;
  }

  /// Store the factorization of this solve's final basis in `context` for
  /// the next warm-started re-solve. Clears the context when the basis is
  /// not reusable.
  void save_context(RevisedContext* context, const Solution& solution) const {
    if (context == nullptr) return;
    if (solution.status != Status::kOptimal || solution.basis.size() != rows_) {
      context->reset();
      return;
    }
    auto state = std::make_unique<RevisedContext::State>();
    state->rows = rows_;
    state->basis = solution.basis;
    state->row_sign = row_sign_;
    state->lu = lu_;
    state->perm = perm_;
    state->etas = etas_;
    context->state_ = std::move(state);
  }

  bool numerical_failure() const { return numerical_failure_; }

 private:
  enum class LoopResult {
    kOptimal,
    kUnbounded,
    kInfeasible,  // dual loop only: a row became a Farkas certificate
    kLimit,
    kNumericalFailure,
  };

  static Solution limit_solution() {
    Solution solution;
    solution.status = Status::kIterationLimit;
    return solution;
  }

  /// Install `warm` (at most rows_ entries, in basis-position order) and
  /// complete the remaining positions with their rows' slacks. False when
  /// an entry names no column of this problem, a position to complete is
  /// an equality row (no slack), or a column would be basic twice.
  bool install_basis(const Basis& warm) {
    head_.assign(rows_, cols_);
    in_basis_.assign(cols_, 0);
    for (std::size_t k = 0; k < rows_; ++k) {
      std::size_t c = cols_;
      if (k >= warm.size()) {
        c = row_slack_col_[k];
      } else if (warm[k].kind == BasisEntry::Kind::kStructural) {
        if (warm[k].index >= 0 && static_cast<std::size_t>(warm[k].index) < n_)
          c = static_cast<std::size_t>(warm[k].index);
      } else if (warm[k].index >= 0 &&
                 static_cast<std::size_t>(warm[k].index) < rows_) {
        c = row_slack_col_[static_cast<std::size_t>(warm[k].index)];
      }
      if (c == cols_ || in_basis_[c]) return false;
      in_basis_[c] = 1;
      head_[k] = c;
    }
    return true;
  }

  /// Take the installed basis's factorization from `context` when the
  /// context holds exactly that basis: same rows, same entries, and the
  /// same rhs signs (B's entries depend on them). False when it does not
  /// apply and the caller must refactorize.
  bool reuse_context(const RevisedContext* context, const Basis& warm) {
    if (context == nullptr || context->state_ == nullptr) return false;
    const RevisedContext::State& state = *context->state_;
    if (state.rows != rows_ || state.basis != warm ||
        state.row_sign != row_sign_)
      return false;
    lu_ = state.lu;
    perm_ = state.perm;
    etas_ = state.etas;
    transpose_lu();
    return true;
  }

  /// Rebuild the LU factorization (partial pivoting) of the current basis
  /// and clear the eta file. Returns false on a (numerically) singular
  /// basis matrix.
  bool refactorize() {
    const std::size_t m = rows_;
    lu_.assign(m * m, 0.0);
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t c = head_[k];
      for (std::size_t e = col_start_[c]; e < col_start_[c + 1]; ++e)
        lu_[entry_row_[e] * m + k] = entry_val_[e];
    }
    perm_.resize(m);
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});
    for (std::size_t k = 0; k < m; ++k) {
      std::size_t piv = k;
      double best = std::abs(lu_[k * m + k]);
      for (std::size_t i = k + 1; i < m; ++i) {
        const double a = std::abs(lu_[i * m + k]);
        if (a > best) {
          best = a;
          piv = i;
        }
      }
      if (best < kSingularTol) return false;
      if (piv != k) {
        for (std::size_t j = 0; j < m; ++j)
          std::swap(lu_[k * m + j], lu_[piv * m + j]);
        std::swap(perm_[k], perm_[piv]);
      }
      const double d = lu_[k * m + k];
      for (std::size_t i = k + 1; i < m; ++i) {
        const double f = lu_[i * m + k] / d;
        lu_[i * m + k] = f;
        if (f == 0.0) continue;
        for (std::size_t j = k + 1; j < m; ++j)
          lu_[i * m + j] -= f * lu_[k * m + j];
      }
    }
    transpose_lu();
    etas_.clear();
    return true;
  }

  /// FTRAN/BTRAN walk columns of L/U; keep a column-major copy so those
  /// inner loops are contiguous instead of stride-m (the stride-m walks
  /// were the dominant cost of warm re-solves — a cache miss per element).
  void transpose_lu() {
    const std::size_t m = rows_;
    lut_.resize(m * m);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < m; ++j) lut_[j * m + i] = lu_[i * m + j];
  }

  /// v := B^{-1} v. Input indexed by constraint row, output by basis
  /// position.
  void ftran(std::vector<double>* v) const {
    const std::size_t m = rows_;
    std::vector<double>& x = work_;
    x.resize(m);
    for (std::size_t i = 0; i < m; ++i) x[i] = (*v)[perm_[i]];
    for (std::size_t k = 0; k < m; ++k) {
      const double t = x[k];
      if (t == 0.0) continue;
      const double* col = &lut_[k * m];
      for (std::size_t i = k + 1; i < m; ++i) x[i] -= col[i] * t;
    }
    for (std::size_t k = m; k-- > 0;) {
      const double* col = &lut_[k * m];
      const double t = x[k] / col[k];
      x[k] = t;
      if (t == 0.0) continue;
      for (std::size_t i = 0; i < k; ++i) x[i] -= col[i] * t;
    }
    v->assign(x.begin(), x.end());
    for (const RevisedEta& eta : etas_) {
      const double t = (*v)[eta.pos] / eta.w[eta.pos];
      if (t != 0.0) {
        for (std::size_t i = 0; i < m; ++i) (*v)[i] -= eta.w[i] * t;
      }
      (*v)[eta.pos] = t;
    }
  }

  /// v := B^{-T} v (row-vector sense: solves y^T B = v^T). Input indexed
  /// by basis position, output by constraint row.
  void btran(std::vector<double>* v) const {
    const std::size_t m = rows_;
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      const RevisedEta& eta = *it;
      double t = 0.0;
      for (std::size_t i = 0; i < m; ++i) t += (*v)[i] * eta.w[i];
      t -= (*v)[eta.pos] * eta.w[eta.pos];
      (*v)[eta.pos] = ((*v)[eta.pos] - t) / eta.w[eta.pos];
    }
    // B0^T y = v with B0 = P^T L U:  U^T z = v (forward), L^T u = z
    // (backward), y[perm[i]] = u[i].
    std::vector<double>& z = work_;
    z.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      const double* col = &lut_[i * m];
      double acc = (*v)[i];
      for (std::size_t k = 0; k < i; ++k) acc -= col[k] * z[k];
      z[i] = acc / col[i];
    }
    for (std::size_t i = m; i-- > 0;) {
      const double* col = &lut_[i * m];
      double acc = z[i];
      for (std::size_t k = i + 1; k < m; ++k) acc -= col[k] * z[k];
      z[i] = acc;
    }
    for (std::size_t i = 0; i < m; ++i) (*v)[perm_[i]] = z[i];
  }

  double column_dot(std::size_t col, const std::vector<double>& y) const {
    double acc = 0.0;
    for (std::size_t e = col_start_[col]; e < col_start_[col + 1]; ++e)
      acc += entry_val_[e] * y[entry_row_[e]];
    return acc;
  }

  void scatter_column(std::size_t col, std::vector<double>* v) const {
    v->assign(rows_, 0.0);
    for (std::size_t e = col_start_[col]; e < col_start_[col + 1]; ++e)
      (*v)[entry_row_[e]] = entry_val_[e];
  }

  /// Recompute the basic values from scratch (after a refactorization).
  void recompute_values() {
    x_ = b_;
    ftran(&x_);
    for (double& v : x_)
      if (v < 0.0 && v > -1e-7) v = 0.0;
  }

  /// Core revised simplex loop: Dantzig entering rule with a permanent
  /// Bland switch after a stall, Bland tie-break in the ratio test, and
  /// reduced costs priced fresh from the duals every iteration.
  LoopResult pivot_loop(const std::vector<double>& c, bool allow_artificials) {
    const std::size_t limit = allow_artificials ? cols_ : art_begin_;
    std::vector<double> y(rows_);
    for (std::size_t iter = 0;; ++iter) {
      const bool bland = iter >= kDantzigIters;

      // Duals of the current basis: y^T = c_B^T B^{-1}.
      y.resize(rows_);
      for (std::size_t k = 0; k < rows_; ++k) y[k] = c[head_[k]];
      btran(&y);

      std::size_t entering = cols_;
      double best_reduced = kEps;
      if (bland) {
        for (std::size_t j = 0; j < limit; ++j) {
          if (in_basis_[j]) continue;
          if (c[j] - column_dot(j, y) > best_reduced) {
            entering = j;  // first (lowest-index) improving column
            break;
          }
        }
      } else {
        // Partial (rotating-window) pricing: price kPriceWindow candidates
        // starting where the last pivot left off and enter the best of the
        // first window that contains an improving column. Optimality is
        // only declared after a full wrap prices every column — same
        // certificate as a full Dantzig scan at a fraction of the cost,
        // since warm re-solves need a handful of pivots but each full scan
        // touches every nonzero of the matrix.
        std::size_t j = price_start_ < limit ? price_start_ : 0;
        for (std::size_t scanned = 0; scanned < limit;) {
          const std::size_t window_end =
              std::min(scanned + kPriceWindow, limit);
          for (; scanned < window_end; ++scanned) {
            if (!in_basis_[j]) {
              const double reduced = c[j] - column_dot(j, y);
              if (reduced > best_reduced) {
                entering = j;
                best_reduced = reduced;
              }
            }
            j = j + 1 == limit ? 0 : j + 1;
          }
          if (entering != cols_) break;
        }
        price_start_ = j;
      }
      if (entering == cols_) return LoopResult::kOptimal;

      std::vector<double> w;
      scatter_column(entering, &w);
      ftran(&w);

      // Ratio test; Bland tie-break on the smallest basic variable index.
      std::size_t leaving = rows_;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t k = 0; k < rows_; ++k) {
        if (w[k] > kEps) {
          const double ratio = x_[k] / w[k];
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps &&
               (leaving == rows_ || head_[k] < head_[leaving]))) {
            best_ratio = ratio;
            leaving = k;
          }
        }
      }
      if (leaving == rows_) return LoopResult::kUnbounded;

      if (budget_ == 0) return LoopResult::kLimit;
      --budget_;

      const double theta = x_[leaving] / w[leaving];
      for (std::size_t k = 0; k < rows_; ++k) x_[k] -= theta * w[k];
      x_[leaving] = theta;
      in_basis_[head_[leaving]] = 0;
      head_[leaving] = entering;
      in_basis_[entering] = 1;
      etas_.push_back({leaving, std::move(w)});
      if (etas_.size() >= kRefactorInterval) {
        if (!refactorize()) {
          numerical_failure_ = true;
          return LoopResult::kNumericalFailure;
        }
        recompute_values();
      }
    }
  }

  /// Dual simplex loop for run_dual: the basis is dual feasible (no
  /// improving reduced cost on the real objective) but possibly primal
  /// infeasible — negative basic values from rows appended or rhs
  /// tightened since the basis was optimal. Each iteration drops the
  /// most-negative basic value out of the basis and enters the column
  /// minimizing |reduced cost| / |alpha| over columns with alpha < 0 in
  /// the leaving row, which keeps every reduced cost sign-correct. Ties
  /// prefer the larger pivot magnitude for stability; after a long stall
  /// both choices switch permanently to Bland's smallest-index rule for
  /// termination. No infeasible row left => primal feasible (done); no
  /// eligible entering column => the leaving row of B^{-1}[A|b] reads
  /// x_B = bbar_r - sum(alpha_rj x_j) <= bbar_r < 0 for every x >= 0, a
  /// Farkas certificate of primal infeasibility.
  LoopResult dual_loop() {
    std::vector<double> y(rows_), rho(rows_), w;
    std::size_t stalled_retries = 0;
    for (std::size_t iter = 0;; ++iter) {
      const bool bland = iter >= kDantzigIters;

      std::size_t leaving = rows_;
      if (bland) {
        for (std::size_t k = 0; k < rows_; ++k) {
          if (x_[k] < -kDualPrimalTol &&
              (leaving == rows_ || head_[k] < head_[leaving]))
            leaving = k;
        }
      } else {
        double most = -kDualPrimalTol;
        for (std::size_t k = 0; k < rows_; ++k) {
          if (x_[k] < most) {
            most = x_[k];
            leaving = k;
          }
        }
      }
      if (leaving == rows_) {
        // Primal feasible up to the same tolerance run_warm accepts.
        for (double& v : x_)
          if (v < 0.0) v = 0.0;
        return LoopResult::kOptimal;
      }

      // rho = row `leaving` of B^{-1}; alpha_j = rho . A_j. Reduced costs
      // need the duals of the current basis as well.
      rho.assign(rows_, 0.0);
      rho[leaving] = 1.0;
      btran(&rho);
      for (std::size_t k = 0; k < rows_; ++k) y[k] = obj_[head_[k]];
      btran(&y);

      std::size_t entering = cols_;
      double best_ratio = std::numeric_limits<double>::infinity();
      double best_alpha = 0.0;
      for (std::size_t j = 0; j < art_begin_; ++j) {
        if (in_basis_[j]) continue;
        const double alpha = column_dot(j, rho);
        if (alpha >= -kEps) continue;
        double reduced = obj_[j] - column_dot(j, y);
        if (reduced > 0.0) reduced = 0.0;  // dual feasible up to round-off
        const double ratio = reduced / alpha;  // >= 0
        const bool better =
            ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps &&
             (entering == cols_ ||
              (bland ? j < entering : -alpha > best_alpha)));
        if (better) {
          best_ratio = ratio;
          best_alpha = -alpha;
          entering = j;
        }
      }
      if (entering == cols_) return LoopResult::kInfeasible;

      scatter_column(entering, &w);
      ftran(&w);
      if (w[leaving] >= -kEps) {
        // The eta file and rho disagree on the pivot element's sign:
        // refactorize once and retry the iteration; a repeat is a genuine
        // numerical failure.
        if (++stalled_retries > 1 || !refactorize()) {
          numerical_failure_ = true;
          return LoopResult::kNumericalFailure;
        }
        recompute_values();
        continue;
      }
      stalled_retries = 0;

      if (budget_ == 0) return LoopResult::kLimit;
      --budget_;
      ++dual_pivots_;

      const double theta = x_[leaving] / w[leaving];  // >= 0: both negative
      for (std::size_t k = 0; k < rows_; ++k) x_[k] -= theta * w[k];
      x_[leaving] = theta;
      in_basis_[head_[leaving]] = 0;
      head_[leaving] = entering;
      in_basis_[entering] = 1;
      etas_.push_back({leaving, std::move(w)});
      if (etas_.size() >= kRefactorInterval) {
        if (!refactorize()) {
          numerical_failure_ = true;
          return LoopResult::kNumericalFailure;
        }
        recompute_values();
      }
    }
  }

  /// Phase 2 on the real objective plus solution extraction; artificials
  /// may no longer enter (they can linger basic at zero on redundant rows).
  Solution phase2() {
    Solution solution;
    const LoopResult r = pivot_loop(obj_, /*allow_artificials=*/false);
    if (r == LoopResult::kNumericalFailure) return solution;
    if (r == LoopResult::kLimit) return limit_solution();
    if (r == LoopResult::kUnbounded) {
      solution.status = Status::kUnbounded;
      return solution;
    }

    solution.status = Status::kOptimal;
    solution.values.assign(n_, 0.0);
    for (std::size_t k = 0; k < rows_; ++k)
      if (head_[k] < n_) solution.values[head_[k]] = x_[k];
    double obj_value = 0.0;
    for (std::size_t j = 0; j < n_; ++j) obj_value += obj_[j] * solution.values[j];
    solution.objective = obj_sign_ * obj_value;

    // Duals straight from BTRAN of the basic costs; undo the row sign
    // normalization and the min/max flip.
    std::vector<double> y(rows_);
    for (std::size_t k = 0; k < rows_; ++k) y[k] = obj_[head_[k]];
    btran(&y);
    solution.duals.assign(rows_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i)
      solution.duals[i] = obj_sign_ * row_sign_[i] * y[i];

    // Export the basis in the problem-level representation for warm
    // starts; a basic artificial (redundant row) has no such form and
    // makes the basis non-reusable.
    solution.basis.reserve(rows_);
    for (std::size_t k = 0; k < rows_; ++k) {
      const std::size_t c = head_[k];
      if (c < n_) {
        solution.basis.push_back(
            {BasisEntry::Kind::kStructural, static_cast<int>(c)});
      } else if (c < art_begin_) {
        solution.basis.push_back(
            {BasisEntry::Kind::kSlack,
             static_cast<int>(slack_row_[c - slack_begin_])});
      } else {
        solution.basis.clear();
        break;
      }
    }
    return solution;
  }

  /// After phase 1, pivot any artificial still basic (at level ~0) out of
  /// the basis; if its row of B^{-1}A has no eligible entry the row is
  /// redundant and the artificial stays basic at zero (barred from
  /// re-entering).
  void drive_out_artificials() {
    std::vector<double> rho, w;
    for (std::size_t k = 0; k < rows_; ++k) {
      if (head_[k] < art_begin_) continue;
      if (std::abs(x_[k]) > 1e-6) {  // phase 1 said feasible: values drifted
        numerical_failure_ = true;
        return;
      }
      rho.assign(rows_, 0.0);
      rho[k] = 1.0;
      btran(&rho);  // row k of B^{-1}
      for (std::size_t j = 0; j < art_begin_; ++j) {
        if (in_basis_[j]) continue;
        if (std::abs(column_dot(j, rho)) <= kEps) continue;
        scatter_column(j, &w);
        ftran(&w);
        if (std::abs(w[k]) <= kEps) continue;  // eta round-off disagreed
        const double theta = x_[k] / w[k];
        for (std::size_t i = 0; i < rows_; ++i) x_[i] -= theta * w[i];
        x_[k] = theta;
        in_basis_[head_[k]] = 0;
        head_[k] = j;
        in_basis_[j] = 1;
        etas_.push_back({k, w});
        if (etas_.size() >= kRefactorInterval) {
          if (!refactorize()) {
            numerical_failure_ = true;
            return;
          }
          recompute_values();
        }
        break;
      }
    }
  }

  static constexpr std::size_t kDantzigIters = 20000;
  // Eta updates between refactorizations: fewer trade pivot speed for
  // numerical hygiene.
  static constexpr std::size_t kRefactorInterval = 64;
  static constexpr std::size_t kPriceWindow = 64;
  static constexpr double kSingularTol = 1e-9;
  // Primal values above -kDualPrimalTol count as feasible in the dual
  // loop — the same threshold run_warm and recompute_values clamp at, so
  // the two paths agree on what "feasible" means.
  static constexpr double kDualPrimalTol = 1e-7;
  // Entry audit for run_dual: reduced costs at a genuine previous optimum
  // are within solver tolerance of zero; anything clearly positive means
  // the basis was carried across an unsupported change.
  static constexpr double kDualAuditTol = 1e-6;

  double obj_sign_ = 1.0;
  std::size_t n_ = 0;           // original variables
  std::size_t slack_begin_ = 0;
  std::size_t art_begin_ = 0;
  std::size_t cols_ = 0;        // total structural columns
  std::size_t rows_ = 0;
  std::size_t budget_ = 0;       // remaining pivots before kIterationLimit
  std::size_t price_start_ = 0;  // rotating partial-pricing cursor
  std::size_t dual_pivots_ = 0;  // pivots spent in dual_loop
  bool numerical_failure_ = false;

  std::vector<double> row_sign_;            // +1/-1 rhs normalization per row
  std::vector<std::size_t> row_slack_col_;  // per row: slack column or cols_
  std::vector<std::size_t> slack_row_;      // per slack column: its row
  std::vector<double> b_;                   // normalized rhs
  std::vector<double> obj_;                 // maximize-orientation costs
  std::vector<std::size_t> initial_head_;   // all-slack/artificial basis

  std::vector<std::size_t> col_start_;  // CSC offsets (cols_ + 1)
  std::vector<std::size_t> entry_row_;
  std::vector<double> entry_val_;

  std::vector<std::size_t> head_;  // basic column per basis position
  std::vector<char> in_basis_;
  std::vector<double> x_;          // basic values by position

  std::vector<double> lu_;            // rows_ x rows_ packed L\U of B0
  std::vector<double> lut_;           // column-major copy for FTRAN/BTRAN
  std::vector<std::size_t> perm_;     // LU row permutation
  std::vector<RevisedEta> etas_;      // product-form updates on top of lu_
  mutable std::vector<double> work_;  // FTRAN/BTRAN scratch
};

namespace {

Solution solve_trivial(const Problem& problem) {
  // Degenerate but well-defined: feasible iff every constraint already
  // holds with an all-zero left-hand side.
  Solution s;
  s.status = Status::kOptimal;
  s.duals.assign(problem.num_constraints(), 0.0);
  for (const auto& row : problem.rows()) {
    const bool ok =
        (row.sense == Sense::kLessEqual && 0.0 <= row.rhs + kEps) ||
        (row.sense == Sense::kGreaterEqual && 0.0 >= row.rhs - kEps) ||
        (row.sense == Sense::kEqual && std::abs(row.rhs) <= kEps);
    if (!ok) {
      s.status = Status::kInfeasible;
      break;
    }
  }
  return s;
}

/// solve()'s answer to a cold numerical failure: run the revised engine
/// cold once more on an equilibrated copy and map its answer back. The
/// copy scales row i by r_i = 2^row_exp[i] and column j by c_j =
/// 2^col_exp[j], from alternating geometric passes that centre each row's,
/// then each column's, log2 range of |r_i a_ij c_j| on zero; powers of two
/// keep the scaling exact. Values come back as x_j = c_j x'_j and duals as
/// y_i = r_i y'_i; objective and basis carry over unchanged. Throws
/// InvariantError if this run fails numerically too.
Solution solve_equilibrated(const Problem& problem, const SolveOptions& options) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<int> row_exp(problem.num_constraints(), 0);
  std::vector<int> col_exp(problem.num_variables(), 0);
  const auto centre = [](double lo, double hi) {  // 0 for an empty range
    return lo > hi ? 0 : -static_cast<int>(std::lround((lo + hi) / 2));
  };
  std::vector<double> lo, hi;
  for (int pass = 0; pass < 4; ++pass) {
    lo.assign(col_exp.size(), kInf);
    hi.assign(col_exp.size(), -kInf);
    for (std::size_t i = 0; i < row_exp.size(); ++i) {
      const auto& terms = problem.rows()[i].terms;
      double row_lo = kInf, row_hi = -kInf;
      for (const auto& [var, coeff] : terms) {
        const double l =
            std::log2(std::abs(coeff)) + col_exp[static_cast<std::size_t>(var)];
        row_lo = std::min(row_lo, l);
        row_hi = std::max(row_hi, l);
      }
      row_exp[i] = centre(row_lo, row_hi);
      for (const auto& [var, coeff] : terms) {
        const std::size_t j = static_cast<std::size_t>(var);
        lo[j] = std::min(lo[j], std::log2(std::abs(coeff)) + row_exp[i]);
        hi[j] = std::max(hi[j], std::log2(std::abs(coeff)) + row_exp[i]);
      }
    }
    for (std::size_t j = 0; j < col_exp.size(); ++j) col_exp[j] = centre(lo[j], hi[j]);
  }
  const auto scale = [](double value, int exp) {
    const double scaled = std::ldexp(value, exp);
    MRWSN_ASSERT(std::isfinite(scaled), "equilibrated LP value overflows");
    return scaled;
  };
  Problem scaled(problem.objective());
  for (std::size_t j = 0; j < col_exp.size(); ++j)
    scaled.add_variable(scale(problem.objective_coeffs()[j], col_exp[j]));
  for (std::size_t i = 0; i < row_exp.size(); ++i) {
    const Problem::Row& row = problem.rows()[i];
    std::vector<std::pair<VarId, double>> terms = row.terms;
    for (auto& [var, coeff] : terms)
      coeff = scale(coeff, row_exp[i] + col_exp[static_cast<std::size_t>(var)]);
    scaled.add_constraint(terms, row.sense, scale(row.rhs, row_exp[i]));
  }
  RevisedSimplex simplex(scaled);
  Solution solution = simplex.run(options.max_pivots);
  if (options.stats != nullptr)
    options.stats->pivots += simplex.pivots_spent(options.max_pivots);
  MRWSN_ASSERT(!simplex.numerical_failure(),
               "revised simplex failed numerically on the LP and on its "
               "equilibrated copy");
  for (std::size_t j = 0; j < solution.values.size(); ++j)
    solution.values[j] = std::ldexp(solution.values[j], col_exp[j]);
  for (std::size_t i = 0; i < solution.duals.size(); ++i)
    solution.duals[i] = std::ldexp(solution.duals[i], row_exp[i]);
  return solution;
}

}  // namespace

Solution solve(const Problem& problem) { return solve(problem, {}); }

Solution solve(const Problem& problem, const SolveOptions& options) {
  SolveStats* const stats = options.stats;
  if (stats != nullptr) *stats = SolveStats{};
  // First cause wins: a later, coarser fallback never masks the reason the
  // fast path was abandoned in the first place.
  const auto note = [stats](Fallback reason) {
    if (stats != nullptr && stats->fallback_reason == Fallback::kNone)
      stats->fallback_reason = reason;
  };
  if (problem.num_variables() == 0) {
    if (stats != nullptr) stats->cold = true;
    return solve_trivial(problem);
  }

  // A factorization cached for a different row count can never be reused;
  // unless the caller asked for a dual re-solve (the one path that still
  // exploits its basis), the context is stale — drop it eagerly instead of
  // letting it silently linger across row changes.
  if (!options.dual_resolve && options.context != nullptr &&
      !options.context->empty() &&
      options.context->rows() != problem.num_constraints()) {
    options.context->reset();
    note(Fallback::kStaleContextRows);
  }

  // A numerically singular refactorization mid-solve, or basic values that
  // drift off the phase-1 verdict, is a numerical failure: a warm or dual
  // attempt that hits it restarts cold, and a cold run that hits it runs
  // once more on an equilibrated copy rather than surfacing an artifact.
  if (options.warm_start != nullptr && !options.warm_start->empty()) {
    RevisedSimplex simplex(problem);
    Solution solution;
    const bool claimed =
        options.dual_resolve
            ? simplex.run_dual(*options.warm_start, options.max_pivots,
                               &solution, options.context, stats,
                               options.dual_pivot_cap)
            : simplex.run_warm(*options.warm_start, options.max_pivots,
                               &solution, options.context);
    if (claimed && !simplex.numerical_failure()) {
      if (stats != nullptr) {
        stats->dual_pivots = simplex.dual_pivots();
        stats->pivots = simplex.pivots_spent(options.max_pivots);
      }
      simplex.save_context(options.context, solution);
      return solution;
    }
    if (claimed)
      note(Fallback::kNumerical);
    else
      note(options.dual_resolve ? Fallback::kDualRejected
                                : Fallback::kWarmRejected);
  }
  RevisedSimplex simplex(problem);
  Solution solution = simplex.run(options.max_pivots);
  if (stats != nullptr) {
    stats->cold = true;
    stats->pivots = simplex.pivots_spent(options.max_pivots);
  }
  if (simplex.numerical_failure()) {
    note(Fallback::kNumerical);
    if (options.context != nullptr) options.context->reset();
    return solve_equilibrated(problem, options);
  }
  simplex.save_context(options.context, solution);
  return solution;
}

}  // namespace mrwsn::lp
