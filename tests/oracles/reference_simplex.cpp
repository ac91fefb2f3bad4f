#include "oracles/reference_simplex.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace mrwsn::lp {

namespace {

/// lp::solve's feasibility/optimality tolerance.
constexpr double kEps = 1e-9;

/// The full tableau as one vector<double> per row.
class ReferenceTableau {
 public:
  explicit ReferenceTableau(const Problem& p) {
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
    art_begin_ = n + num_slack;
    cols_ = n + num_slack + num_art;
    rows_ = m;

    a_.assign(rows_, std::vector<double>(cols_ + 1, 0.0));
    basis_.assign(rows_, 0);
    dual_col_.assign(rows_, 0);

    std::size_t slack = n;
    std::size_t art = art_begin_;
    for (std::size_t i = 0; i < m; ++i) {
      const auto& row = p.rows()[i];
      const double sign = signs[i];
      for (const auto& [var, coeff] : row.terms)
        a_[i][static_cast<std::size_t>(var)] = sign * coeff;
      a_[i][cols_] = sign * row.rhs;
      std::size_t slack_col = cols_;
      if (row.sense == Sense::kLessEqual) {
        slack_col = slack++;
        a_[i][slack_col] = sign * 1.0;
      } else if (row.sense == Sense::kGreaterEqual) {
        slack_col = slack++;
        a_[i][slack_col] = sign * -1.0;
      }
      if (needs_art[i]) {
        const std::size_t art_col = art++;
        a_[i][art_col] = 1.0;
        basis_[i] = art_col;
        dual_col_[i] = art_col;
      } else {
        basis_[i] = slack_col;
        dual_col_[i] = slack_col;
      }
      row_sign_.push_back(sign);
    }
    in_basis_.assign(cols_, 0);
    for (std::size_t b : basis_) in_basis_[b] = 1;

    obj_.assign(cols_, 0.0);
    const double obj_sign = p.objective() == Objective::kMaximize ? 1.0 : -1.0;
    for (std::size_t j = 0; j < n; ++j) obj_[j] = obj_sign * p.objective_coeffs()[j];
    obj_sign_ = obj_sign;
  }

  Solution run() {
    if (art_begin_ < cols_) {
      std::vector<double> phase1(cols_, 0.0);
      for (std::size_t j = art_begin_; j < cols_; ++j) phase1[j] = -1.0;
      const double phase1_value = optimize(phase1, /*allow_artificials=*/true);
      if (phase1_value < -kEps) return Solution{};
      drive_out_artificials();
    }

    Solution solution;
    if (!pivot_loop(obj_, /*allow_artificials=*/false)) {
      solution.status = Status::kUnbounded;
      return solution;
    }

    solution.status = Status::kOptimal;
    solution.values.assign(n_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) {
      if (basis_[i] < n_) solution.values[basis_[i]] = a_[i][cols_];
    }
    double obj_value = 0.0;
    for (std::size_t j = 0; j < n_; ++j) obj_value += obj_[j] * solution.values[j];
    solution.objective = obj_sign_ * obj_value;

    solution.duals.assign(rows_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i)
      solution.duals[i] = obj_sign_ * row_sign_[i] * -red_[dual_col_[i]];
    return solution;
  }

 private:
  double optimize(const std::vector<double>& c, bool allow_artificials) {
    const bool unbounded = !pivot_loop(c, allow_artificials);
    MRWSN_ASSERT(!unbounded, "phase-1 objective cannot be unbounded");
    double value = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) {
      if (basis_[i] < c.size()) value += c[basis_[i]] * a_[i][cols_];
    }
    return value;
  }

  bool pivot_loop(const std::vector<double>& c, bool allow_artificials) {
    red_.assign(cols_, 0.0);
    for (std::size_t j = 0; j < cols_; ++j) {
      double reduced = c[j];
      for (std::size_t i = 0; i < rows_; ++i) {
        const double cb = c[basis_[i]];
        if (cb != 0.0) reduced -= cb * a_[i][j];
      }
      red_[j] = reduced;
    }

    for (std::size_t iter = 0; iter < kMaxIters; ++iter) {
      const bool bland = iter >= kDantzigIters;
      std::size_t entering = cols_;
      double best_reduced = kEps;
      const std::size_t limit = allow_artificials ? cols_ : art_begin_;
      for (std::size_t j = 0; j < limit; ++j) {
        if (red_[j] > best_reduced && !is_basic(j)) {
          entering = j;
          if (bland) break;
          best_reduced = red_[j];
        }
      }
      if (entering == cols_) return true;

      std::size_t leaving = rows_;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < rows_; ++i) {
        if (a_[i][entering] > kEps) {
          const double ratio = a_[i][cols_] / a_[i][entering];
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps &&
               (leaving == rows_ || basis_[i] < basis_[leaving]))) {
            best_ratio = ratio;
            leaving = i;
          }
        }
      }
      if (leaving == rows_) return false;

      pivot(leaving, entering);
    }
    throw InvariantError("simplex exceeded the iteration limit (cycling?)");
  }

  bool is_basic(std::size_t col) const { return in_basis_[col] != 0; }

  void pivot(std::size_t row, std::size_t col) {
    const double p = a_[row][col];
    for (double& v : a_[row]) v /= p;
    for (std::size_t i = 0; i < rows_; ++i) {
      if (i == row) continue;
      const double factor = a_[i][col];
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j <= cols_; ++j) a_[i][j] -= factor * a_[row][j];
    }
    if (!red_.empty()) {
      const double factor = red_[col];
      if (factor != 0.0)
        for (std::size_t j = 0; j < cols_; ++j) red_[j] -= factor * a_[row][j];
    }
    in_basis_[basis_[row]] = 0;
    in_basis_[col] = 1;
    basis_[row] = col;
  }

  void drive_out_artificials() {
    for (std::size_t i = 0; i < rows_; ++i) {
      if (basis_[i] < art_begin_) continue;
      MRWSN_ASSERT(std::abs(a_[i][cols_]) <= 1e-6,
                   "basic artificial with nonzero value after feasible phase 1");
      for (std::size_t j = 0; j < art_begin_; ++j) {
        if (std::abs(a_[i][j]) > kEps && !is_basic(j)) {
          pivot(i, j);
          break;
        }
      }
    }
  }

  static constexpr std::size_t kDantzigIters = 20000;
  static constexpr std::size_t kMaxIters = 400000;

  double obj_sign_ = 1.0;
  std::size_t n_ = 0;
  std::size_t art_begin_ = 0;
  std::size_t cols_ = 0;
  std::size_t rows_ = 0;
  std::vector<std::vector<double>> a_;
  std::vector<std::size_t> basis_;
  std::vector<char> in_basis_;
  std::vector<double> row_sign_;
  std::vector<std::size_t> dual_col_;
  std::vector<double> obj_;
  std::vector<double> red_;
};

}  // namespace

Solution solve_reference(const Problem& problem) {
  // A problem without variables is the shipping solver's trivial case.
  if (problem.num_variables() == 0) return solve(problem);
  ReferenceTableau tableau(problem);
  return tableau.run();
}

}  // namespace mrwsn::lp
