#include "lp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "lp/lp_invariants.hpp"
#include "obs/metrics.hpp"
#include "util/contract.hpp"

namespace gddr::lp {

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "unknown";
}

int LinearProgram::add_variable(double objective_coeff) {
  objective_.push_back(objective_coeff);
  return num_variables() - 1;
}

void LinearProgram::add_constraint(
    const std::vector<std::pair<int, double>>& terms, Relation rel,
    double rhs) {
  for (const auto& [idx, coeff] : terms) {
    (void)coeff;
    if (idx < 0 || idx >= num_variables()) {
      throw std::out_of_range("add_constraint: unknown variable index");
    }
  }
  rows_.push_back(Row{terms, rel, rhs});
}

namespace {

// Dense tableau with an attached cost row; column layout is
// [structural | slack/surplus | artificial | rhs].
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  // Gaussian pivot on (pr, pc): pivot row scaled to make the pivot 1, the
  // pivot column eliminated from every other row including the cost row.
  // Only the pivot row's non-zero columns can change, so they are
  // collected once and each touched row updates just those.  Columns in
  // [frozen_begin, frozen_end) are not updated at all: the solver freezes
  // the artificial block once nothing reads it again.
  void pivot(std::size_t pr, std::size_t pc, std::size_t frozen_begin,
             std::size_t frozen_end) {
    double* prow = &data_[pr * cols_];
    const double inv = 1.0 / prow[pc];
    nonzero_.clear();
    const auto collect = [&](std::size_t begin, std::size_t end) {
      for (std::size_t c = begin; c < end; ++c) {
        if (prow[c] == 0.0) continue;
        prow[c] *= inv;
        nonzero_.push_back(c);
      }
    };
    collect(0, frozen_begin);
    collect(frozen_end, cols_);
    prow[pc] = 1.0;
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == pr) continue;
      double* row = &data_[r * cols_];
      const double factor = row[pc];
      if (factor == 0.0) continue;
      for (const std::size_t c : nonzero_) row[c] -= factor * prow[c];
      row[pc] = 0.0;
    }
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
  std::vector<std::size_t> nonzero_;  // pivot-row scratch
};

struct SimplexState {
  Tableau tableau;
  std::vector<int> basis;       // basis[r] = column basic in row r
  std::size_t m;                // constraint rows
  std::size_t total_cols;      // structural + slack + artificial
  std::size_t rhs_col;
  std::size_t cost_row;
  std::size_t artificial_begin;  // first artificial column
  std::size_t pivots = 0;        // total pivots, crash start included
  // Set once no artificial column is read again (phase 2, or a crash
  // start): pivots then leave the artificial block stale.
  bool artificials_frozen = false;

  void pivot(std::size_t r, std::size_t c) {
    if (artificials_frozen) {
      tableau.pivot(r, c, artificial_begin, total_cols);
    } else {
      tableau.pivot(r, c, total_cols, total_cols);
    }
    basis[r] = static_cast<int>(c);
    ++pivots;
  }

  // Columns whose entries are still current.
  std::size_t live_cols() const {
    return artificials_frozen ? artificial_begin : total_cols;
  }
};

// Flushes the pivot count to the metrics registry on every exit path of
// solve() (optimal, infeasible, unbounded, iteration limit alike).
struct PivotRecorder {
  const SimplexState& s;
  ~PivotRecorder() {
    if (!obs::enabled()) return;
    obs::count("lp/solves");
    obs::count("lp/pivots", s.pivots);
    obs::observe("lp/pivots_per_solve", static_cast<double>(s.pivots));
  }
};

enum class IterateResult { kOptimal, kUnbounded, kIterationLimit };

// Runs simplex iterations on the current cost row.  Columns >= col_limit
// are never allowed to enter the basis (used to freeze artificials in
// phase 2).
IterateResult iterate(SimplexState& s, std::size_t col_limit,
                      const LinearProgram::Options& options,
                      std::size_t max_iterations) {
  const double pivot_tol = options.pivot_tolerance;
  const std::size_t degenerate_limit =
      options.degenerate_pivot_limit > 0 ? options.degenerate_pivot_limit
                                         : 1;
  std::size_t degenerate = 0;
  double last_objective = std::numeric_limits<double>::infinity();
  bool bland = false;
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    // --- entering column ---
    std::size_t entering = s.total_cols;  // sentinel: none
    if (bland) {
      for (std::size_t c = 0; c < col_limit; ++c) {
        if (s.tableau.at(s.cost_row, c) < -pivot_tol) {
          entering = c;
          break;
        }
      }
    } else {
      double best = -pivot_tol;
      for (std::size_t c = 0; c < col_limit; ++c) {
        const double rc = s.tableau.at(s.cost_row, c);
        if (rc < best) {
          best = rc;
          entering = c;
        }
      }
    }
    if (entering == s.total_cols) return IterateResult::kOptimal;

    // --- ratio test ---
    std::size_t leaving_row = s.m;  // sentinel: none
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < s.m; ++r) {
      const double a = s.tableau.at(r, entering);
      if (a > pivot_tol) {
        const double ratio = s.tableau.at(r, s.rhs_col) / a;
        if (ratio < best_ratio - 1e-12 ||
            (ratio < best_ratio + 1e-12 &&
             (leaving_row == s.m ||
              s.basis[r] < s.basis[leaving_row]))) {
          best_ratio = ratio;
          leaving_row = r;
        }
      }
    }
    if (leaving_row == s.m) return IterateResult::kUnbounded;

    s.pivot(leaving_row, entering);

    // --- anti-cycling ---
    // A pivot that fails to strictly improve the objective is degenerate;
    // a bounded run of them flips pricing to Bland's rule (the entering
    // selection above plus the smallest-basis-index ratio tie-break),
    // under which the simplex provably cannot revisit a basis.  Bland
    // stays engaged until the objective strictly improves again, so a
    // cycle cannot re-form by bouncing between pricing rules.
    const double objective = -s.tableau.at(s.cost_row, s.rhs_col);
    if (objective < last_objective - 1e-12) {
      degenerate = 0;
      bland = false;
    } else if (++degenerate >= degenerate_limit) {
      bland = true;
    }
    last_objective = objective;
  }
  return IterateResult::kIterationLimit;
}

// Loads `costs` (indexed over all columns except rhs) into the cost row and
// prices out the current basic variables so reduced costs are consistent.
void install_costs(SimplexState& s, const std::vector<double>& costs) {
  const std::size_t live = s.live_cols();
  for (std::size_t c = 0; c < live; ++c) {
    s.tableau.at(s.cost_row, c) = costs[c];
  }
  s.tableau.at(s.cost_row, s.rhs_col) = 0.0;
  for (std::size_t r = 0; r < s.m; ++r) {
    const auto bc = static_cast<std::size_t>(s.basis[r]);
    const double cost = costs[bc];
    if (cost == 0.0) continue;
    for (std::size_t c = 0; c < live; ++c) {
      s.tableau.at(s.cost_row, c) -= cost * s.tableau.at(r, c);
    }
    s.tableau.at(s.cost_row, s.rhs_col) -= cost * s.tableau.at(r, s.rhs_col);
  }
}

// A constraint after RHS normalisation (rhs >= 0).
struct NormalisedRow {
  std::vector<std::pair<int, double>> terms;
  Relation rel;
  double rhs;
};

// Writes the constraint rows into a zeroed tableau: each <= row gets a
// basic slack, each >= row a surplus plus a basic artificial, each = row a
// basic artificial.
void load_rows(SimplexState& s, const std::vector<NormalisedRow>& rows,
               std::size_t num_structural) {
  std::size_t slack_cursor = num_structural;
  std::size_t artificial_cursor = s.artificial_begin;
  for (std::size_t r = 0; r < s.m; ++r) {
    const NormalisedRow& row = rows[r];
    for (const auto& [idx, coeff] : row.terms) {
      s.tableau.at(r, static_cast<std::size_t>(idx)) += coeff;
    }
    s.tableau.at(r, s.rhs_col) = row.rhs;
    switch (row.rel) {
      case Relation::kLe:
        s.tableau.at(r, slack_cursor) = 1.0;
        s.basis[r] = static_cast<int>(slack_cursor);
        ++slack_cursor;
        break;
      case Relation::kGe:
        s.tableau.at(r, slack_cursor) = -1.0;
        ++slack_cursor;
        s.tableau.at(r, artificial_cursor) = 1.0;
        s.basis[r] = static_cast<int>(artificial_cursor);
        ++artificial_cursor;
        break;
      case Relation::kEq:
        s.tableau.at(r, artificial_cursor) = 1.0;
        s.basis[r] = static_cast<int>(artificial_cursor);
        ++artificial_cursor;
        break;
    }
  }
}

// Applies a crash start to the freshly loaded tableau.  A start never
// lets an artificial back into the basis, so the artificial block is
// frozen from the first crash pivot.  Returns false — leaving the tableau
// unusable — when a pivot element is not above pivot_tolerance, an
// artificial is still basic afterwards, or a basic value is below
// -feasibility_tolerance.  On true the basis is feasible and phase 2 can
// start from it.
bool apply_start(SimplexState& s, std::span<const CrashPivot> start,
                 const LinearProgram::Options& options) {
  s.artificials_frozen = true;
  for (const CrashPivot& p : start) {
    const auto r = static_cast<std::size_t>(p.row);
    const auto c = static_cast<std::size_t>(p.variable);
    if (!(std::abs(s.tableau.at(r, c)) > options.pivot_tolerance)) {
      return false;
    }
    s.pivot(r, c);
  }
  std::vector<double> basic_values(s.m);
  for (std::size_t r = 0; r < s.m; ++r) {
    if (static_cast<std::size_t>(s.basis[r]) >= s.artificial_begin) {
      return false;
    }
    basic_values[r] = s.tableau.at(r, s.rhs_col);
    if (basic_values[r] < -options.feasibility_tolerance) return false;
  }
  GDDR_VALIDATE(check_basis(s.basis, s.total_cols, "lp/start/basis"));
  GDDR_VALIDATE(check_rhs_nonnegative(
      basic_values, options.feasibility_tolerance, "lp/start/rhs"));
  return true;
}

}  // namespace

Solution LinearProgram::solve(const Options& options,
                              std::span<const CrashPivot> start) const {
  const auto n = static_cast<std::size_t>(num_variables());
  const auto m = static_cast<std::size_t>(num_constraints());
  for (const CrashPivot& p : start) {
    if (p.row < 0 || static_cast<std::size_t>(p.row) >= m ||
        p.variable < 0 || static_cast<std::size_t>(p.variable) >= n) {
      throw std::out_of_range("solve: crash pivot outside the program");
    }
  }

  // Count auxiliary columns.  RHS is normalised to >= 0 first (flip the
  // relation when multiplying a row by -1).
  std::vector<NormalisedRow> rows(m);
  std::size_t num_slack = 0;
  std::size_t num_artificial = 0;
  for (std::size_t r = 0; r < m; ++r) {
    NormalisedRow& row = rows[r];
    row = NormalisedRow{rows_[r].terms, rows_[r].rel, rows_[r].rhs};
    if (row.rhs < 0.0) {
      row.rhs = -row.rhs;
      for (auto& [idx, coeff] : row.terms) {
        (void)idx;
        coeff = -coeff;
      }
      if (row.rel == Relation::kLe) {
        row.rel = Relation::kGe;
      } else if (row.rel == Relation::kGe) {
        row.rel = Relation::kLe;
      }
    }
    switch (row.rel) {
      case Relation::kLe:
        ++num_slack;
        break;
      case Relation::kGe:
        ++num_slack;  // surplus
        ++num_artificial;
        break;
      case Relation::kEq:
        ++num_artificial;
        break;
    }
  }

  const std::size_t total_cols = n + num_slack + num_artificial;
  const std::size_t rhs_col = total_cols;
  SimplexState s{Tableau(m + 1, total_cols + 1),
                 std::vector<int>(m, -1),
                 m,
                 total_cols,
                 rhs_col,
                 /*cost_row=*/m,
                 /*artificial_begin=*/n + num_slack};
  const PivotRecorder recorder{s};
  obs::ScopedTimer solve_timer("lp/solve");
  load_rows(s, rows, n);

  const std::size_t max_iters =
      options.max_iterations > 0
          ? options.max_iterations
          : 200 * (m + total_cols) + 10000;

  // Initial basis: one slack/artificial column per row, all distinct.
  GDDR_VALIDATE(check_basis(s.basis, total_cols, "lp/setup/basis"));

  bool started = false;
  if (!start.empty()) {
    started = apply_start(s, start, options);
    if (!started) {
      // Back to the cold path on a fresh tableau; the rejected crash
      // pivots still count toward lp/pivots.
      obs::count("lp/start_rejected");
      s.tableau = Tableau(m + 1, total_cols + 1);
      s.artificials_frozen = false;
      load_rows(s, rows, n);
    }
  }

  Solution solution;

  // --- Phase 1: minimise the sum of artificials ---
  if (!started && num_artificial > 0) {
    std::vector<double> phase1_costs(total_cols, 0.0);
    for (std::size_t c = s.artificial_begin; c < total_cols; ++c) {
      phase1_costs[c] = 1.0;
    }
    install_costs(s, phase1_costs);
    const IterateResult r1 = iterate(s, total_cols, options, max_iters);
    if (r1 == IterateResult::kIterationLimit) {
      solution.status = SolveStatus::kIterationLimit;
      return solution;
    }
    const double phase1_obj = -s.tableau.at(s.cost_row, rhs_col);
    if (phase1_obj > options.feasibility_tolerance) {
      solution.status = SolveStatus::kInfeasible;
      return solution;
    }
    // Nothing reads an artificial column from here on.
    s.artificials_frozen = true;
    // Drive any artificial still basic (at value ~0) out of the basis if a
    // usable pivot exists; otherwise the row is redundant and harmless.
    for (std::size_t r = 0; r < m; ++r) {
      if (static_cast<std::size_t>(s.basis[r]) < s.artificial_begin) continue;
      for (std::size_t c = 0; c < s.artificial_begin; ++c) {
        if (std::abs(s.tableau.at(r, c)) > options.pivot_tolerance) {
          s.pivot(r, c);
          break;
        }
      }
    }
    // Phase 1 ended on a feasible basis: the basis must still be valid and
    // every basic value (the RHS column) non-negative within tolerance.
    GDDR_VALIDATE([&] {
      check_basis(s.basis, total_cols, "lp/phase1/basis");
      std::vector<double> basic_values(m);
      for (std::size_t r = 0; r < m; ++r) {
        basic_values[r] = s.tableau.at(r, rhs_col);
      }
      check_rhs_nonnegative(basic_values, options.feasibility_tolerance,
                            "lp/phase1/rhs");
    }());
  }

  // --- Phase 2: minimise the real objective; artificials may not enter ---
  s.artificials_frozen = true;
  std::vector<double> phase2_costs(total_cols, 0.0);
  for (std::size_t c = 0; c < n; ++c) phase2_costs[c] = objective_[c];
  install_costs(s, phase2_costs);
  const IterateResult r2 = iterate(s, s.artificial_begin, options, max_iters);
  if (r2 == IterateResult::kUnbounded) {
    solution.status = SolveStatus::kUnbounded;
    return solution;
  }
  if (r2 == IterateResult::kIterationLimit) {
    solution.status = SolveStatus::kIterationLimit;
    return solution;
  }

  // Optimum reached: basis still valid, and the total pivot count stayed
  // inside the crash start, the two phase budgets and the <= m drive-out
  // pivots.
  GDDR_VALIDATE([&] {
    check_basis(s.basis, total_cols, "lp/phase2/basis");
    check_pivot_bound(s.pivots, start.size() + 2 * max_iters + m,
                      "lp/solve/pivots");
  }());

  solution.status = SolveStatus::kOptimal;
  solution.x.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    const auto bc = static_cast<std::size_t>(s.basis[r]);
    if (bc < n) solution.x[bc] = s.tableau.at(r, rhs_col);
  }
  solution.objective = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    solution.objective += objective_[c] * solution.x[c];
  }
  return solution;
}

}  // namespace gddr::lp
