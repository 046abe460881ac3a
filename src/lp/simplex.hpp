// Two-phase primal simplex linear-programming solver on a dense tableau.
//
// The paper computes the optimal max-link-utilisation with Google
// OR-Tools' LP solver (§V-A); this module is the from-scratch replacement.
// It solves
//
//     minimise    c . x
//     subject to  A x {<=, =, >=} b,    x >= 0
//
// via the textbook two-phase method: phase 1 minimises the sum of
// artificial variables to find a basic feasible solution, phase 2
// optimises the real objective.  Dantzig pricing is used with an automatic
// switch to Bland's rule when progress stalls, which guarantees
// termination.  The tableau is stored dense but updated sparsely: a pivot
// touches only the rows with a non-zero in the pivot column, and in them
// only the pivot row's non-zero columns.
//
// A caller that knows a feasible basis of its problem can hand solve() a
// crash start — an ordered list of (constraint, variable) pivots.  When
// the start yields a feasible basis with no artificial left basic, phase 1
// is skipped; otherwise the solve falls back to the cold two-phase path
// on a fresh tableau, so a bad start costs time but never the answer.
// Problem sizes in this repository (destination-aggregated
// multicommodity flow on Topology-Zoo-scale graphs) stay well inside what
// a dense tableau handles comfortably.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace gddr::lp {

enum class Relation { kLe, kEq, kGe };

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  // Values of the original variables (empty unless kOptimal).
  std::vector<double> x;
};

std::string to_string(SolveStatus status);

// One pivot of a crash start: `variable` enters the basis in constraint
// `row` (indices as returned by add_variable / the add_constraint order).
struct CrashPivot {
  int row;
  int variable;
};

class LinearProgram {
 public:
  // Adds a variable with the given objective coefficient (x_i >= 0
  // implicitly); returns its index.
  int add_variable(double objective_coeff);

  int num_variables() const { return static_cast<int>(objective_.size()); }
  int num_constraints() const { return static_cast<int>(rows_.size()); }

  // Adds the constraint  sum_j terms[j].second * x_{terms[j].first}  rel  rhs.
  // Variable indices must already exist.  Duplicate indices in one
  // constraint are summed.
  void add_constraint(const std::vector<std::pair<int, double>>& terms,
                      Relation rel, double rhs);

  struct Options {
    // 0 = choose automatically from problem size.
    std::size_t max_iterations = 0;
    double pivot_tolerance = 1e-9;
    double feasibility_tolerance = 1e-7;
    // Anti-cycling: after this many consecutive pivots without objective
    // improvement (degenerate pivots), pricing falls back to Bland's rule
    // — smallest-index entering column plus the smallest-basis-index
    // ratio-test tie-break — which provably cannot cycle.  Dantzig
    // pricing resumes once the objective strictly improves.  Must be > 0;
    // pathological degenerate LPs (which parallel evaluation can hit on
    // arbitrary generated scenarios) terminate instead of looping.
    std::size_t degenerate_pivot_limit = 64;
  };

  // Solves the program.  A non-empty `start` is applied pivot by pivot
  // before phase 2; the solve falls back to the cold two-phase path (and
  // counts lp/start_rejected) when a pivot element is not above
  // pivot_tolerance, an artificial variable is left basic (an equality or
  // >= row the start does not cover), or a basic value ends below
  // -feasibility_tolerance.  Throws std::out_of_range for a start index
  // outside the program.
  Solution solve(const Options& options,
                 std::span<const CrashPivot> start = {}) const;
  Solution solve() const { return solve(Options{}); }

 private:
  struct Row {
    std::vector<std::pair<int, double>> terms;
    Relation rel;
    double rhs;
  };

  std::vector<double> objective_;
  std::vector<Row> rows_;
};

}  // namespace gddr::lp
