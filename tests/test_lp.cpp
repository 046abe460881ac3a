#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace gddr::lp {
namespace {

TEST(Simplex, TrivialMinimum) {
  // min x subject to x >= 3  ->  x = 3.
  LinearProgram prog;
  const int x = prog.add_variable(1.0);
  prog.add_constraint({{x, 1.0}}, Relation::kGe, 3.0);
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 3.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-9);
}

TEST(Simplex, TwoVariableKnownOptimum) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic example).
  // As minimisation: min -3x - 5y; optimum x=2, y=6, objective -36.
  LinearProgram prog;
  const int x = prog.add_variable(-3.0);
  const int y = prog.add_variable(-5.0);
  prog.add_constraint({{x, 1.0}}, Relation::kLe, 4.0);
  prog.add_constraint({{y, 2.0}}, Relation::kLe, 12.0);
  prog.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLe, 18.0);
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -36.0, 1e-7);
  EXPECT_NEAR(sol.x[static_cast<size_t>(x)], 2.0, 1e-7);
  EXPECT_NEAR(sol.x[static_cast<size_t>(y)], 6.0, 1e-7);
}

TEST(Simplex, EqualityConstraint) {
  // min x + y s.t. x + y = 10, x <= 4  ->  x=4, y=6? No: min x+y on the
  // line x+y=10 is 10 everywhere; check feasibility and objective.
  LinearProgram prog;
  const int x = prog.add_variable(1.0);
  const int y = prog.add_variable(1.0);
  prog.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 10.0);
  prog.add_constraint({{x, 1.0}}, Relation::kLe, 4.0);
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 10.0, 1e-7);
  EXPECT_NEAR(sol.x[static_cast<size_t>(x)] + sol.x[static_cast<size_t>(y)],
              10.0, 1e-7);
  EXPECT_LE(sol.x[static_cast<size_t>(x)], 4.0 + 1e-7);
}

TEST(Simplex, InfeasibleDetected) {
  // x <= 1 and x >= 2 cannot both hold.
  LinearProgram prog;
  const int x = prog.add_variable(1.0);
  prog.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  prog.add_constraint({{x, 1.0}}, Relation::kGe, 2.0);
  EXPECT_EQ(prog.solve().status, SolveStatus::kInfeasible);
}

TEST(Simplex, UnboundedDetected) {
  // min -x with x only bounded below.
  LinearProgram prog;
  const int x = prog.add_variable(-1.0);
  prog.add_constraint({{x, 1.0}}, Relation::kGe, 0.0);
  EXPECT_EQ(prog.solve().status, SolveStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalised) {
  // min x s.t. -x <= -5  (i.e. x >= 5).
  LinearProgram prog;
  const int x = prog.add_variable(1.0);
  prog.add_constraint({{x, -1.0}}, Relation::kLe, -5.0);
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 5.0, 1e-9);
}

TEST(Simplex, DuplicateTermsSummed) {
  // min x s.t. x + x >= 6 -> x = 3.
  LinearProgram prog;
  const int x = prog.add_variable(1.0);
  prog.add_constraint({{x, 1.0}, {x, 1.0}}, Relation::kGe, 6.0);
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-9);
}

TEST(Simplex, UnknownVariableRejected) {
  LinearProgram prog;
  prog.add_variable(1.0);
  EXPECT_THROW(prog.add_constraint({{3, 1.0}}, Relation::kLe, 1.0),
               std::out_of_range);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic cycling-prone problem (Beale); Bland fallback must terminate.
  LinearProgram prog;
  const int x1 = prog.add_variable(-0.75);
  const int x2 = prog.add_variable(150.0);
  const int x3 = prog.add_variable(-0.02);
  const int x4 = prog.add_variable(6.0);
  prog.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                      Relation::kLe, 0.0);
  prog.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                      Relation::kLe, 0.0);
  prog.add_constraint({{x3, 1.0}}, Relation::kLe, 1.0);
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -0.05, 1e-7);
}

TEST(Simplex, RedundantConstraintsHandled) {
  LinearProgram prog;
  const int x = prog.add_variable(1.0);
  prog.add_constraint({{x, 1.0}}, Relation::kGe, 2.0);
  prog.add_constraint({{x, 1.0}}, Relation::kGe, 2.0);  // duplicate
  prog.add_constraint({{x, 2.0}}, Relation::kGe, 4.0);  // scaled duplicate
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-9);
}

TEST(Simplex, ZeroObjectiveFeasibilityProblem) {
  LinearProgram prog;
  const int x = prog.add_variable(0.0);
  const int y = prog.add_variable(0.0);
  prog.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 5.0);
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[static_cast<size_t>(x)] + sol.x[static_cast<size_t>(y)],
              5.0, 1e-9);
}

TEST(Simplex, ToStringCoversAllStatuses) {
  EXPECT_EQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_EQ(to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_EQ(to_string(SolveStatus::kUnbounded), "unbounded");
  EXPECT_EQ(to_string(SolveStatus::kIterationLimit), "iteration-limit");
}

// A balanced 3-supplier x 4-consumer transportation problem with random
// supplies, demands and positive costs.  With `drop_last_consumer` the
// last consumer's equality row is left out: balance implies it, and
// without it the equality rows are linearly independent, so a crash start
// can cover every one of them.
struct Transportation {
  static constexpr int ns = 3;
  static constexpr int nc = 4;
  LinearProgram prog;
  std::vector<double> supply;
  std::vector<double> demand;
  double total = 0.0;
  std::vector<std::vector<int>> x;  // x[s][c]
};

Transportation make_transportation(std::uint64_t seed,
                                   bool drop_last_consumer) {
  util::Rng rng(seed);
  Transportation tp;
  const int ns = Transportation::ns;
  const int nc = Transportation::nc;
  tp.supply.resize(ns);
  tp.demand.assign(nc, 0.0);
  for (auto& s : tp.supply) {
    s = 1.0 + rng.uniform() * 9.0;
    tp.total += s;
  }
  for (int c = 0; c < nc - 1; ++c) {
    tp.demand[static_cast<size_t>(c)] = tp.total * rng.uniform() / nc;
  }
  double assigned = 0.0;
  for (int c = 0; c < nc - 1; ++c) {
    assigned += tp.demand[static_cast<size_t>(c)];
  }
  tp.demand[nc - 1] = tp.total - assigned;

  tp.x.assign(static_cast<size_t>(ns), std::vector<int>(nc));
  for (int s = 0; s < ns; ++s) {
    for (int c = 0; c < nc; ++c) {
      tp.x[static_cast<size_t>(s)][static_cast<size_t>(c)] =
          tp.prog.add_variable(1.0 + rng.uniform());  // random positive costs
    }
  }
  for (int s = 0; s < ns; ++s) {
    std::vector<std::pair<int, double>> terms;
    for (int c = 0; c < nc; ++c) {
      terms.emplace_back(tp.x[static_cast<size_t>(s)][static_cast<size_t>(c)],
                         1.0);
    }
    tp.prog.add_constraint(terms, Relation::kEq,
                           tp.supply[static_cast<size_t>(s)]);
  }
  const int consumer_rows = drop_last_consumer ? nc - 1 : nc;
  for (int c = 0; c < consumer_rows; ++c) {
    std::vector<std::pair<int, double>> terms;
    for (int s = 0; s < ns; ++s) {
      terms.emplace_back(tp.x[static_cast<size_t>(s)][static_cast<size_t>(c)],
                         1.0);
    }
    tp.prog.add_constraint(terms, Relation::kEq,
                           tp.demand[static_cast<size_t>(c)]);
  }
  return tp;
}

// Property test: random transportation problems have a known optimum equal
// to max(total supply needed) when costs are uniform.
class RandomLp : public ::testing::TestWithParam<int> {};

TEST_P(RandomLp, TransportationProblemFeasibleAndBounded) {
  const Transportation tp =
      make_transportation(static_cast<std::uint64_t>(GetParam()), false);
  const Solution sol = tp.prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  // Objective bounded by [min_cost * total, max_cost * total].
  EXPECT_GE(sol.objective, tp.total * 1.0 - 1e-6);
  EXPECT_LE(sol.objective, tp.total * 2.0 + 1e-6);
  // All flows non-negative and supplies exactly shipped.
  for (int s = 0; s < Transportation::ns; ++s) {
    double shipped = 0.0;
    for (int c = 0; c < Transportation::nc; ++c) {
      const double v = sol.x[static_cast<size_t>(
          tp.x[static_cast<size_t>(s)][static_cast<size_t>(c)])];
      EXPECT_GE(v, -1e-9);
      shipped += v;
    }
    EXPECT_NEAR(shipped, tp.supply[static_cast<size_t>(s)], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLp, ::testing::Range(0, 12));

// --- Crash starts -------------------------------------------------------

// Counts lp/start_rejected from a clean, enabled registry.
class CrashStart : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::instance().reset();
    obs::Registry::instance().enable();
  }
  void TearDown() override {
    obs::Registry::instance().disable();
    obs::Registry::instance().reset();
  }
  static std::uint64_t rejected() {
    return obs::Registry::instance().counter("lp/start_rejected");
  }
};

// The TwoVariableKnownOptimum program: rows x <= 4, 2y <= 12,
// 3x + 2y <= 18.
LinearProgram two_variable_program() {
  LinearProgram prog;
  const int x = prog.add_variable(-3.0);
  const int y = prog.add_variable(-5.0);
  prog.add_constraint({{x, 1.0}}, Relation::kLe, 4.0);
  prog.add_constraint({{y, 2.0}}, Relation::kLe, 12.0);
  prog.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLe, 18.0);
  return prog;
}

// The EqualityConstraint program: rows x + y = 10, x <= 4.
LinearProgram equality_program() {
  LinearProgram prog;
  const int x = prog.add_variable(1.0);
  const int y = prog.add_variable(1.0);
  prog.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 10.0);
  prog.add_constraint({{x, 1.0}}, Relation::kLe, 4.0);
  return prog;
}

// Northwest-corner rule on a transportation problem built without its
// last consumer row: each shipment enters the row it exhausts, which
// covers every supply and remaining consumer row with a feasible basis.
std::vector<CrashPivot> northwest_corner(const Transportation& tp) {
  const int ns = Transportation::ns;
  const int nc = Transportation::nc;
  std::vector<double> supply = tp.supply;
  std::vector<double> demand = tp.demand;
  std::vector<CrashPivot> start;
  int s = 0;
  int c = 0;
  while (s < ns && c < nc) {
    const auto si = static_cast<size_t>(s);
    const auto ci = static_cast<size_t>(c);
    const double shipped = std::min(supply[si], demand[ci]);
    supply[si] -= shipped;
    demand[ci] -= shipped;
    const int variable = tp.x[si][ci];
    if (c == nc - 1 || (s < ns - 1 && supply[si] <= demand[ci])) {
      start.push_back({s, variable});  // supply row s exhausted
      ++s;
    } else {
      start.push_back({ns + c, variable});  // consumer row c exhausted
      ++c;
    }
  }
  return start;
}

TEST_F(CrashStart, ValidStartReproducesTwoVariableOptimum) {
  const LinearProgram prog = two_variable_program();
  const Solution cold = prog.solve();
  const std::vector<CrashPivot> start = {{1, 1}};  // y = 6 in 2y <= 12
  const Solution crashed = prog.solve({}, start);
  ASSERT_EQ(crashed.status, SolveStatus::kOptimal);
  EXPECT_NEAR(crashed.objective, cold.objective, 1e-9);
  EXPECT_NEAR(crashed.objective, -36.0, 1e-7);
  EXPECT_EQ(rejected(), 0U);
}

TEST_F(CrashStart, ValidStartReproducesEqualityOptimum) {
  const LinearProgram prog = equality_program();
  const Solution cold = prog.solve();
  const std::vector<CrashPivot> start = {{0, 1}};  // y = 10 covers x + y = 10
  const Solution crashed = prog.solve({}, start);
  ASSERT_EQ(crashed.status, SolveStatus::kOptimal);
  EXPECT_NEAR(crashed.objective, cold.objective, 1e-9);
  EXPECT_LE(crashed.x[0], 4.0 + 1e-7);
  EXPECT_EQ(rejected(), 0U);
}

class CrashStartTransportation
    : public CrashStart,
      public ::testing::WithParamInterface<int> {};

TEST_P(CrashStartTransportation, NorthwestCornerReproducesColdObjective) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Solution cold = make_transportation(seed, false).prog.solve();
  const Transportation reduced = make_transportation(seed, true);
  const std::vector<CrashPivot> start = northwest_corner(reduced);
  ASSERT_EQ(start.size(), static_cast<size_t>(reduced.prog.num_constraints()));
  const Solution crashed = reduced.prog.solve({}, start);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_EQ(crashed.status, SolveStatus::kOptimal);
  EXPECT_NEAR(crashed.objective, cold.objective,
              1e-9 * std::abs(cold.objective));
  EXPECT_EQ(rejected(), 0U);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashStartTransportation,
                         ::testing::Range(0, 12));

// Each rejected start falls back to the cold path on a fresh tableau, so
// status and objective are exactly the cold solve's.
void expect_cold_fallback(const LinearProgram& prog,
                          const std::vector<CrashPivot>& start) {
  const std::uint64_t before =
      obs::Registry::instance().counter("lp/start_rejected");
  const Solution cold = prog.solve();
  const Solution crashed = prog.solve({}, start);
  EXPECT_EQ(crashed.status, cold.status);
  EXPECT_EQ(crashed.objective, cold.objective);
  EXPECT_EQ(crashed.x, cold.x);
  EXPECT_EQ(obs::Registry::instance().counter("lp/start_rejected"),
            before + 1);
}

TEST_F(CrashStart, SingularStartFallsBack) {
  // y enters row 0, then row 1 (x <= 4) has no y term left to pivot on.
  expect_cold_fallback(equality_program(), {{0, 1}, {1, 1}});
  // A pivot on a structurally zero element.
  expect_cold_fallback(two_variable_program(), {{0, 1}});
}

TEST_F(CrashStart, InfeasibleStartFallsBack) {
  // x = 10 covers x + y = 10 but leaves x <= 4 with slack -6.
  expect_cold_fallback(equality_program(), {{0, 0}});
  // y = 6 then x = 4 overloads 3x + 2y <= 18 (slack -6).
  expect_cold_fallback(two_variable_program(), {{1, 1}, {0, 0}});
}

TEST_F(CrashStart, UncoveredEqualityRowFallsBack) {
  // x enters x <= 4; the artificial of x + y = 10 stays basic.
  expect_cold_fallback(equality_program(), {{1, 0}});
  // The full transportation problem has a redundant equality row, so its
  // northwest-corner start leaves one row uncovered.
  const Transportation full = make_transportation(3, false);
  const Transportation reduced = make_transportation(3, true);
  expect_cold_fallback(full.prog, northwest_corner(reduced));
  EXPECT_EQ(rejected(), 2U);
}

TEST_F(CrashStart, InfeasibleAndUnboundedStillReported) {
  LinearProgram infeasible;  // x <= 1 and x >= 2
  const int x = infeasible.add_variable(1.0);
  infeasible.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  infeasible.add_constraint({{x, 1.0}}, Relation::kGe, 2.0);
  const std::vector<CrashPivot> into_le = {{0, x}};
  const std::vector<CrashPivot> into_ge = {{1, x}};
  EXPECT_EQ(infeasible.solve({}, into_le).status, SolveStatus::kInfeasible);
  EXPECT_EQ(infeasible.solve({}, into_ge).status, SolveStatus::kInfeasible);

  LinearProgram unbounded;  // min -x, x >= 0: the start is accepted
  const int u = unbounded.add_variable(-1.0);
  unbounded.add_constraint({{u, 1.0}}, Relation::kGe, 0.0);
  const std::vector<CrashPivot> start = {{0, u}};
  EXPECT_EQ(unbounded.solve({}, start).status, SolveStatus::kUnbounded);
  EXPECT_EQ(rejected(), 2U);
}

TEST_F(CrashStart, OutOfRangeStartThrows) {
  const LinearProgram prog = equality_program();
  const std::vector<CrashPivot> bad_row = {{2, 0}};
  const std::vector<CrashPivot> bad_variable = {{0, 2}};
  EXPECT_THROW(prog.solve({}, bad_row), std::out_of_range);
  EXPECT_THROW(prog.solve({}, bad_variable), std::out_of_range);
}

}  // namespace
}  // namespace gddr::lp
