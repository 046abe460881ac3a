// Tests for the debug-contract invariant layer (util/contract.hpp) and the
// per-subsystem `*_invariants` validators.
//
// The suite is built in BOTH configurations of the CI matrix:
//  * default (GDDR_CHECK off) — proves the macros compile out completely:
//    no check is counted, no side effect of a condition runs, and a whole
//    softmin + simplex + tape pass evaluates zero contracts;
//  * -DGDDR_CHECK=ON — proves violations throw ContractViolation carrying
//    the expression, label path and offending values, and that one
//    deliberately broken invariant per subsystem is caught.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "graph/digraph.hpp"
#include "graph/graph_invariants.hpp"
#include "lp/lp_invariants.hpp"
#include "lp/simplex.hpp"
#include "mcf/mcf_invariants.hpp"
#include "mcf/optimal.hpp"
#include "nn/nn_invariants.hpp"
#include "nn/tape.hpp"
#include "rl/rl_invariants.hpp"
#include "routing/routing_invariants.hpp"
#include "routing/softmin.hpp"
#include "util/contract.hpp"

namespace {

using gddr::util::ContractViolation;
namespace contract = gddr::util::contract;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// Small strongly connected test graph: a 4-cycle with chords.
gddr::graph::DiGraph diamond() {
  gddr::graph::DiGraph g(4);
  g.add_bidirectional(0, 1, 10.0);
  g.add_bidirectional(1, 2, 10.0);
  g.add_bidirectional(2, 3, 10.0);
  g.add_bidirectional(3, 0, 10.0);
  g.add_bidirectional(0, 2, 10.0);
  return g;
}

// ---------------------------------------------------------------------------
// Macro semantics: compile-out vs. checked
// ---------------------------------------------------------------------------

TEST(ContractMacros, ConditionEvaluationMatchesBuildMode) {
  contract::reset_checks_evaluated();
  int evaluated = 0;
  GDDR_REQUIRE((++evaluated, true), "test/require");
  GDDR_ENSURE((++evaluated, true), "test/ensure");
  GDDR_INVARIANT((++evaluated, true), "test/invariant");
  GDDR_VALIDATE(++evaluated);
  if (contract::enabled()) {
    EXPECT_EQ(evaluated, 4);
    EXPECT_EQ(contract::checks_evaluated(), 4U);
  } else {
    // Compiled out: the conditions were never evaluated and the counter
    // never moved — the zero-overhead guarantee.
    EXPECT_EQ(evaluated, 0);
    EXPECT_EQ(contract::checks_evaluated(), 0U);
  }
}

TEST(ContractMacros, PassingChecksDoNotThrow) {
  EXPECT_NO_THROW({
    GDDR_REQUIRE(1 + 1 == 2, "test/pass");
    GDDR_ENSURE(true, "test/pass", "x", 1);
    GDDR_INVARIANT(2 > 1, "test/pass", "a", 2, "b", 1);
  });
}

TEST(ContractMacros, ViolationCarriesExpressionLabelAndValues) {
  if (!contract::enabled()) GTEST_SKIP() << "contracts compiled out";
  [[maybe_unused]] const double sum = 0.5;
  [[maybe_unused]] const int t = 3;
  try {
    GDDR_ENSURE(sum > 0.9, "routing/test/row", "sum", sum, "t", t);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), "ENSURE");
    EXPECT_EQ(v.label(), "routing/test/row");
    EXPECT_NE(v.expression().find("sum > 0.9"), std::string::npos);
    EXPECT_NE(v.values().find("sum=0.5"), std::string::npos);
    EXPECT_NE(v.values().find("t=3"), std::string::npos);
    EXPECT_GT(v.line(), 0);
    const std::string what = v.what();
    EXPECT_NE(what.find("routing/test/row"), std::string::npos);
    EXPECT_NE(what.find("sum > 0.9"), std::string::npos);
  }
}

TEST(ContractMacros, RequireEnsureInvariantReportTheirKind) {
  if (!contract::enabled()) GTEST_SKIP() << "contracts compiled out";
  try {
    GDDR_REQUIRE(false, "test/kind");
    FAIL();
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), "REQUIRE");
  }
  try {
    GDDR_INVARIANT(false, "test/kind");
    FAIL();
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), "INVARIANT");
  }
}

TEST(ContractMacros, ViolationIsLogicErrorNotRuntimeError) {
  // The solver fallback chain catches std::runtime_error subclasses; a
  // contract violation must never be swallowed by it.
  if (!contract::enabled()) GTEST_SKIP() << "contracts compiled out";
  bool caught_as_logic = false;
  try {
    GDDR_INVARIANT(false, "test/hierarchy");
  } catch (const std::runtime_error&) {
    FAIL() << "ContractViolation must not be a runtime_error";
  } catch (const std::logic_error&) {
    caught_as_logic = true;
  }
  EXPECT_TRUE(caught_as_logic);
}

// The whole-stack zero-overhead proof: exercising the instrumented layers
// in a non-GDDR_CHECK build must evaluate exactly zero contracts.
TEST(ContractMacros, InstrumentedStackEvaluatesZeroChecksWhenDisabled) {
  if (contract::enabled()) GTEST_SKIP() << "checked build";
  contract::reset_checks_evaluated();

  const auto g = diamond();
  const std::vector<double> weights(static_cast<size_t>(g.num_edges()), 1.0);
  (void)gddr::routing::softmin_routing(g, weights);

  gddr::traffic::DemandMatrix dm(g.num_nodes());
  dm.set(0, 2, 1.0);
  dm.set(1, 3, 2.0);
  (void)gddr::mcf::solve_optimal(g, dm);

  gddr::nn::Tape tape;
  gddr::nn::Tensor x(1, 1);
  x.at(0, 0) = 2.0F;
  tape.backward(tape.square(tape.constant(x)));

  EXPECT_EQ(contract::checks_evaluated(), 0U);
}

TEST(ContractMacros, InstrumentedStackEvaluatesChecksWhenEnabled) {
  if (!contract::enabled()) GTEST_SKIP() << "contracts compiled out";
  contract::reset_checks_evaluated();
  const auto g = diamond();
  const std::vector<double> weights(static_cast<size_t>(g.num_edges()), 1.0);
  EXPECT_NO_THROW((void)gddr::routing::softmin_routing(g, weights));
  gddr::traffic::DemandMatrix dm(g.num_nodes());
  dm.set(0, 2, 1.0);
  EXPECT_NO_THROW((void)gddr::mcf::solve_optimal(g, dm));
  EXPECT_GT(contract::checks_evaluated(), 0U);
}

// ---------------------------------------------------------------------------
// Shared predicates
// ---------------------------------------------------------------------------

TEST(ContractPredicates, FirstNonfinite) {
  const std::vector<double> ok = {0.0, -1.5, 3.0};
  EXPECT_FALSE(contract::first_nonfinite(ok).has_value());
  const std::vector<double> bad = {0.0, kNan, 3.0};
  ASSERT_TRUE(contract::first_nonfinite(bad).has_value());
  EXPECT_EQ(*contract::first_nonfinite(bad), 1U);
  const std::vector<float> badf = {1.0F,
                                   std::numeric_limits<float>::infinity()};
  ASSERT_TRUE(contract::first_nonfinite(badf).has_value());
  EXPECT_EQ(*contract::first_nonfinite(badf), 1U);
}

TEST(ContractPredicates, RowStochastic) {
  double sum = 0.0;
  EXPECT_TRUE(contract::row_stochastic(std::vector<double>{0.25, 0.75}, 1e-9,
                                       &sum));
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_FALSE(
      contract::row_stochastic(std::vector<double>{0.25, 0.5}, 1e-9, &sum));
  EXPECT_NEAR(sum, 0.75, 1e-12);
  // Entries outside [0, 1] fail even when the sum is right.
  EXPECT_FALSE(
      contract::row_stochastic(std::vector<double>{1.5, -0.5}, 1e-9));
}

TEST(ContractPredicates, DescribeFormatsPairs) {
  EXPECT_EQ(contract::describe(), "");
  EXPECT_EQ(contract::describe("x", 1), "x=1");
  EXPECT_EQ(contract::describe("x", 1, "y", "two"), "x=1, y=two");
}

// ---------------------------------------------------------------------------
// Deliberately broken invariants, one per subsystem
// ---------------------------------------------------------------------------

TEST(GraphInvariants, CyclicMaskedSubgraphCaught) {
  gddr::graph::DiGraph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 1.0);
  const std::vector<bool> all(2, true);
  try {
    gddr::graph::check_acyclic(g, all, "test/graph/dag");
    FAIL() << "cycle not caught";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.label(), "test/graph/dag");
    EXPECT_NE(v.expression().find("acyclic"), std::string::npos);
  }
  // Breaking the cycle passes.
  EXPECT_NO_THROW(
      gddr::graph::check_acyclic(g, {true, false}, "test/graph/dag"));
}

TEST(GraphInvariants, BadTopologicalOrderCaught) {
  gddr::graph::DiGraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  const std::vector<bool> all(2, true);
  EXPECT_NO_THROW(
      gddr::graph::check_topological_order(g, all, {0, 1, 2}, "test/order"));
  // Backward edge in the claimed order.
  EXPECT_THROW(
      gddr::graph::check_topological_order(g, all, {1, 0, 2}, "test/order"),
      ContractViolation);
  // Not a permutation.
  EXPECT_THROW(
      gddr::graph::check_topological_order(g, all, {0, 0, 2}, "test/order"),
      ContractViolation);
  EXPECT_THROW(
      gddr::graph::check_topological_order(g, all, {0, 1}, "test/order"),
      ContractViolation);
}

TEST(LpInvariants, InvalidBasisCaught) {
  EXPECT_NO_THROW(gddr::lp::check_basis({0, 2, 1}, 4, "test/lp/basis"));
  // Duplicate basic column.
  EXPECT_THROW(gddr::lp::check_basis({0, 2, 2}, 4, "test/lp/basis"),
               ContractViolation);
  // Out of range.
  EXPECT_THROW(gddr::lp::check_basis({0, 4}, 4, "test/lp/basis"),
               ContractViolation);
  EXPECT_THROW(gddr::lp::check_basis({-1}, 4, "test/lp/basis"),
               ContractViolation);
}

TEST(LpInvariants, NegativeRhsAndPivotOverrunCaught) {
  EXPECT_NO_THROW(gddr::lp::check_rhs_nonnegative(
      std::vector<double>{0.0, 1.0, -1e-9}, 1e-7, "test/lp/rhs"));
  try {
    gddr::lp::check_rhs_nonnegative(std::vector<double>{0.0, -0.5}, 1e-7,
                                    "test/lp/rhs");
    FAIL() << "negative RHS not caught";
  } catch (const ContractViolation& v) {
    EXPECT_NE(v.values().find("rhs=-0.5"), std::string::npos);
  }
  EXPECT_NO_THROW(gddr::lp::check_pivot_bound(10, 10, "test/lp/pivots"));
  EXPECT_THROW(gddr::lp::check_pivot_bound(11, 10, "test/lp/pivots"),
               ContractViolation);
}

TEST(McfInvariants, BrokenConservationCaught) {
  const auto g = diamond();
  gddr::traffic::DemandMatrix dm(g.num_nodes());
  dm.set(0, 2, 4.0);
  auto result = gddr::mcf::solve_optimal(g, dm);
  ASSERT_TRUE(result.feasible);
  ASSERT_EQ(result.provenance, gddr::mcf::SolveProvenance::kExact);
  EXPECT_NO_THROW(gddr::mcf::check_flow_conservation(g, dm, result, 1e-6,
                                                     "test/mcf/cons"));
  // Steal a unit of flow from the first carrying edge: conservation breaks.
  auto broken = result;
  auto& row = broken.flow_by_dest[2];
  for (auto& f : row) {
    if (f > 0.5) {
      f -= 0.5;
      break;
    }
  }
  EXPECT_THROW(gddr::mcf::check_flow_conservation(g, dm, broken, 1e-6,
                                                  "test/mcf/cons"),
               ContractViolation);
}

TEST(McfInvariants, UmaxFlowMismatchCaught) {
  const auto g = diamond();
  gddr::traffic::DemandMatrix dm(g.num_nodes());
  dm.set(0, 2, 4.0);
  auto result = gddr::mcf::solve_optimal(g, dm);
  ASSERT_TRUE(result.feasible);
  EXPECT_NO_THROW(
      gddr::mcf::check_umax_consistency(g, result, 1e-6, "test/mcf/umax"));
  auto broken = result;
  broken.u_max *= 2.0;  // claims twice the congestion its flows show
  EXPECT_THROW(
      gddr::mcf::check_umax_consistency(g, broken, 1e-6, "test/mcf/umax"),
      ContractViolation);
  broken.u_max = kNan;
  EXPECT_THROW(
      gddr::mcf::check_umax_consistency(g, broken, 1e-6, "test/mcf/umax"),
      ContractViolation);
}

TEST(RoutingInvariants, NonStochasticRowCaught) {
  const auto g = diamond();
  const std::vector<double> weights(static_cast<size_t>(g.num_edges()), 1.0);
  auto routing = gddr::routing::softmin_routing(g, weights);
  EXPECT_NO_THROW(gddr::routing::check_softmin_routing(g, routing, 1e-9,
                                                       "test/routing"));
  // Halve one positive ratio: the row no longer sums to 1.
  for (gddr::graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const double r = routing.ratio(2, e);
    if (r > 0.0) {
      routing.set_ratio(2, e, r * 0.5);
      break;
    }
  }
  try {
    gddr::routing::check_softmin_routing(g, routing, 1e-9, "test/routing");
    FAIL() << "non-stochastic row not caught";
  } catch (const ContractViolation& v) {
    EXPECT_NE(v.expression().find("row-stochastic"), std::string::npos);
  }
}

TEST(RoutingInvariants, CyclicRatioGraphCaught) {
  // Destination 2 routed 0 -> 1 -> 0 ... : a deliberate 2-cycle "DAG".
  gddr::graph::DiGraph g(3);
  const auto e01 = g.add_edge(0, 1, 1.0);
  const auto e10 = g.add_edge(1, 0, 1.0);
  const auto e12 = g.add_edge(1, 2, 1.0);
  gddr::routing::Routing routing(g.num_nodes(), g.num_edges());
  routing.set_ratio(2, e01, 1.0);
  routing.set_ratio(2, e10, 0.5);
  routing.set_ratio(2, e12, 0.5);
  try {
    gddr::routing::check_softmin_routing(g, routing, 1e-9, "test/routing");
    FAIL() << "routing cycle not caught";
  } catch (const ContractViolation& v) {
    EXPECT_NE(v.expression().find("DAG"), std::string::npos);
  }
}

TEST(RoutingInvariants, RatiosForUnreachableSourceCaught) {
  // Nothing enters node 3, so no vertex can reach it and no vertex may
  // carry ratios toward destination 3.
  gddr::graph::DiGraph g(4);
  const auto e01 = g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 0, 1.0);
  g.add_edge(3, 0, 1.0);
  gddr::routing::Routing routing(g.num_nodes(), g.num_edges());
  routing.set_ratio(3, e01, 1.0);
  try {
    gddr::routing::check_softmin_routing(g, routing, 1e-9, "test/routing");
    FAIL() << "unreachable-source ratios not caught";
  } catch (const ContractViolation& v) {
    EXPECT_NE(v.expression().find("unreachable"), std::string::npos);
  }
}

TEST(NnInvariants, MismatchedGradShapeCaught) {
  const gddr::nn::Tensor value(2, 3);
  const gddr::nn::Tensor grad(3, 2);
  EXPECT_NO_THROW(
      gddr::nn::check_grad_shape(value, gddr::nn::Tensor(2, 3), "test/nn"));
  try {
    gddr::nn::check_grad_shape(value, grad, "test/nn");
    FAIL() << "grad shape mismatch not caught";
  } catch (const ContractViolation& v) {
    EXPECT_NE(v.values().find("2x3"), std::string::npos);
    EXPECT_NE(v.values().find("3x2"), std::string::npos);
  }
}

TEST(NnInvariants, NonFiniteTensorCaught) {
  gddr::nn::Tensor t(1, 3);
  EXPECT_NO_THROW(gddr::nn::check_finite(t, "test/nn/finite"));
  t.at(0, 1) = std::numeric_limits<float>::quiet_NaN();
  try {
    gddr::nn::check_finite(t, "test/nn/finite");
    FAIL() << "NaN not caught";
  } catch (const ContractViolation& v) {
    EXPECT_NE(v.values().find("index=1"), std::string::npos);
  }
}

TEST(RlInvariants, BrokenBootstrapFlagsCaught) {
  std::vector<gddr::rl::StepSample> samples(3);
  samples[0].done = true;
  samples[1].truncated = true;
  samples[1].bootstrap_value = 0.7;
  samples[2].done = true;
  EXPECT_NO_THROW(gddr::rl::check_rollout_flags(samples, "test/rl/flags"));

  // Truncated sample with a non-finite bootstrap.
  auto broken = samples;
  broken[1].bootstrap_value = kNan;
  EXPECT_THROW(gddr::rl::check_rollout_flags(broken, "test/rl/flags"),
               ContractViolation);

  // Bootstrap value smuggled onto a non-truncated sample.
  broken = samples;
  broken[0].bootstrap_value = 1.0;
  EXPECT_THROW(gddr::rl::check_rollout_flags(broken, "test/rl/flags"),
               ContractViolation);

  // Open segment tail: the final sample neither terminal nor truncated.
  broken = samples;
  broken[2].done = false;
  EXPECT_THROW(gddr::rl::check_rollout_flags(broken, "test/rl/flags"),
               ContractViolation);
}

TEST(RlInvariants, NonFiniteGaeAndLossesCaught) {
  std::vector<gddr::rl::StepSample> samples(1);
  samples[0].done = true;
  samples[0].advantage = 0.5;
  samples[0].return_ = 1.0;
  EXPECT_NO_THROW(gddr::rl::check_gae_outputs(samples, "test/rl/gae"));
  samples[0].advantage = kNan;
  EXPECT_THROW(gddr::rl::check_gae_outputs(samples, "test/rl/gae"),
               ContractViolation);

  gddr::rl::PpoIterationStats stats;
  EXPECT_NO_THROW(gddr::rl::check_finite_losses(stats, "test/rl/loss"));
  stats.value_loss = std::numeric_limits<double>::infinity();
  EXPECT_THROW(gddr::rl::check_finite_losses(stats, "test/rl/loss"),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// Instrumented hot paths catch corruption end-to-end (checked builds)
// ---------------------------------------------------------------------------

TEST(ContractIntegration, TapeBackwardRunsCleanUnderContracts) {
  // The tape's node-order and grad-shape contracts must hold on a real
  // multi-op graph in every build mode.
  gddr::nn::Tape tape;
  gddr::nn::Tensor x(2, 2);
  x.at(0, 0) = 1.0F;
  x.at(0, 1) = 2.0F;
  x.at(1, 0) = 3.0F;
  x.at(1, 1) = 4.0F;
  const auto a = tape.constant(x);
  const auto b = tape.tanh(a);
  const auto c = tape.mul(b, b);
  EXPECT_NO_THROW(tape.backward(tape.mean_all(c)));
}

}  // namespace
