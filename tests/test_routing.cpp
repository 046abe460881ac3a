#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/algorithms.hpp"
#include "mcf/optimal.hpp"
#include "routing/baselines.hpp"
#include "routing/prune.hpp"
#include "routing/reference.hpp"
#include "routing/routing.hpp"
#include "routing/softmin.hpp"
#include "topo/generators.hpp"
#include "topo/zoo.hpp"
#include "traffic/generators.hpp"

namespace gddr::routing {
namespace {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;
using traffic::DemandMatrix;

DiGraph diamond() {
  DiGraph g(4);
  g.add_edge(0, 1, 10.0);  // e0
  g.add_edge(1, 3, 10.0);  // e1
  g.add_edge(0, 2, 10.0);  // e2
  g.add_edge(2, 3, 10.0);  // e3
  return g;
}

// ---------------- softmin function ----------------

TEST(Softmin, UniformInputsGiveUniformOutput) {
  const std::vector<double> x{2.0, 2.0, 2.0, 2.0};
  const auto out = softmin(x, 3.0);
  for (double v : out) EXPECT_NEAR(v, 0.25, 1e-12);
}

TEST(Softmin, SumsToOne) {
  const std::vector<double> x{1.0, 5.0, 2.5, 0.1};
  const auto out = softmin(x, 2.0);
  EXPECT_NEAR(std::accumulate(out.begin(), out.end(), 0.0), 1.0, 1e-12);
}

TEST(Softmin, SmallerInputGetsLargerShare) {
  const auto out = softmin(std::vector<double>{1.0, 3.0}, 1.0);
  EXPECT_GT(out[0], out[1]);
}

TEST(Softmin, GammaSharpens) {
  const std::vector<double> x{1.0, 2.0};
  const auto soft = softmin(x, 0.5);
  const auto sharp = softmin(x, 10.0);
  EXPECT_GT(sharp[0], soft[0]);
  EXPECT_GT(sharp[0], 0.99);
}

TEST(Softmin, MatchesClosedForm) {
  const std::vector<double> x{0.0, 1.0};
  const double gamma = 2.0;
  const auto out = softmin(x, gamma);
  const double e0 = 1.0;
  const double e1 = std::exp(-gamma);
  EXPECT_NEAR(out[0], e0 / (e0 + e1), 1e-9);
  EXPECT_NEAR(out[1], e1 / (e0 + e1), 1e-9);
}

TEST(Softmin, NumericallyStableForLargeInputs) {
  const auto out = softmin(std::vector<double>{1e6, 1e6 + 1.0}, 5.0);
  EXPECT_TRUE(std::isfinite(out[0]));
  EXPECT_NEAR(out[0] + out[1], 1.0, 1e-9);
}

TEST(Softmin, EmptyOrBadGammaThrows) {
  EXPECT_THROW(softmin(std::vector<double>{}, 1.0), std::invalid_argument);
  EXPECT_THROW(softmin(std::vector<double>{1.0}, 0.0), std::invalid_argument);
}

// ---------------- weights_from_actions ----------------

TEST(WeightsFromActions, AffineMapping) {
  const std::vector<double> actions{-1.0, 0.0, 1.0};
  const auto w = weights_from_actions(actions, 0.1, 10.0);
  EXPECT_NEAR(w[0], 0.1, 1e-12);
  EXPECT_NEAR(w[1], 5.05, 1e-12);
  EXPECT_NEAR(w[2], 10.0, 1e-12);
}

TEST(WeightsFromActions, ClampsOutOfRange) {
  const auto w = weights_from_actions(std::vector<double>{-5.0, 5.0});
  EXPECT_NEAR(w[0], 0.1, 1e-12);
  EXPECT_NEAR(w[1], 10.0, 1e-12);
}

TEST(WeightsFromActions, BadRangeThrows) {
  EXPECT_THROW(weights_from_actions(std::vector<double>{0.0}, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(weights_from_actions(std::vector<double>{0.0}, 2.0, 1.0),
               std::invalid_argument);
}

// ---------------- Routing container & validate ----------------

TEST(Routing, SetAndGetRatios) {
  Routing r(4, 4);
  r.set_ratio(3, 0, 0.25);
  EXPECT_DOUBLE_EQ(r.ratio(3, 0), 0.25);
  EXPECT_DOUBLE_EQ(r.ratio(3, 1), 0.0);
  // The row view aliases the same table.
  EXPECT_DOUBLE_EQ(r.dest_ratios(3)[0], 0.25);
  EXPECT_DOUBLE_EQ(r.dest_ratios(2)[0], 0.0);
}

TEST(Routing, OutOfRangeRatioThrows) {
  Routing r(4, 4);
  EXPECT_THROW(r.set_ratio(3, 0, 1.5), std::invalid_argument);
  EXPECT_THROW(r.set_ratio(3, 0, -0.5), std::invalid_argument);
}

TEST(Validate, AcceptsShortestPathRouting) {
  const DiGraph g = topo::abilene();
  util::Rng rng(1);
  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  std::string error;
  EXPECT_TRUE(validate(g, shortest_path_routing(g), dm, &error)) << error;
}

TEST(Validate, RejectsLeakyRouting) {
  const DiGraph g = diamond();
  DemandMatrix dm(4);
  dm.set(0, 3, 1.0);
  Routing r(4, 4);
  r.set_ratio(3, 0, 0.5);  // only half the traffic leaves vertex 0
  r.set_ratio(3, 1, 1.0);
  std::string error;
  EXPECT_FALSE(validate(g, r, dm, &error));
  EXPECT_NE(error.find("sum"), std::string::npos);
}

TEST(Validate, RejectsForwardingOutOfDestination) {
  DiGraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(1, 0, 1.0);
  DemandMatrix dm(3);
  dm.set(0, 1, 1.0);
  Routing r(3, 3);
  r.set_ratio(1, 0, 1.0);
  r.set_ratio(1, 2, 1.0);  // destination 1 forwards back to 0
  EXPECT_FALSE(validate(g, r, dm, nullptr));
}

// ---------------- simulate ----------------

TEST(Simulate, SingleFlowSinglePath) {
  const DiGraph g = diamond();
  DemandMatrix dm(4);
  dm.set(0, 3, 5.0);
  Routing r(4, 4);
  r.set_ratio(3, 0, 1.0);
  r.set_ratio(3, 1, 1.0);
  const auto sim = simulate(g, r, dm);
  EXPECT_NEAR(sim.u_max, 0.5, 1e-12);
  EXPECT_NEAR(sim.delivered, 5.0, 1e-12);
  EXPECT_NEAR(sim.link_load[0], 5.0, 1e-12);
  EXPECT_NEAR(sim.link_load[2], 0.0, 1e-12);
}

TEST(Simulate, SplitFlowHalvesUtilisation) {
  const DiGraph g = diamond();
  DemandMatrix dm(4);
  dm.set(0, 3, 8.0);
  Routing r(4, 4);
  r.set_ratio(3, 0, 0.5);
  r.set_ratio(3, 2, 0.5);
  r.set_ratio(3, 1, 1.0);
  r.set_ratio(3, 3, 1.0);
  const auto sim = simulate(g, r, dm);
  EXPECT_NEAR(sim.u_max, 0.4, 1e-12);
}

TEST(Simulate, MultiHopCascade) {
  // Chain 0 -> 1 -> 2 with two flows: (0,2) and (1,2).
  DiGraph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 10.0);
  DemandMatrix dm(3);
  dm.set(0, 2, 4.0);
  dm.set(1, 2, 3.0);
  Routing r(3, 2);  // both flows share destination 2's row
  r.set_ratio(2, 0, 1.0);
  r.set_ratio(2, 1, 1.0);
  const auto sim = simulate(g, r, dm);
  EXPECT_NEAR(sim.link_load[1], 7.0, 1e-12);
  EXPECT_NEAR(sim.u_max, 0.7, 1e-12);
}

TEST(Simulate, LoopRaises) {
  DiGraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 1.0);
  g.add_edge(1, 2, 1.0);
  DemandMatrix dm(3);
  dm.set(0, 2, 1.0);
  Routing r(3, 3);
  r.set_ratio(2, 0, 1.0);
  r.set_ratio(2, 1, 0.5);
  r.set_ratio(2, 2, 0.5);
  EXPECT_THROW(simulate(g, r, dm), std::runtime_error);
}

TEST(Simulate, LostTrafficRaisesInStrictMode) {
  const DiGraph g = diamond();
  DemandMatrix dm(4);
  dm.set(0, 3, 2.0);
  Routing r(4, 4);
  r.set_ratio(3, 0, 1.0);  // traffic reaches vertex 1 and stops
  EXPECT_THROW(simulate(g, r, dm), std::runtime_error);
  SimulateOptions lax;
  lax.strict = false;
  const auto sim = simulate(g, r, dm, lax);
  EXPECT_NEAR(sim.delivered, 0.0, 1e-12);
}

TEST(Simulate, ZeroDemandZeroLoad) {
  const DiGraph g = diamond();
  const auto sim = simulate(g, Routing(4, 4), DemandMatrix(4));
  EXPECT_EQ(sim.u_max, 0.0);
  EXPECT_EQ(sim.delivered, 0.0);
}

// ---------------- prune_dag (all modes, property suite) ----------------

struct PruneCase {
  std::string topology;
  PruneMode mode;
  int seed;
};

class PruneProperty : public ::testing::TestWithParam<PruneCase> {};

TEST_P(PruneProperty, DagInvariants) {
  const auto& param = GetParam();
  const DiGraph g = topo::by_name(param.topology);
  util::Rng rng(static_cast<std::uint64_t>(param.seed));
  std::vector<double> weights(static_cast<size_t>(g.num_edges()));
  for (auto& w : weights) w = rng.uniform(0.1, 10.0);

  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t) continue;
      const auto mask = prune_dag(g, s, t, weights, param.mode);
      // (1) acyclic
      EXPECT_FALSE(graph::has_cycle(g, mask))
          << param.topology << " flow " << s << "->" << t;
      // (2) t reachable from s within the mask
      bool s_has_out = false;
      for (EdgeId e : g.out_edges(s)) {
        if (mask[static_cast<size_t>(e)]) s_has_out = true;
      }
      EXPECT_TRUE(s_has_out) << "source has no outgoing edge in DAG";
      // (3) every kept edge lies on an s->t path: heads can reach t.
      std::vector<bool> check = mask;
      restrict_to_st_paths(g, s, t, check);
      EXPECT_EQ(check, mask) << "mask contains edges off all s->t paths";
    }
  }
}

std::vector<PruneCase> prune_cases() {
  std::vector<PruneCase> cases;
  for (const auto& topology : {"Abilene", "Nsfnet", "SmallRing"}) {
    for (const PruneMode mode :
         {PruneMode::kFrontierMeet, PruneMode::kDistanceToSink,
          PruneMode::kDistanceFromSource}) {
      for (int seed = 0; seed < 3; ++seed) {
        cases.push_back({topology, mode, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Modes, PruneProperty,
                         ::testing::ValuesIn(prune_cases()));

TEST(PruneDag, KeepsMultipathOnDiamond) {
  const DiGraph g = diamond();
  const std::vector<double> w(4, 1.0);
  const auto mask = prune_dag(g, 0, 3, w, PruneMode::kDistanceToSink);
  EXPECT_TRUE(mask[0]);
  EXPECT_TRUE(mask[1]);
  EXPECT_TRUE(mask[2]);
  EXPECT_TRUE(mask[3]);
}

TEST(PruneDag, DownhillModeRetainsMoreThanShortestPath) {
  // Abilene with unit weights: count kept edges vs shortest-path edges for
  // a long flow; the downhill DAG keeps every progress-making edge.
  const DiGraph g = topo::abilene();
  const auto w = graph::unit_weights(g);
  const auto mask = prune_dag(g, 0, 10, w, PruneMode::kDistanceToSink);
  int kept = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (mask[static_cast<size_t>(e)]) ++kept;
  }
  const auto sp = graph::dijkstra(g, 0, w);
  const auto path = graph::extract_path(g, sp, 0, 10);
  EXPECT_GT(kept, static_cast<int>(path.size()) - 1);
}

TEST(PruneDag, FrontierMeetRetainsAtLeastShortestPath) {
  // With distinct random weights (no distance ties) grafting can engage;
  // the mask must always contain at least the full shortest path.
  const DiGraph g = topo::abilene();
  util::Rng rng(123);
  std::vector<double> w(static_cast<size_t>(g.num_edges()));
  for (auto& x : w) x = rng.uniform(0.5, 5.0);
  const auto mask = prune_dag(g, 0, 10, w, PruneMode::kFrontierMeet);
  const auto sp = graph::dijkstra(g, 0, w);
  const auto path = graph::extract_path(g, sp, 0, 10);
  ASSERT_GE(path.size(), 2U);
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const auto e = g.find_edge(path[i], path[i + 1]);
    ASSERT_TRUE(e.has_value());
    EXPECT_TRUE(mask[static_cast<size_t>(*e)])
        << "shortest-path edge " << path[i] << "->" << path[i + 1]
        << " missing from frontier-meet DAG";
  }
}

TEST(PruneDag, BadEndpointsThrow) {
  const DiGraph g = diamond();
  const std::vector<double> w(4, 1.0);
  EXPECT_THROW(prune_dag(g, 0, 0, w, PruneMode::kDistanceToSink),
               std::invalid_argument);
  EXPECT_THROW(prune_dag(g, 0, 9, w, PruneMode::kDistanceToSink),
               std::invalid_argument);
}

TEST(PruneDag, NonPositiveWeightsThrow) {
  const DiGraph g = diamond();
  EXPECT_THROW(prune_dag(g, 0, 3, {1.0, 0.0, 1.0, 1.0},
                         PruneMode::kDistanceToSink),
               std::invalid_argument);
}

TEST(PruneDag, UnreachableSinkThrows) {
  DiGraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 1, 1.0);
  EXPECT_THROW(
      prune_dag(g, 0, 2, {1.0, 1.0}, PruneMode::kFrontierMeet),
      std::runtime_error);
}

// ---------------- softmin_routing ----------------

class SoftminRoutingProperty : public ::testing::TestWithParam<int> {};

TEST_P(SoftminRoutingProperty, ValidLoopFreeAndConserving) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const DiGraph g = topo::by_name(GetParam() % 2 == 0 ? "Abilene"
                                                      : "SmallRing");
  std::vector<double> weights(static_cast<size_t>(g.num_edges()));
  for (auto& w : weights) w = rng.uniform(0.1, 10.0);
  SoftminOptions options;
  options.gamma = rng.uniform(0.5, 10.0);
  const Routing r = softmin_routing(g, weights, options);

  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  std::string error;
  EXPECT_TRUE(validate(g, r, dm, &error)) << error;
  // simulate() is strict: it will throw on loops or lost traffic.
  const auto sim = simulate(g, r, dm);
  EXPECT_GT(sim.u_max, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftminRoutingProperty,
                         ::testing::Range(0, 10));

TEST(SoftminRouting, HighGammaApproachesShortestPath) {
  // With distinct (tie-free) weights and gamma -> inf, softmin sends all
  // traffic down the weighted shortest paths, matching shortest-path
  // routing computed under the same weights.
  const DiGraph g = topo::abilene();
  util::Rng wrng(42);
  std::vector<double> weights(static_cast<size_t>(g.num_edges()));
  for (auto& w : weights) w = wrng.uniform(0.5, 5.0);
  SoftminOptions sharp;
  sharp.gamma = 60.0;
  const Routing soft = softmin_routing(g, weights, sharp);
  const Routing sp = shortest_path_routing(g, weights);
  util::Rng rng(5);
  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  const double u_soft = simulate(g, soft, dm).u_max;
  const double u_sp = simulate(g, sp, dm).u_max;
  EXPECT_NEAR(u_soft, u_sp, u_sp * 0.02);
}

TEST(SoftminRouting, LowGammaSpreadsTraffic) {
  const DiGraph g = diamond();
  const std::vector<double> weights{1.0, 1.0, 1.0, 1.0};
  SoftminOptions flat;
  flat.gamma = 0.5;
  const Routing r = softmin_routing(g, weights, flat);
  // Both branches of the diamond carry traffic.
  EXPECT_GT(r.ratio(3, 0), 0.1);
  EXPECT_GT(r.ratio(3, 2), 0.1);
}

TEST(SoftminRouting, WeightSizeMismatchThrows) {
  const DiGraph g = diamond();
  EXPECT_THROW(softmin_routing(g, {1.0, 2.0}), std::invalid_argument);
}

TEST(SoftminRouting, BetterWeightsReduceCongestion) {
  // A bottleneck scenario: pushing weight onto the bottleneck edge should
  // divert traffic and lower U_max versus all-equal weights.
  DiGraph g(4);
  g.add_edge(0, 1, 2.0);   // e0: bottleneck branch
  g.add_edge(1, 3, 2.0);   // e1
  g.add_edge(0, 2, 20.0);  // e2: wide branch
  g.add_edge(2, 3, 20.0);  // e3
  DemandMatrix dm(4);
  dm.set(0, 3, 10.0);
  SoftminOptions options;
  options.gamma = 3.0;
  const Routing equal = softmin_routing(g, {1.0, 1.0, 1.0, 1.0}, options);
  const Routing tuned = softmin_routing(g, {5.0, 5.0, 0.5, 0.5}, options);
  EXPECT_LT(simulate(g, tuned, dm).u_max, simulate(g, equal, dm).u_max);
}

// ---------------- per-destination softmin (paper §V-C intermediate) ----

TEST(PerDestinationSoftmin, EqualRowsMatchSingleVector) {
  const DiGraph g = topo::abilene();
  util::Rng rng(21);
  std::vector<double> w(static_cast<size_t>(g.num_edges()));
  for (auto& x : w) x = rng.uniform(0.5, 3.0);
  const std::vector<std::vector<double>> rows(
      static_cast<size_t>(g.num_nodes()), w);
  const Routing combined = softmin_routing_per_destination(
      g, rows, SoftminOptions{});
  const Routing single = softmin_routing(g, w);
  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  EXPECT_NEAR(simulate(g, combined, dm).u_max,
              simulate(g, single, dm).u_max, 1e-9);
}

TEST(PerDestinationSoftmin, DistinctRowsAreMoreExpressive) {
  // Two destinations with opposite branch preferences on the diamond: a
  // single weight vector cannot route dest 3 via one branch and dest 0
  // via the other, but per-destination weights can.
  const DiGraph g = diamond();
  DiGraph bidir(4);
  for (const auto& e : g.edges()) bidir.add_edge(e.src, e.dst, e.capacity);
  bidir.add_edge(3, 1, 10.0);
  bidir.add_edge(1, 0, 10.0);
  bidir.add_edge(3, 2, 10.0);
  bidir.add_edge(2, 0, 10.0);
  std::vector<std::vector<double>> rows(4);
  std::vector<double> prefer_upper(static_cast<size_t>(bidir.num_edges()),
                                   1.0);
  prefer_upper[2] = 3.0;  // penalise 0->2
  std::vector<double> prefer_lower(static_cast<size_t>(bidir.num_edges()),
                                   1.0);
  prefer_lower[0] = 3.0;  // penalise 0->1
  rows[3] = prefer_upper;
  rows[0] = prefer_lower;
  SoftminOptions sharp;
  sharp.gamma = 10.0;
  const Routing r = softmin_routing_per_destination(bidir, rows, sharp);
  // Flow (0,3) prefers via 1; if weights were shared, both destinations
  // would be forced through the same branch preference.
  EXPECT_GT(r.ratio(3, 0), 0.9);  // edge 0->1 dominates toward dest 3
  DemandMatrix dm(4);
  dm.set(0, 3, 1.0);
  dm.set(3, 0, 1.0);
  std::string error;
  EXPECT_TRUE(validate(bidir, r, dm, &error)) << error;
  const auto sim = simulate(bidir, r, dm);
  EXPECT_NEAR(sim.delivered, 2.0, 1e-9);
}

TEST(PerDestinationSoftmin, EmptyRowsFallBackToUnitWeights) {
  const DiGraph g = topo::by_name("SmallRing");
  const std::vector<std::vector<double>> rows(
      static_cast<size_t>(g.num_nodes()));
  const Routing fallback = softmin_routing_per_destination(
      g, rows, SoftminOptions{});
  const Routing unit = softmin_routing(
      g, std::vector<double>(static_cast<size_t>(g.num_edges()), 1.0));
  util::Rng rng(22);
  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  EXPECT_NEAR(simulate(g, fallback, dm).u_max,
              simulate(g, unit, dm).u_max, 1e-9);
}

TEST(PerDestinationSoftmin, BadShapesThrow) {
  const DiGraph g = diamond();
  EXPECT_THROW(softmin_routing_per_destination(g, {}, SoftminOptions{}),
               std::invalid_argument);
  std::vector<std::vector<double>> rows(4);
  rows[0] = {1.0, 2.0};  // wrong width
  EXPECT_THROW(softmin_routing_per_destination(g, rows, SoftminOptions{}),
               std::invalid_argument);
}

// ---------------- baselines ----------------

TEST(ShortestPath, RoutesAlongFewestHops) {
  const DiGraph g = diamond();
  const Routing r = shortest_path_routing(g);
  DemandMatrix dm(4);
  dm.set(0, 3, 1.0);
  const auto sim = simulate(g, r, dm);
  EXPECT_NEAR(sim.delivered, 1.0, 1e-12);
  // All traffic on exactly one branch.
  EXPECT_NEAR(sim.link_load[0] + sim.link_load[2], 1.0, 1e-12);
  EXPECT_TRUE(sim.link_load[0] == 0.0 || sim.link_load[2] == 0.0);
}

TEST(Ecmp, SplitsOverEqualCostPaths) {
  const DiGraph g = diamond();
  const Routing r = ecmp_routing(g, graph::unit_weights(g));
  DemandMatrix dm(4);
  dm.set(0, 3, 8.0);
  const auto sim = simulate(g, r, dm);
  EXPECT_NEAR(sim.link_load[0], 4.0, 1e-9);
  EXPECT_NEAR(sim.link_load[2], 4.0, 1e-9);
}

TEST(Ecmp, NeverWorseThanSingleShortestPathOnDiamond) {
  const DiGraph g = diamond();
  DemandMatrix dm(4);
  dm.set(0, 3, 8.0);
  const double u_sp = simulate(g, shortest_path_routing(g), dm).u_max;
  const double u_ecmp =
      simulate(g, ecmp_routing(g, graph::unit_weights(g)), dm).u_max;
  EXPECT_LE(u_ecmp, u_sp + 1e-12);
}

TEST(UniformMultipath, DeliversAllTraffic) {
  const DiGraph g = topo::abilene();
  const reference::PairRouting r =
      reference::uniform_multipath_routing(g, graph::unit_weights(g), 3);
  util::Rng rng(8);
  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  const auto sim = reference::simulate(g, r, dm);
  EXPECT_NEAR(sim.delivered, dm.total(), dm.total() * 1e-6);
}

TEST(UniformMultipath, KOneEqualsShortestPath) {
  const DiGraph g = topo::abilene();
  const auto w = graph::unit_weights(g);
  util::Rng rng(9);
  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  const double u1 = reference::simulate(
                        g, reference::uniform_multipath_routing(g, w, 1), dm)
                        .u_max;
  const double usp = simulate(g, shortest_path_routing(g, w), dm).u_max;
  EXPECT_NEAR(u1, usp, 1e-9);
}

// ---------------- cycle cancellation & LP-derived routing ----------------

TEST(CancelFlowCycles, RemovesPureCirculation) {
  DiGraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 0, 1.0);
  const auto out = cancel_flow_cycles(g, {2.0, 2.0, 2.0});
  for (double f : out) EXPECT_NEAR(f, 0.0, 1e-12);
}

TEST(CancelFlowCycles, PreservesAcyclicFlow) {
  const DiGraph g = diamond();
  const std::vector<double> flow{3.0, 3.0, 2.0, 2.0};
  EXPECT_EQ(cancel_flow_cycles(g, flow), flow);
}

TEST(CancelFlowCycles, RemovesCycleKeepsNetFlow) {
  DiGraph g(3);
  g.add_edge(0, 1, 1.0);  // e0 carries 5
  g.add_edge(1, 2, 1.0);  // e1 carries 5 + 2 (cycle)
  g.add_edge(2, 1, 1.0);  // e2 carries 2 (cycle)
  const auto out = cancel_flow_cycles(g, {5.0, 7.0, 2.0});
  EXPECT_NEAR(out[0], 5.0, 1e-12);
  EXPECT_NEAR(out[1], 5.0, 1e-12);
  EXPECT_NEAR(out[2], 0.0, 1e-12);
}

// Simulating the routing derived from the optimal LP flows must reproduce
// the LP's U_max — this closes the loop between solver and simulator.
class OptimalRoutingRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(OptimalRoutingRoundTrip, SimulationMatchesLpOptimum) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  const DiGraph g = GetParam() % 2 == 0 ? topo::abilene() : topo::nsfnet();
  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  const mcf::OptimalResult opt = mcf::solve_optimal(g, dm);
  ASSERT_TRUE(opt.feasible);
  const Routing r = routing_from_dest_flows(g, opt.flow_by_dest);
  const auto sim = simulate(g, r, dm);
  // Cycle cancellation can only lower loads, so u_max <= LP's within tol.
  EXPECT_LE(sim.u_max, opt.u_max * (1.0 + 1e-5));
  EXPECT_NEAR(sim.u_max, opt.u_max, opt.u_max * 1e-3);
  EXPECT_NEAR(sim.delivered, dm.total(), dm.total() * 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalRoutingRoundTrip,
                         ::testing::Range(0, 8));

// Ordering property across schemes: optimal <= tuned schemes <= arbitrary.
TEST(SchemeOrdering, OptimalIsLowerBound) {
  const DiGraph g = topo::abilene();
  util::Rng rng(77);
  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  const double u_opt = mcf::solve_optimal(g, dm).u_max;
  for (double gamma : {0.5, 2.0, 8.0}) {
    SoftminOptions options;
    options.gamma = gamma;
    std::vector<double> weights(static_cast<size_t>(g.num_edges()), 1.0);
    const double u =
        simulate(g, softmin_routing(g, weights, options), dm).u_max;
    EXPECT_GE(u, u_opt * (1.0 - 1e-9)) << "gamma " << gamma;
  }
  const double u_sp = simulate(g, shortest_path_routing(g), dm).u_max;
  EXPECT_GE(u_sp, u_opt * (1.0 - 1e-9));
}

// ---------------- disconnected graphs: production vs per-pair reference ----
//
// Regression tests for the prune-mode inconsistency: the downhill
// translation used to write splitting ratios for sources that cannot reach
// t, while the per-pair reference skips unreachable pairs — so the two
// disagreed on any disconnected graph.  In the destination-based table a
// source that cannot reach t must simply forward nothing toward t.

// Two 2-node strongly-connected components plus an isolated vertex.  In a
// 2-node component every vertex reaching t lies on the (single) s->t
// downhill path, so row t must equal flow (s,t)'s reference ratios on
// every edge for every connected pair; larger components legitimately
// differ at vertices that carry no (s,t) traffic, which is why exact
// comparison uses this shape and the richer topology below compares
// simulated behaviour.
DiGraph two_islands() {
  DiGraph g(5);
  g.add_edge(0, 1, 10.0);  // e0, island A
  g.add_edge(1, 0, 10.0);  // e1
  g.add_edge(2, 3, 10.0);  // e2, island B
  g.add_edge(3, 2, 10.0);  // e3
  return g;                // node 4 is isolated
}

// Sum of row t's ratios over v's out-edges.
double out_ratio_sum(const DiGraph& g, const Routing& r, int t, NodeId v) {
  double sum = 0.0;
  for (EdgeId e : g.out_edges(v)) sum += r.ratio(t, e);
  return sum;
}

TEST(SoftminRouting, FastPathMatchesGenericOnDisconnectedGraph) {
  const DiGraph g = two_islands();
  const std::vector<double> w{1.0, 2.5, 0.7, 1.3};
  const Routing fast = softmin_routing(g, w, SoftminOptions{});
  const reference::PairRouting ref = reference::softmin_routing_generic(
      g, w, SoftminOptions{}, PruneMode::kDistanceToSink);
  const std::vector<std::pair<NodeId, NodeId>> connected{
      {0, 1}, {1, 0}, {2, 3}, {3, 2}};
  for (const auto& [s, t] : connected) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_NEAR(fast.ratio(t, e), ref.ratio(s, t, e), 1e-12)
          << "flow (" << s << "," << t << ") edge " << e;
    }
  }
  // Every other pair is severed: the reference writes nothing for it, and
  // the source forwards nothing toward t in the production row.
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t || std::ranges::count(connected, std::pair{s, t}) > 0) {
        continue;
      }
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        EXPECT_EQ(ref.ratio(s, t, e), 0.0)
            << "flow (" << s << "," << t << ") edge " << e;
      }
      EXPECT_EQ(out_ratio_sum(g, fast, t, s), 0.0)
          << "flow (" << s << "," << t << ")";
    }
  }
}

TEST(SoftminRouting, FastPathWritesNothingForUnreachablePairs) {
  const DiGraph g = two_islands();
  const std::vector<double> w{1.0, 1.0, 1.0, 1.0};
  const Routing r = softmin_routing(g, w, SoftminOptions{});
  // Cross-island and isolated-vertex flows can carry no traffic: their
  // sources forward nothing toward the destination.
  const std::vector<std::pair<NodeId, NodeId>> unreachable{
      {0, 2}, {0, 3}, {2, 0}, {3, 1}, {0, 4}, {4, 0}, {4, 2}, {2, 4}};
  for (const auto& [s, t] : unreachable) {
    for (EdgeId e : g.out_edges(s)) {
      EXPECT_EQ(r.ratio(t, e), 0.0)
          << "flow (" << s << "," << t << ") edge " << e;
    }
  }
  // Nothing can reach the isolated vertex: its row is untouched.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(r.ratio(4, e), 0.0) << "edge " << e;
  }
  // Within-island flows still route normally.
  EXPECT_NEAR(r.ratio(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(r.ratio(3, 2), 1.0, 1e-12);
}

TEST(SoftminRouting, FastAndGenericSimulateIdenticallyOnDisconnectedDiamonds) {
  // Two disjoint diamonds: richer multipath structure where exact
  // edge-for-edge equality is not guaranteed by design, but the traffic
  // both routings carry must be identical.
  DiGraph g(8);
  const auto add_diamond = [&](NodeId base) {
    g.add_edge(base + 0, base + 1, 10.0);
    g.add_edge(base + 1, base + 3, 10.0);
    g.add_edge(base + 0, base + 2, 10.0);
    g.add_edge(base + 2, base + 3, 10.0);
    g.add_edge(base + 3, base + 0, 10.0);  // return edge: strongly connected
  };
  add_diamond(0);
  add_diamond(4);
  const std::vector<double> w{1.0, 1.0, 1.2, 0.8, 2.0,
                              0.9, 1.1, 1.0, 1.0, 2.0};
  const Routing fast = softmin_routing(g, w, SoftminOptions{});
  const reference::PairRouting ref = reference::softmin_routing_generic(
      g, w, SoftminOptions{}, PruneMode::kDistanceToSink);

  DemandMatrix dm(8);
  dm.set(0, 3, 4.0);
  dm.set(1, 2, 1.5);
  dm.set(4, 7, 3.0);
  dm.set(6, 5, 2.0);
  const auto sim_fast = simulate(g, fast, dm);
  const auto sim_ref = reference::simulate(g, ref, dm);
  EXPECT_NEAR(sim_fast.u_max, sim_ref.u_max, 1e-12);
  ASSERT_EQ(sim_fast.link_load.size(), sim_ref.link_load.size());
  for (std::size_t e = 0; e < sim_fast.link_load.size(); ++e) {
    EXPECT_NEAR(sim_fast.link_load[e], sim_ref.link_load[e], 1e-12)
        << "edge " << e;
  }
}

// ---------------- degraded (disconnected) topologies ----------------
//
// Serving keeps translating routings while links and nodes fail, so the
// softmin translation must stay well-formed on graphs where some pairs
// have become unreachable: survivors keep row-stochastic splits, severed
// sources forward nothing instead of garbage.

TEST(DegradedTopology, EdgeRemovalZeroesSeveredPairsOnly) {
  // Line 0 -> 1 -> 2 plus a detour 0 -> 2: removing edge 1->2 severs only
  // (1, 2); (0, 2) survives through the detour.
  DiGraph g(3);
  g.add_edge(0, 1, 10.0);                      // e0
  const EdgeId cut = g.add_edge(1, 2, 10.0);   // e1
  g.add_edge(0, 2, 10.0);                      // e2
  const DiGraph degraded = g.without_edge(cut);

  const std::vector<double> w(static_cast<std::size_t>(degraded.num_edges()),
                              1.0);
  const Routing r = softmin_routing(degraded, w);

  // Survivor (0, 2): row-stochastic at the source.
  EXPECT_NEAR(out_ratio_sum(degraded, r, 2, 0), 1.0, 1e-12);
  // Severed (1, 2): the source forwards nothing toward 2, so a demand on
  // it is lost, which strict simulation reports.
  EXPECT_EQ(out_ratio_sum(degraded, r, 2, 1), 0.0);
  DemandMatrix severed(3);
  severed.set(1, 2, 1.0);
  EXPECT_THROW(simulate(degraded, r, severed), std::runtime_error);
  // The severed pair must not break simulation of the survivors.
  DemandMatrix dm(3);
  dm.set(0, 2, 5.0);
  EXPECT_NO_THROW(simulate(degraded, r, dm));
}

TEST(DegradedTopology, SoftminOnPartitionedAbileneStaysRowStochastic) {
  // Isolating node 0's out-edges partitions "from 0" traffic away while
  // every other pair keeps a path.
  const DiGraph g = topo::abilene();
  std::vector<bool> remove(static_cast<std::size_t>(g.num_edges()), false);
  for (EdgeId e : g.out_edges(0)) remove[static_cast<std::size_t>(e)] = true;
  const DiGraph degraded = g.without_edges(remove);

  const std::vector<double> w(static_cast<std::size_t>(degraded.num_edges()),
                              1.0);
  const Routing r = softmin_routing(degraded, w);
  const int n = degraded.num_nodes();

  for (int t = 1; t < n; ++t) {
    // Unreachable from 0: 0 forwards nothing toward t.
    EXPECT_EQ(out_ratio_sum(degraded, r, t, 0), 0.0);
    // Still reachable towards 0: the source row sums to one.
    EXPECT_NEAR(out_ratio_sum(degraded, r, 0, t), 1.0, 1e-12);
  }
}

TEST(DegradedTopology, NodeRemovalRenumbersAndStillRoutes) {
  const DiGraph g = topo::abilene();
  const DiGraph degraded = g.without_node(3);
  ASSERT_EQ(degraded.num_nodes(), g.num_nodes() - 1);

  const std::vector<double> w(static_cast<std::size_t>(degraded.num_edges()),
                              1.0);
  const Routing r = softmin_routing(degraded, w);
  const int n = degraded.num_nodes();

  // Abilene minus one PoP stays connected; every pair must still carry a
  // row-stochastic split and simulate cleanly under a full mesh.
  DemandMatrix dm(n);
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < n; ++t) {
      if (s == t) continue;
      EXPECT_NEAR(out_ratio_sum(degraded, r, t, s), 1.0, 1e-12)
          << "pair (" << s << "," << t << ")";
      dm.set(s, t, 1.0);
    }
  }
  const auto sim = simulate(degraded, r, dm);
  EXPECT_GT(sim.u_max, 0.0);
}

TEST(DegradedTopology, GenericTranslationSkipsUnreachablePairs) {
  // The per-pair reference must handle unreachable pairs the same way as
  // the destination-based translation: skip, not throw.
  DiGraph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 10.0);  // nothing re-enters 0, so (1,0), (2,0) severed
  const std::vector<double> w{1.0, 1.0};
  const reference::PairRouting r = reference::softmin_routing_generic(
      g, w, SoftminOptions{}, PruneMode::kFrontierMeet);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(r.ratio(1, 0, e), 0.0);
    EXPECT_EQ(r.ratio(2, 0, e), 0.0);
  }
  double sum = 0.0;
  for (EdgeId e : g.out_edges(0)) sum += r.ratio(0, 2, e);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

// ---------------- serving-side validation ----------------

TEST(ValidateForServing, AcceptsValidAndRejectsNaN) {
  DiGraph g(3);
  g.add_edge(0, 1, 10.0);  // e0
  g.add_edge(1, 2, 10.0);  // e1
  const std::vector<double> w{1.0, 1.0};
  Routing r = softmin_routing(g, w);
  DemandMatrix dm(3);
  dm.set(0, 2, 1.0);

  std::string error;
  EXPECT_TRUE(validate_for_serving(g, r, dm, &error)) << error;

  // A NaN splitting ratio slips through simulate()'s conservation check
  // (NaN comparisons are false); validate_for_serving must catch it.
  r.set_ratio(2, 0, std::nan(""));
  EXPECT_FALSE(validate_for_serving(g, r, dm, &error));
  EXPECT_NE(error.find("ratio"), std::string::npos) << error;
}

TEST(ValidateForServing, RejectsForwardingOutOfDestination) {
  DiGraph g(3);
  g.add_edge(0, 1, 10.0);                     // e0
  g.add_edge(1, 2, 10.0);                     // e1
  const EdgeId out = g.add_edge(1, 0, 10.0);  // e2: out of destination 1
  const std::vector<double> w{1.0, 1.0, 1.0};
  Routing r = softmin_routing(g, w);
  DemandMatrix dm(3);
  dm.set(0, 1, 1.0);

  std::string error;
  ASSERT_TRUE(validate_for_serving(g, r, dm, &error)) << error;
  r.set_ratio(1, out, 0.5);  // destination must absorb, not forward
  EXPECT_FALSE(validate_for_serving(g, r, dm, &error));
  EXPECT_NE(error.find("destination"), std::string::npos) << error;
}

TEST(ValidateForServing, IgnoresZeroDemandFlows) {
  DiGraph g(2);
  g.add_edge(0, 1, 10.0);
  Routing r(2, 1);
  r.set_ratio(1, 0, 0.25);  // not row-stochastic, but the flow is idle
  DemandMatrix dm(2);       // all-zero demand
  EXPECT_TRUE(validate_for_serving(g, r, dm, nullptr));
}

// ---------------- inverse-capacity weights ----------------

TEST(InverseCapacityWeights, FavourFatLinks) {
  DiGraph g(2);
  const EdgeId thin = g.add_edge(0, 1, 10.0);
  const EdgeId fat = g.add_edge(0, 1, 40.0);
  const auto w = inverse_capacity_weights(g);
  ASSERT_EQ(w.size(), 2U);
  EXPECT_DOUBLE_EQ(w[static_cast<std::size_t>(thin)], 0.1);
  EXPECT_DOUBLE_EQ(w[static_cast<std::size_t>(fat)], 0.025);

  // Through softmin the fat parallel link takes the larger share.
  const Routing r = softmin_routing(g, w);
  EXPECT_GT(r.ratio(1, fat), r.ratio(1, thin));
  EXPECT_NEAR(r.ratio(1, fat) + r.ratio(1, thin), 1.0, 1e-12);
}

}  // namespace
}  // namespace gddr::routing
