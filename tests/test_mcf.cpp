#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "mcf/cache.hpp"
#include "mcf/fptas.hpp"
#include "mcf/mcf_invariants.hpp"
#include "mcf/optimal.hpp"
#include "obs/metrics.hpp"
#include "topo/generators.hpp"
#include "topo/zoo.hpp"
#include "traffic/generators.hpp"

namespace gddr::mcf {
namespace {

using graph::DiGraph;
using traffic::DemandMatrix;

DiGraph two_parallel_paths() {
  // 0 -> 1 directly (capacity 10) and via 2 (capacity 10 each hop).
  DiGraph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(0, 2, 10.0);
  g.add_edge(2, 1, 10.0);
  return g;
}

TEST(Optimal, SingleEdgeUtilisation) {
  DiGraph g(2);
  g.add_edge(0, 1, 10.0);
  DemandMatrix dm(2);
  dm.set(0, 1, 5.0);
  const OptimalResult r = solve_optimal(g, dm);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.u_max, 0.5, 1e-7);
}

TEST(Optimal, SplitsAcrossParallelPaths) {
  // 16 units from 0 to 1; splitting 8/8 gives U = 0.8, all on one path
  // would give 1.6.  The LP must split.
  const DiGraph g = two_parallel_paths();
  DemandMatrix dm(3);
  dm.set(0, 1, 16.0);
  const OptimalResult r = solve_optimal(g, dm);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.u_max, 0.8, 1e-7);
}

TEST(Optimal, OverloadedNetworkExceedsOne) {
  DiGraph g(2);
  g.add_edge(0, 1, 10.0);
  DemandMatrix dm(2);
  dm.set(0, 1, 25.0);
  const OptimalResult r = solve_optimal(g, dm);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.u_max, 2.5, 1e-7);
}

TEST(Optimal, ZeroDemandZeroUtilisation) {
  const DiGraph g = two_parallel_paths();
  const OptimalResult r = solve_optimal(g, DemandMatrix(3));
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.u_max, 0.0);
}

TEST(Optimal, FlowConservationHolds) {
  const DiGraph g = topo::abilene();
  util::Rng rng(3);
  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  const OptimalResult r = solve_optimal(g, dm);
  ASSERT_TRUE(r.feasible);
  // For each destination t and node v != t: net outflow == demand v->t.
  for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
    const auto& flow = r.flow_by_dest[static_cast<size_t>(t)];
    if (flow.empty()) continue;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == t) continue;
      double net = 0.0;
      for (graph::EdgeId e : g.out_edges(v)) {
        net += flow[static_cast<size_t>(e)];
      }
      for (graph::EdgeId e : g.in_edges(v)) {
        net -= flow[static_cast<size_t>(e)];
      }
      EXPECT_NEAR(net, dm.at(v, t), 1e-4);
    }
  }
}

TEST(Optimal, UtilisationConsistentWithFlows) {
  const DiGraph g = topo::abilene();
  util::Rng rng(4);
  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  const OptimalResult r = solve_optimal(g, dm);
  ASSERT_TRUE(r.feasible);
  const auto util = edge_utilisation(g, r);
  double max_util = 0.0;
  for (double u : util) max_util = std::max(max_util, u);
  EXPECT_NEAR(max_util, r.u_max, 1e-5);
}

TEST(Optimal, SizeMismatchThrows) {
  EXPECT_THROW(solve_optimal(two_parallel_paths(), DemandMatrix(5)),
               std::invalid_argument);
}

// The destination-aggregated LP must agree with the textbook
// per-commodity LP (paper §II-A) — the core exactness claim of the
// aggregation (DESIGN.md §4).
class AggregationEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(AggregationEquivalence, MatchesPerCommodityFormulation) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const DiGraph g = topo::erdos_renyi(6, 0.4, rng);
  traffic::BimodalParams params;
  params.pair_density = 0.5;
  const DemandMatrix dm = traffic::bimodal_matrix(6, params, rng);
  const OptimalResult agg = solve_optimal(g, dm);
  ASSERT_TRUE(agg.feasible);
  const double per_commodity = solve_optimal_per_commodity(g, dm);
  EXPECT_NEAR(agg.u_max, per_commodity, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregationEquivalence,
                         ::testing::Range(0, 10));

// Differential test: the congestion LP solved from its shortest-path-tree
// crash start against the same program solved cold (two-phase), over a
// seeded family of ER / WS / BA graphs at 5-22 nodes, capacity-skewed
// variants and graphs that are not strongly connected (whose start is
// empty, so the cold path runs), each under sparse and dense demand.
struct LpCase {
  std::string name;
  DiGraph g;
};

// Disjoint union of `a` and `b`: no node reaches the other component.
DiGraph disjoint_union(const DiGraph& a, const DiGraph& b) {
  DiGraph u(a.num_nodes() + b.num_nodes());
  for (const auto& e : a.edges()) u.add_edge(e.src, e.dst, e.capacity);
  for (const auto& e : b.edges()) {
    u.add_edge(e.src + a.num_nodes(), e.dst + a.num_nodes(), e.capacity);
  }
  return u;
}

std::vector<LpCase> lp_family() {
  util::Rng rng(4242);
  const topo::CapacityModel skewed{{10.0, 100.0, 1000.0, 10000.0}};
  std::vector<LpCase> cases;
  cases.push_back({"er5", topo::erdos_renyi(5, 0.4, rng)});
  cases.push_back({"er9", topo::erdos_renyi(9, 0.3, rng)});
  cases.push_back({"er16", topo::erdos_renyi(16, 0.2, rng)});
  cases.push_back({"ws8", topo::watts_strogatz(8, 4, 0.2, rng)});
  cases.push_back({"ws14", topo::watts_strogatz(14, 4, 0.3, rng)});
  cases.push_back({"ws18", topo::watts_strogatz(18, 4, 0.2, rng)});
  cases.push_back({"ba6", topo::barabasi_albert(6, 2, rng)});
  cases.push_back({"ba10", topo::barabasi_albert(10, 2, rng)});
  cases.push_back({"ba22", topo::barabasi_albert(22, 2, rng)});
  cases.push_back({"er10-skewed", topo::erdos_renyi(10, 0.3, rng, skewed)});
  cases.push_back({"ba18-skewed", topo::barabasi_albert(18, 2, rng, skewed)});
  cases.push_back({"split-er5-ba6",
                   disjoint_union(topo::erdos_renyi(5, 0.4, rng),
                                  topo::barabasi_albert(6, 2, rng))});
  // Dropping random directed edges leaves some pairs reachable one way
  // only.
  const DiGraph ws = topo::watts_strogatz(12, 4, 0.2, rng);
  std::vector<bool> drop(static_cast<std::size_t>(ws.num_edges()));
  for (auto&& d : drop) d = rng.uniform(0.0, 1.0) < 0.3;
  cases.push_back({"ws12-cut", ws.without_edges(drop)});
  return cases;
}

// Demand on a `density` fraction of the pairs connected by some path.
DemandMatrix reachable_demand(const DiGraph& g, double density,
                              util::Rng& rng) {
  const auto unit = graph::unit_weights(g);
  DemandMatrix dm(g.num_nodes());
  for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
    const auto to_t = graph::dijkstra_to(g, t, unit);
    for (graph::NodeId s = 0; s < g.num_nodes(); ++s) {
      if (s == t || to_t.dist[static_cast<size_t>(s)] == graph::kInfDist) {
        continue;
      }
      if (rng.uniform(0.0, 1.0) < density) {
        dm.set(s, t, rng.uniform(1.0, 1000.0));
      }
    }
  }
  return dm;
}

bool every_node_reaches(const DiGraph& g,
                        const std::vector<graph::NodeId>& dests) {
  const auto unit = graph::unit_weights(g);
  for (const graph::NodeId t : dests) {
    for (const double d : graph::dijkstra_to(g, t, unit).dist) {
      if (d == graph::kInfDist) return false;
    }
  }
  return true;
}

OptimalResult exact_result(const CongestionLp& lp, const lp::Solution& sol) {
  OptimalResult r;
  r.feasible = true;
  r.provenance = SolveProvenance::kExact;
  r.u_max = sol.x[static_cast<size_t>(lp.u_var)];
  r.flow_by_dest = lp.flows(sol);
  return r;
}

class CrashedVsCold : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    obs::Registry::instance().reset();
    obs::Registry::instance().enable();
  }
  void TearDown() override {
    obs::Registry::instance().disable();
    obs::Registry::instance().reset();
  }
};

TEST_P(CrashedVsCold, SameOptimumAndValidFlows) {
  const auto cases = lp_family();
  const LpCase& c = cases[static_cast<size_t>(GetParam())];
  const DiGraph& g = c.g;
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  for (const double density : {0.1, 1.0}) {
    const std::string label =
        c.name + " density " + std::to_string(density);
    const DemandMatrix dm = reachable_demand(g, density, rng);
    const CongestionLp lp = build_congestion_lp(g, dm);
    ASSERT_FALSE(lp.dests.empty()) << label;
    // A full start — one tree edge per conservation row plus U_max — when
    // every node reaches every destination with demand; otherwise an empty
    // one, and both solves run the cold path.
    if (every_node_reaches(g, lp.dests)) {
      EXPECT_EQ(lp.start.size(),
                lp.dests.size() * static_cast<size_t>(g.num_nodes() - 1) + 1)
          << label;
    } else {
      EXPECT_TRUE(lp.start.empty()) << label;
    }

    const lp::Solution cold = lp.program.solve({});
    const lp::Solution crashed = lp.program.solve({}, lp.start);
    ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal) << label;
    ASSERT_EQ(crashed.status, lp::SolveStatus::kOptimal) << label;
    const OptimalResult cold_result = exact_result(lp, cold);
    const OptimalResult crashed_result = exact_result(lp, crashed);
    EXPECT_LE(std::abs(crashed_result.u_max - cold_result.u_max),
              1e-9 * cold_result.u_max)
        << label << ": " << crashed_result.u_max << " vs "
        << cold_result.u_max;
    // The per-commodity LP has |V|^2 |E| variables: checked under sparse
    // demand up to 10 nodes and under dense demand up to 6.
    if (g.num_nodes() <= (density < 0.5 ? 10 : 6)) {
      const double per_commodity = solve_optimal_per_commodity(g, dm);
      EXPECT_LE(std::abs(crashed_result.u_max - per_commodity),
                1e-9 * per_commodity)
          << label << " per-commodity " << per_commodity;
    }
    for (const OptimalResult* r : {&cold_result, &crashed_result}) {
      EXPECT_NO_THROW(check_flow_conservation(g, dm, *r, 1e-6, label));
      EXPECT_NO_THROW(check_umax_consistency(g, *r, 1e-6, label));
    }
  }
  // The start is never rejected: the tree basis is feasible by
  // construction.
  EXPECT_EQ(obs::Registry::instance().counter("lp/start_rejected"), 0U)
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(Family, CrashedVsCold, ::testing::Range(0, 13));

// FPTAS cross-check: 1/max_concurrent_flow approximates the LP optimum.
class FptasAgreement : public ::testing::TestWithParam<int> {};

TEST_P(FptasAgreement, WithinGuarantee) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 77);
  const DiGraph g = topo::erdos_renyi(8, 0.35, rng);
  const DemandMatrix dm =
      traffic::bimodal_matrix(8, traffic::BimodalParams{}, rng);
  const OptimalResult lp = solve_optimal(g, dm);
  ASSERT_TRUE(lp.feasible);
  FptasOptions opt;
  opt.epsilon = 0.05;
  const double approx = approx_optimal_u_max(g, dm, opt);
  // approx is an over-estimate of U* within the (1-3eps) guarantee.
  EXPECT_GE(approx, lp.u_max * (1.0 - 1e-6));
  EXPECT_LE(approx, lp.u_max / (1.0 - 3.0 * opt.epsilon) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FptasAgreement, ::testing::Range(0, 8));

// Regression: with parallel links the FPTAS must charge the link Dijkstra
// chose, not the first link between the same two nodes.  Demand 5 over
// links of capacity 1 and 10 has optimum 5/11.
TEST(Fptas, ParallelLinksChargeTheChosenLink) {
  DiGraph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 0, 10.0);
  DemandMatrix dm(2);
  dm.set(0, 1, 5.0);
  const OptimalResult lp = solve_optimal(g, dm);
  ASSERT_TRUE(lp.feasible);
  EXPECT_NEAR(lp.u_max, 5.0 / 11.0, 1e-9);
  FptasOptions opt;
  opt.epsilon = 0.05;
  const double approx = approx_optimal_u_max(g, dm, opt);
  EXPECT_GE(approx, lp.u_max * (1.0 - 1e-9));
  EXPECT_LE(approx, lp.u_max / (1.0 - 3.0 * opt.epsilon));
}

TEST(Fptas, ZeroDemand) {
  const DiGraph g = two_parallel_paths();
  EXPECT_EQ(max_concurrent_flow(g, DemandMatrix(3)), 0.0);
  EXPECT_EQ(approx_optimal_u_max(g, DemandMatrix(3)), 0.0);
}

TEST(Fptas, BadEpsilonThrows) {
  const DiGraph g = two_parallel_paths();
  DemandMatrix dm(3);
  dm.set(0, 1, 1.0);
  FptasOptions opt;
  opt.epsilon = 0.0;
  EXPECT_THROW(max_concurrent_flow(g, dm, opt), std::invalid_argument);
  opt.epsilon = 0.7;
  EXPECT_THROW(max_concurrent_flow(g, dm, opt), std::invalid_argument);
}

TEST(Cache, HitsOnRepeatedQueries) {
  OptimalCache cache;
  const DiGraph g = topo::abilene();
  util::Rng rng(9);
  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  const double first = cache.u_max(g, dm);
  const double second = cache.u_max(g, dm);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.misses(), 1U);
  EXPECT_EQ(cache.hits(), 1U);
  EXPECT_EQ(cache.size(), 1U);
}

TEST(Cache, DistinguishesDemands) {
  OptimalCache cache;
  const DiGraph g = two_parallel_paths();
  DemandMatrix a(3);
  a.set(0, 1, 4.0);
  DemandMatrix b(3);
  b.set(0, 1, 8.0);
  EXPECT_NE(cache.u_max(g, a), cache.u_max(g, b));
  EXPECT_EQ(cache.size(), 2U);
}

TEST(Cache, DistinguishesGraphs) {
  OptimalCache cache;
  DemandMatrix dm(3);
  dm.set(0, 1, 16.0);
  const DiGraph g1 = two_parallel_paths();
  DiGraph g2 = two_parallel_paths();
  g2.add_edge(1, 0, 10.0);  // extra edge changes the fingerprint
  cache.u_max(g1, dm);
  cache.u_max(g2, dm);
  EXPECT_EQ(cache.size(), 2U);
}

TEST(Cache, ClearResets) {
  OptimalCache cache;
  DemandMatrix dm(3);
  dm.set(0, 1, 1.0);
  cache.u_max(two_parallel_paths(), dm);
  cache.clear();
  EXPECT_EQ(cache.size(), 0U);
  EXPECT_EQ(cache.hits(), 0U);
  EXPECT_EQ(cache.misses(), 0U);
}

TEST(Fingerprint, SensitiveToCapacity) {
  DiGraph a(2);
  a.add_edge(0, 1, 10.0);
  DiGraph b(2);
  b.add_edge(0, 1, 20.0);
  EXPECT_NE(graph_fingerprint(a), graph_fingerprint(b));
}

TEST(Fingerprint, SensitiveToDemandValue) {
  DemandMatrix a(2);
  a.set(0, 1, 1.0);
  DemandMatrix b(2);
  b.set(0, 1, 2.0);
  EXPECT_NE(demand_fingerprint(a), demand_fingerprint(b));
}

TEST(Fingerprint, StableAcrossCopies) {
  const DiGraph g = topo::abilene();
  const DiGraph copy = g;
  EXPECT_EQ(graph_fingerprint(g), graph_fingerprint(copy));
}

TEST(Fingerprint, EdgeRemoveThenReAddHashesDifferently) {
  // Documented guarantee (see cache.hpp): the fingerprint digests edges
  // in storage order, so removing an edge and re-adding the same
  // (src, dst, capacity) appends it at the end — a different
  // representation, hence a different hash.  operator== shares the
  // order-sensitivity, so fingerprint-equal still tracks graph-equal.
  DiGraph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 20.0);
  g.add_edge(2, 0, 30.0);
  const std::uint64_t before = graph_fingerprint(g);

  std::vector<bool> remove(static_cast<std::size_t>(g.num_edges()), false);
  remove[0] = true;  // drop 0 -> 1
  DiGraph readded = g.without_edges(remove);
  readded.add_edge(0, 1, 10.0);  // same edge, now last in storage order

  EXPECT_NE(graph_fingerprint(readded), before);
  EXPECT_FALSE(readded == g);
  // Same mutation sequence -> same representation -> same hash.
  DiGraph readded2 = g.without_edges(remove);
  readded2.add_edge(0, 1, 10.0);
  EXPECT_EQ(graph_fingerprint(readded2), graph_fingerprint(readded));
}

TEST(Fingerprint, NodeRemovalCompactionAliasesNativeGraph) {
  // Documented guarantee (see cache.hpp): without_node renumbers the
  // survivors, so the compacted graph is the *same representation* as a
  // natively built graph with those nodes/edges and must hash equal.
  // Callers tracking identity across mutations carry their own epoch.
  DiGraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 0, 3.0);
  const DiGraph compacted = g.without_node(0);

  DiGraph native(2);
  native.add_edge(0, 1, 2.0);  // old 1 -> 2, renumbered down by one
  EXPECT_EQ(graph_fingerprint(compacted), graph_fingerprint(native));
  EXPECT_NE(graph_fingerprint(compacted), graph_fingerprint(g));
}

}  // namespace
}  // namespace gddr::mcf
