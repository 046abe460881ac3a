// Cross-module property tests: invariants that tie the solvers, the
// translation and the simulator together on randomised inputs.
#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hpp"
#include "graph/algorithms.hpp"
#include "mcf/optimal.hpp"
#include "routing/prune.hpp"
#include "routing/routing.hpp"
#include "routing/softmin.hpp"
#include "topo/generators.hpp"
#include "topo/zoo.hpp"
#include "traffic/generators.hpp"

namespace gddr {
namespace {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;
using traffic::DemandMatrix;

// ---------- Dijkstra vs Bellman-Ford reference ----------

std::vector<double> bellman_ford(const DiGraph& g, NodeId src,
                                 const std::vector<double>& w) {
  std::vector<double> dist(static_cast<size_t>(g.num_nodes()),
                           graph::kInfDist);
  dist[static_cast<size_t>(src)] = 0.0;
  for (int pass = 0; pass < g.num_nodes(); ++pass) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto& ed = g.edge(e);
      const double via = dist[static_cast<size_t>(ed.src)] +
                         w[static_cast<size_t>(e)];
      if (via < dist[static_cast<size_t>(ed.dst)]) {
        dist[static_cast<size_t>(ed.dst)] = via;
      }
    }
  }
  return dist;
}

class DijkstraVsBellmanFord : public ::testing::TestWithParam<int> {};

TEST_P(DijkstraVsBellmanFord, DistancesAgree) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const DiGraph g = topo::erdos_renyi(10, 0.3, rng);
  std::vector<double> w(static_cast<size_t>(g.num_edges()));
  for (auto& x : w) x = rng.uniform(0.1, 5.0);
  for (NodeId s = 0; s < g.num_nodes(); s += 3) {
    const auto sp = graph::dijkstra(g, s, w);
    const auto ref = bellman_ford(g, s, w);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_NEAR(sp.dist[static_cast<size_t>(v)],
                  ref[static_cast<size_t>(v)], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraVsBellmanFord,
                         ::testing::Range(0, 6));

// ---------- MCF optimum: scaling and monotonicity ----------

class McfScaling : public ::testing::TestWithParam<int> {};

TEST_P(McfScaling, UMaxScalesLinearlyWithDemand) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 40);
  const DiGraph g = topo::erdos_renyi(7, 0.4, rng);
  const DemandMatrix dm =
      traffic::bimodal_matrix(7, traffic::BimodalParams{}, rng);
  const double base = mcf::solve_optimal(g, dm).u_max;
  const double doubled = mcf::solve_optimal(g, dm.scaled(2.0)).u_max;
  EXPECT_NEAR(doubled, 2.0 * base, 2e-3 * base + 1e-9);
}

TEST_P(McfScaling, AddingDemandNeverHelps) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 80);
  const DiGraph g = topo::erdos_renyi(7, 0.4, rng);
  traffic::BimodalParams sparse;
  sparse.pair_density = 0.4;
  DemandMatrix dm = traffic::bimodal_matrix(7, sparse, rng);
  const double base = mcf::solve_optimal(g, dm).u_max;
  // Add one more demand.
  const int s = static_cast<int>(rng.uniform_index(7));
  const int t = (s + 1 + static_cast<int>(rng.uniform_index(6))) % 7;
  dm.set(s, t, dm.at(s, t) + 500.0);
  const double more = mcf::solve_optimal(g, dm).u_max;
  EXPECT_GE(more, base - 1e-6);
}

TEST_P(McfScaling, CapacityScalingInvertsUMax) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 120);
  DiGraph g(5);
  // Random strongly-connected graph with distinct capacities.
  const DiGraph base_graph = topo::erdos_renyi(5, 0.5, rng);
  DiGraph doubled(5);
  for (const auto& e : base_graph.edges()) {
    doubled.add_edge(e.src, e.dst, e.capacity * 2.0);
  }
  const DemandMatrix dm =
      traffic::bimodal_matrix(5, traffic::BimodalParams{}, rng);
  const double u1 = mcf::solve_optimal(base_graph, dm).u_max;
  const double u2 = mcf::solve_optimal(doubled, dm).u_max;
  EXPECT_NEAR(u2, u1 / 2.0, 2e-3 * u1 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, McfScaling, ::testing::Range(0, 6));

// ---------- Destination-based softmin fast path is exact ----------

// The downhill prune mode's splitting ratios must equal a per-flow
// hand-derivation (prune_dag + softmin over masked out-edges) at every
// vertex that can carry the flow's traffic.
class DownhillFastPath : public ::testing::TestWithParam<int> {};

TEST_P(DownhillFastPath, MatchesPerFlowDerivation) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 300);
  const DiGraph g = topo::by_name(GetParam() % 2 == 0 ? "Abilene"
                                                      : "MetroLike");
  std::vector<double> w(static_cast<size_t>(g.num_edges()));
  for (auto& x : w) x = rng.uniform(0.5, 3.0);
  routing::SoftminOptions options;
  options.gamma = 2.0;
  const routing::Routing fast = routing::softmin_routing(g, w, options);

  // Hand-derive for a handful of flows.
  for (int rep = 0; rep < 6; ++rep) {
    const NodeId s = static_cast<NodeId>(
        rng.uniform_index(static_cast<std::uint64_t>(g.num_nodes())));
    NodeId t = s;
    while (t == s) {
      t = static_cast<NodeId>(
          rng.uniform_index(static_cast<std::uint64_t>(g.num_nodes())));
    }
    const auto mask =
        routing::prune_dag(g, s, t, w, routing::PruneMode::kDistanceToSink);
    // Vertices reachable from s in the mask carry traffic; check them.
    const auto sp_from_s = graph::dijkstra(g, s, w);
    const auto dist_to_t = graph::dijkstra_to(g, t, w);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == t) continue;
      // Only check vertices on some s->t path in the mask.
      bool has_masked_out = false;
      for (EdgeId e : g.out_edges(v)) {
        if (mask[static_cast<size_t>(e)]) has_masked_out = true;
      }
      if (!has_masked_out) continue;
      std::vector<EdgeId> outs;
      std::vector<double> costs;
      for (EdgeId e : g.out_edges(v)) {
        if (!mask[static_cast<size_t>(e)]) continue;
        outs.push_back(e);
        costs.push_back(w[static_cast<size_t>(e)] +
                        dist_to_t.dist[static_cast<size_t>(g.edge(e).dst)]);
      }
      const auto expected = routing::softmin(costs, options.gamma);
      for (size_t i = 0; i < outs.size(); ++i) {
        EXPECT_NEAR(fast.ratio(t, outs[i]), expected[i], 1e-6)
            << "flow " << s << "->" << t << " vertex " << v;
      }
    }
    (void)sp_from_s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DownhillFastPath, ::testing::Range(0, 6));

// ---------- Simulation linearity ----------

TEST(SimulationLinearity, LoadsScaleWithDemand) {
  const DiGraph g = topo::abilene();
  util::Rng rng(9);
  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  const routing::Routing r = routing::softmin_routing(
      g, std::vector<double>(static_cast<size_t>(g.num_edges()), 1.0));
  const auto sim1 = routing::simulate(g, r, dm);
  const auto sim3 = routing::simulate(g, r, dm.scaled(3.0));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_NEAR(sim3.link_load[static_cast<size_t>(e)],
                3.0 * sim1.link_load[static_cast<size_t>(e)], 1e-6);
  }
}

TEST(SimulationLinearity, SuperpositionOfDemands) {
  // simulate(D1 + D2) == simulate(D1) + simulate(D2) per link.
  const DiGraph g = topo::by_name("SmallRing");
  util::Rng rng(10);
  traffic::BimodalParams params;
  params.pair_density = 0.5;
  const DemandMatrix d1 = traffic::bimodal_matrix(6, params, rng);
  const DemandMatrix d2 = traffic::bimodal_matrix(6, params, rng);
  DemandMatrix sum(6);
  for (int s = 0; s < 6; ++s) {
    for (int t = 0; t < 6; ++t) {
      if (s != t) sum.set(s, t, d1.at(s, t) + d2.at(s, t));
    }
  }
  const routing::Routing r = routing::softmin_routing(
      g, std::vector<double>(static_cast<size_t>(g.num_edges()), 1.0));
  const auto sim1 = routing::simulate(g, r, d1);
  const auto sim2 = routing::simulate(g, r, d2);
  const auto sim_sum = routing::simulate(g, r, sum);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_NEAR(sim_sum.link_load[static_cast<size_t>(e)],
                sim1.link_load[static_cast<size_t>(e)] +
                    sim2.link_load[static_cast<size_t>(e)],
                1e-6);
  }
}

// ---------- Experiment configuration invariants ----------

TEST(ExperimentConfig, BanditCreditForOneShotEnv) {
  const auto cfg = core::routing_ppo_config();
  EXPECT_EQ(cfg.gamma, 0.0);
  EXPECT_EQ(cfg.gae_lambda, 0.0);
}

TEST(ExperimentConfig, MonteCarloCreditForIterativeEnv) {
  const auto cfg = core::iterative_ppo_config(28);
  EXPECT_EQ(cfg.gamma, 1.0);
  EXPECT_EQ(cfg.gae_lambda, 1.0);
  EXPECT_EQ(cfg.rollout_steps, 16 * 28);
}

TEST(ExperimentConfig, TrainStepsEnvOverride) {
  unsetenv("GDDR_BENCH_SCALE");
  setenv("GDDR_TRAIN_STEPS", "1234", 1);
  EXPECT_EQ(core::bench_train_steps(999), 1234);
  unsetenv("GDDR_TRAIN_STEPS");
  setenv("GDDR_BENCH_SCALE", "paper", 1);
  EXPECT_EQ(core::bench_train_steps(999), 500000);
  unsetenv("GDDR_BENCH_SCALE");
  EXPECT_EQ(core::bench_train_steps(999), 999);
}

TEST(ExperimentConfig, ScenarioParamsMatchPaperShape) {
  const auto p = core::experiment_scenario_params();
  EXPECT_EQ(p.sequence_length, 60);   // paper §VIII-D
  EXPECT_EQ(p.cycle_length, 10);
  EXPECT_EQ(p.train_sequences, 7);
  EXPECT_EQ(p.test_sequences, 3);
}

}  // namespace
}  // namespace gddr
