// Tests for the library extensions beyond the paper's core pipeline:
// parameter serialisation, forwarding-table export, the mean-utilisation
// objective with its exact oracle, and the mean-demand optimal baseline.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/evaluate.hpp"
#include "core/experiment.hpp"
#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "graph/algorithms.hpp"
#include "mcf/cache.hpp"
#include "mcf/mean_util.hpp"
#include "nn/serialize.hpp"
#include "rl/ppo.hpp"
#include "routing/baselines.hpp"
#include "routing/forwarding.hpp"
#include "routing/softmin.hpp"
#include "topo/zoo.hpp"
#include "traffic/generators.hpp"

namespace gddr {
namespace {

using graph::DiGraph;
using traffic::DemandMatrix;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------- serialisation ----------------

TEST(Serialize, RoundTripPreservesOutputs) {
  util::Rng rng_a(1);
  core::GnnPolicyConfig cfg;
  cfg.memory = 3;
  cfg.latent = 8;
  cfg.steps = 2;
  cfg.mlp_hidden = {16};
  core::GnnPolicy original(cfg, rng_a);

  const std::string path = temp_path("gddr_roundtrip.bin");
  nn::save_parameters(path, original.parameters());

  util::Rng rng_b(999);  // different init — must be overwritten by load
  core::GnnPolicy loaded(cfg, rng_b);
  nn::load_parameters(path, loaded.parameters());

  // Identical outputs on a shared observation.
  util::Rng srng(2);
  core::ScenarioParams p;
  p.sequence_length = 8;
  p.cycle_length = 4;
  p.train_sequences = 1;
  p.test_sequences = 1;
  const core::Scenario scenario =
      core::make_scenario(topo::by_name("SmallRing"), p, srng);
  const auto obs = core::RoutingEnv::build_observation(
      scenario, scenario.train_sequences[0], 3, 3);
  nn::Tape ta;
  nn::Tape tb;
  const auto ya = ta.value(original.action_mean(ta, obs));
  const auto yb = tb.value(loaded.action_mean(tb, obs));
  ASSERT_EQ(ya.cols(), yb.cols());
  for (int j = 0; j < ya.cols(); ++j) {
    EXPECT_FLOAT_EQ(ya.at(0, j), yb.at(0, j));
  }
  std::remove(path.c_str());
}

TEST(Serialize, ShapeMismatchRejected) {
  util::Rng rng(3);
  core::MlpPolicyConfig small;
  small.pi_hidden = {8};
  small.vf_hidden = {8};
  core::MlpPolicy a(10, 4, small, rng);
  const std::string path = temp_path("gddr_mismatch.bin");
  nn::save_parameters(path, a.parameters());
  core::MlpPolicy b(12, 4, small, rng);  // different input width
  EXPECT_THROW(nn::load_parameters(path, b.parameters()),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileRejected) {
  util::Rng rng(4);
  core::MlpPolicyConfig small;
  small.pi_hidden = {8};
  small.vf_hidden = {8};
  core::MlpPolicy a(4, 2, small, rng);
  EXPECT_THROW(
      nn::load_parameters(temp_path("gddr_does_not_exist.bin"),
                          a.parameters()),
      std::runtime_error);
}

TEST(Serialize, CorruptMagicRejected) {
  const std::string path = temp_path("gddr_corrupt.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("NOTAGDDRFILE", f);
    std::fclose(f);
  }
  util::Rng rng(5);
  core::MlpPolicyConfig small;
  small.pi_hidden = {8};
  small.vf_hidden = {8};
  core::MlpPolicy a(4, 2, small, rng);
  EXPECT_THROW(nn::load_parameters(path, a.parameters()),
               std::runtime_error);
  std::remove(path.c_str());
}

// ---------------- forwarding tables ----------------

TEST(Forwarding, SoftminTablesMatchRoutingRows) {
  const DiGraph g = topo::abilene();
  const std::vector<double> w(static_cast<size_t>(g.num_edges()), 1.0);
  const auto r = routing::softmin_routing(g, w);
  const auto tables = routing::to_flow_tables(g, r);
  // Abilene is strongly connected: every (node, destination) pair routes.
  EXPECT_EQ(tables.size(),
            static_cast<size_t>(g.num_nodes() * (g.num_nodes() - 1)));
  for (const auto& entry : tables) {
    for (const auto& hop : entry.next_hops) {
      EXPECT_EQ(hop.share, r.ratio(entry.destination, hop.edge));
    }
  }
}

TEST(Forwarding, TablesCoverEveryReachableDestination) {
  const DiGraph g = topo::abilene();
  const auto r = routing::shortest_path_routing(g);
  const auto tables = routing::to_flow_tables(g, r);
  // n*(n-1) (node, dst) pairs, all reachable in Abilene.
  EXPECT_EQ(tables.size(),
            static_cast<size_t>(g.num_nodes() * (g.num_nodes() - 1)));
  for (const auto& entry : tables) {
    double sum = 0.0;
    for (const auto& hop : entry.next_hops) {
      sum += hop.share;
      EXPECT_EQ(g.edge(hop.edge).src, entry.node);
      EXPECT_EQ(g.edge(hop.edge).dst, hop.neighbour);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Forwarding, EcmpTablesSplit) {
  DiGraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const auto r = routing::ecmp_routing(g, graph::unit_weights(g));
  const auto tables = routing::to_flow_tables(g, r);
  bool found = false;
  for (const auto& entry : tables) {
    if (entry.node == 0 && entry.destination == 3) {
      found = true;
      ASSERT_EQ(entry.next_hops.size(), 2U);
      EXPECT_NEAR(entry.next_hops[0].share, 0.5, 1e-9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Forwarding, PartitionedTopologyExports) {
  // Two components 0<->1 and 2<->3: no source reaches every destination.
  // Export must not depend on any one source's view of the routing.
  DiGraph g(4);
  g.add_edge(0, 1, 1.0);  // e0
  g.add_edge(1, 0, 1.0);  // e1
  g.add_edge(2, 3, 1.0);  // e2
  g.add_edge(3, 2, 1.0);  // e3
  const std::vector<double> w(static_cast<size_t>(g.num_edges()), 1.0);
  const auto r = routing::softmin_routing(g, w);
  std::vector<routing::FlowTableEntry> tables;
  ASSERT_NO_THROW(tables = routing::to_flow_tables(g, r));
  // One entry per connected (node, destination) pair, a single full hop.
  ASSERT_EQ(tables.size(), 4U);
  for (const auto& entry : tables) {
    EXPECT_EQ(entry.node / 2, entry.destination / 2);
    ASSERT_EQ(entry.next_hops.size(), 1U);
    EXPECT_EQ(entry.next_hops[0].neighbour, entry.destination);
    EXPECT_NEAR(entry.next_hops[0].share, 1.0, 1e-12);
  }
}

TEST(Forwarding, FormatMentionsDestinations) {
  const DiGraph g = topo::by_name("SmallRing");
  const auto r = routing::shortest_path_routing(g);
  const auto tables = routing::to_flow_tables(g, r);
  const std::string text = routing::format_flow_table(g, tables, 0);
  EXPECT_NE(text.find("flow table for node 0"), std::string::npos);
  EXPECT_NE(text.find("dst"), std::string::npos);
}

// ---------------- mean-utilisation objective ----------------

TEST(MeanUtil, OracleIsLowerBound) {
  const DiGraph g = topo::by_name("AbileneHet");
  util::Rng rng(6);
  traffic::BimodalParams params;
  params.pair_density = 0.4;
  const DemandMatrix dm = traffic::bimodal_matrix(g.num_nodes(), params, rng);
  const double oracle = mcf::min_mean_utilisation(g, dm);
  // Any routing's mean utilisation must be >= the oracle.
  for (const auto& r :
       {routing::shortest_path_routing(g),
        routing::ecmp_routing(g, graph::unit_weights(g)),
        routing::softmin_routing(
            g, std::vector<double>(static_cast<size_t>(g.num_edges()), 1.0))}) {
    const auto sim = routing::simulate(g, r, dm);
    EXPECT_GE(routing::mean_utilisation(g, sim), oracle - 1e-9);
  }
}

TEST(MeanUtil, OracleRoutingAchievesOracle) {
  const DiGraph g = topo::by_name("AbileneHet");
  util::Rng rng(7);
  traffic::BimodalParams params;
  params.pair_density = 0.4;
  const DemandMatrix dm = traffic::bimodal_matrix(g.num_nodes(), params, rng);
  const auto r = routing::min_mean_utilisation_routing(g);
  const auto sim = routing::simulate(g, r, dm);
  EXPECT_NEAR(routing::mean_utilisation(g, sim),
              mcf::min_mean_utilisation(g, dm), 1e-6);
}

TEST(MeanUtil, CachedOracleMatchesDirect) {
  const DiGraph g = topo::abilene();
  util::Rng rng(8);
  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  mcf::OptimalCache cache;
  EXPECT_EQ(cache.mean_util(g, dm), mcf::min_mean_utilisation(g, dm));
  EXPECT_EQ(cache.mean_util(g, dm), cache.mean_util(g, dm));  // cached
  EXPECT_GE(cache.hits(), 1U);
}

TEST(MeanUtil, EnvObjectiveSwitchesOracle) {
  util::Rng rng(9);
  core::ScenarioParams p;
  p.sequence_length = 8;
  p.cycle_length = 4;
  p.train_sequences = 1;
  p.test_sequences = 1;
  const core::Scenario scenario =
      core::make_scenario(topo::by_name("SmallRing"), p, rng);

  core::EnvConfig max_cfg;
  max_cfg.memory = 3;
  core::EnvConfig mean_cfg = max_cfg;
  mean_cfg.objective = core::Objective::kMeanUtilisation;

  core::RoutingEnv max_env({scenario}, max_cfg, 1);
  core::RoutingEnv mean_env({scenario}, mean_cfg, 1);
  max_env.set_mode(core::RoutingEnv::Mode::kTest);
  mean_env.set_mode(core::RoutingEnv::Mode::kTest);
  max_env.reset();
  mean_env.reset();
  const std::vector<double> zero(
      static_cast<size_t>(max_env.action_dim()), 0.0);
  const double r_max = max_env.step(zero).reward;
  const double r_mean = mean_env.step(zero).reward;
  // Both are ratios >= 1 against their respective oracles, but they are
  // different quantities.
  EXPECT_LE(r_max, -1.0 + 1e-9);
  EXPECT_LE(r_mean, -1.0 + 1e-9);
  EXPECT_NE(r_max, r_mean);
}

// ---------------- mean-demand optimal baseline ----------------

TEST(MeanDemandBaseline, DeliversAllTrafficOnUnseenMatrices) {
  const DiGraph g = topo::by_name("AbileneHet");
  util::Rng rng(10);
  traffic::BimodalParams params;
  params.pair_density = 0.3;  // unseen pairs will appear at test time
  const auto history =
      traffic::cyclical_bimodal_sequence(g.num_nodes(), 10, 5, params, rng);
  const auto r = routing::mean_demand_optimal_routing(g, history);
  const DemandMatrix unseen =
      traffic::bimodal_matrix(g.num_nodes(), params, rng);
  const auto sim = routing::simulate(g, r, unseen);
  EXPECT_NEAR(sim.delivered, unseen.total(), unseen.total() * 1e-6);
}

TEST(MeanDemandBaseline, OptimalForItsOwnMeanMatrix) {
  const DiGraph g = topo::abilene();
  util::Rng rng(11);
  const auto history = traffic::cyclical_bimodal_sequence(
      g.num_nodes(), 6, 3, traffic::BimodalParams{}, rng);
  const auto r = routing::mean_demand_optimal_routing(g, history);
  const DemandMatrix mean = traffic::mean_matrix(history);
  const double u = routing::simulate(g, r, mean).u_max;
  const double u_opt = mcf::solve_optimal(g, mean).u_max;
  // The epsilon fill for unseen pairs perturbs it only marginally.
  EXPECT_NEAR(u, u_opt, u_opt * 0.01);
}

TEST(MeanDemandBaseline, BeatsShortestPathOnStationaryTraffic) {
  // With dense, near-stationary traffic every matrix resembles the mean,
  // so the mean-optimal routing should clearly beat shortest-path.  (With
  // spiky rotating elephants it can *lose* to shortest-path — exactly the
  // brittleness of static data-driven routing that motivates the paper's
  // adaptive agents.)
  const DiGraph g = topo::by_name("AbileneHet");
  util::Rng rng(12);
  traffic::BimodalParams stationary;  // dense, mild variance
  const auto history = traffic::cyclical_bimodal_sequence(
      g.num_nodes(), 30, 10, stationary, rng);
  const auto mean_routing = routing::mean_demand_optimal_routing(g, history);
  const auto sp = routing::shortest_path_routing(g);
  double mean_sum = 0.0;
  double sp_sum = 0.0;
  for (std::size_t t = 0; t < 10; ++t) {
    mean_sum += routing::simulate(g, mean_routing, history[t]).u_max;
    sp_sum += routing::simulate(g, sp, history[t]).u_max;
  }
  EXPECT_LT(mean_sum, sp_sum);
}

TEST(MeanDemandBaseline, EmptyHistoryRejected) {
  EXPECT_THROW(
      routing::mean_demand_optimal_routing(topo::abilene(), {}),
      std::invalid_argument);
}

}  // namespace
}  // namespace gddr
