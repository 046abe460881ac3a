#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/episode_cursor.hpp"
#include "core/evaluate.hpp"
#include "core/iterative_env.hpp"
#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "core/scenario.hpp"
#include "graph/algorithms.hpp"
#include "routing/baselines.hpp"
#include "topo/zoo.hpp"

namespace gddr::core {
namespace {

ScenarioParams tiny_params() {
  ScenarioParams p;
  p.sequence_length = 12;
  p.cycle_length = 4;
  p.train_sequences = 2;
  p.test_sequences = 1;
  return p;
}

EnvConfig tiny_env_config() {
  EnvConfig cfg;
  cfg.memory = 3;
  return cfg;
}

// ---------------- scenarios ----------------

TEST(Scenario, PaperDefaults) {
  util::Rng rng(1);
  const Scenario s = make_abilene_scenario(rng);
  EXPECT_EQ(s.graph.num_nodes(), 11);
  EXPECT_EQ(s.train_sequences.size(), 7U);
  EXPECT_EQ(s.test_sequences.size(), 3U);
  EXPECT_EQ(s.train_sequences[0].size(), 60U);
  EXPECT_GT(s.node_feature_scale, 0.0);
  EXPECT_GT(s.flat_feature_scale, 0.0);
}

TEST(Scenario, SequencesAreCyclical) {
  util::Rng rng(2);
  const Scenario s = make_abilene_scenario(rng);
  const auto& seq = s.train_sequences[0];
  EXPECT_DOUBLE_EQ(seq[0].at(0, 1), seq[10].at(0, 1));
  EXPECT_DOUBLE_EQ(seq[3].at(2, 5), seq[53].at(2, 5));
}

TEST(Scenario, SizeBandScenarios) {
  util::Rng rng(3);
  const auto scenarios = make_size_band_scenarios(rng, tiny_params(), 6, 22);
  EXPECT_GE(scenarios.size(), 5U);
  for (const auto& s : scenarios) {
    EXPECT_GE(s.graph.num_nodes(), 6);
    EXPECT_LE(s.graph.num_nodes(), 22);
    EXPECT_EQ(s.train_sequences.size(), 2U);
  }
}

TEST(Scenario, MutatedAbileneScenariosDiffer) {
  util::Rng rng(4);
  const auto scenarios = make_mutated_abilene_scenarios(4, rng, tiny_params());
  ASSERT_EQ(scenarios.size(), 4U);
  const auto base = topo::abilene();
  for (const auto& s : scenarios) {
    EXPECT_FALSE(s.graph == base);
  }
}

// ---------------- RoutingEnv ----------------

std::vector<Scenario> tiny_scenarios(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Scenario> scenarios;
  scenarios.push_back(
      make_scenario(topo::by_name("SmallRing"), tiny_params(), rng));
  return scenarios;
}

// ---------------- shared traffic ----------------

// The handle gives read access only, so no copy of a Scenario can change
// the traffic that the other copies read.
static_assert(
    std::is_same_v<decltype(std::declval<SharedSequences&>()[0]),
                   const traffic::DemandSequence&>);
static_assert(
    std::is_same_v<decltype(std::declval<SharedSequences&>().front()),
                   const traffic::DemandSequence&>);
static_assert(
    std::is_same_v<decltype(*std::declval<SharedSequences&>().begin()),
                   const traffic::DemandSequence&>);

const traffic::DemandMatrix* first_train_matrix(const Scenario& s) {
  return &s.train_sequences[0][0];
}

TEST(SharedTraffic, EmptyHandleAllocatesNothing) {
  const SharedSequences empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0U);
  EXPECT_EQ(empty.begin(), nullptr);
  EXPECT_EQ(empty.begin(), empty.end());
  EXPECT_EQ(SharedSequences(std::vector<traffic::DemandSequence>{}).begin(),
            nullptr);
  ScenarioParams params = tiny_params();
  params.test_sequences = 0;
  util::Rng rng(6);
  const Scenario s = make_scenario(topo::by_name("SmallRing"), params, rng);
  EXPECT_EQ(s.test_sequences.begin(), nullptr);
  EXPECT_EQ(s.train_sequences.size(), 2U);
}

TEST(SharedTraffic, ScenarioCopiesShareSequences) {
  const std::vector<Scenario> scenarios = tiny_scenarios(5);
  const Scenario copy = scenarios[0];
  EXPECT_EQ(first_train_matrix(copy), first_train_matrix(scenarios[0]));
  EXPECT_EQ(&copy.test_sequences[0][0], &scenarios[0].test_sequences[0][0]);
  // Iteration walks the same storage as indexing.
  EXPECT_EQ(&*copy.train_sequences.begin(), &scenarios[0].train_sequences[0]);
  EXPECT_EQ(copy.train_sequences.end() - copy.train_sequences.begin(), 2);
}

TEST(SharedTraffic, VecEnvsShareTheCallersSequences) {
  const std::vector<Scenario> scenarios = tiny_scenarios(5);
  const auto envs = make_vec_envs(scenarios, tiny_env_config(), 3, 4);
  ASSERT_EQ(envs.size(), 4U);
  for (const auto& env : envs) {
    EXPECT_EQ(first_train_matrix(env->current_scenario()),
              first_train_matrix(scenarios[0]));
  }
}

TEST(SharedTraffic, RoutingEnvCopySharesSequences) {
  const std::vector<Scenario> scenarios = tiny_scenarios(5);
  RoutingEnv env(scenarios, tiny_env_config(), 1);
  (void)env.reset();
  // evaluate_policy hands each worker a copy like this one.
  RoutingEnv copy = env;
  copy.set_mode(RoutingEnv::Mode::kTest);
  EXPECT_EQ(first_train_matrix(copy.current_scenario()),
            first_train_matrix(scenarios[0]));
}

TEST(SharedTraffic, IterativeEnvCopySharesSequences) {
  const std::vector<Scenario> scenarios = tiny_scenarios(5);
  IterativeEnvConfig config;
  config.memory = 3;
  IterativeRoutingEnv env(scenarios, config, 1);
  (void)env.reset();
  IterativeRoutingEnv copy = env;
  copy.set_mode(IterativeRoutingEnv::Mode::kTest);
  EXPECT_EQ(first_train_matrix(copy.current_scenario()),
            first_train_matrix(scenarios[0]));
}

TEST(RoutingEnv, ObservationShapes) {
  RoutingEnv env(tiny_scenarios(5), tiny_env_config(), 1);
  const rl::Observation obs = env.reset();
  const int n = 6;
  const int memory = 3;
  EXPECT_EQ(obs.num_nodes, n);
  EXPECT_EQ(static_cast<int>(obs.flat.size()), memory * n * n);
  EXPECT_EQ(obs.nodes.rows(), n);
  EXPECT_EQ(obs.nodes.cols(), 2 * memory);
  EXPECT_EQ(obs.edges.rows(), env.current_graph().num_edges());
  EXPECT_EQ(obs.edges.cols(), 1);
  EXPECT_EQ(static_cast<int>(obs.senders.size()),
            env.current_graph().num_edges());
}

TEST(RoutingEnv, ObservationMatchesDemandHistory) {
  RoutingEnv env(tiny_scenarios(6), tiny_env_config(), 1);
  env.set_mode(RoutingEnv::Mode::kTest);
  const rl::Observation obs = env.reset();
  const Scenario& s = env.current_scenario();
  const auto& seq = s.test_sequences[0];
  // First observation covers DMs [0, 3); newest history column pair is
  // h = memory-1 = DM index 2.
  for (int v = 0; v < 6; ++v) {
    EXPECT_NEAR(obs.nodes.at(v, 4),
                seq[2].out_sum(v) / s.node_feature_scale, 1e-5);
    EXPECT_NEAR(obs.nodes.at(v, 5),
                seq[2].in_sum(v) / s.node_feature_scale, 1e-5);
  }
  // Flat layout: oldest DM first; entry (s=1,t=2) of DM 0 is at
  // offset 0*36 + 1*6 + 2.
  EXPECT_NEAR(obs.flat[1 * 6 + 2],
              seq[0].at(1, 2) / s.flat_feature_scale, 1e-9);
}

TEST(RoutingEnv, FullDemandRowFeaturesMatchMatrix) {
  EnvConfig cfg = tiny_env_config();
  cfg.node_features = NodeFeatureMode::kFullDemandRows;
  RoutingEnv env(tiny_scenarios(55), cfg, 1);
  env.set_mode(RoutingEnv::Mode::kTest);
  const rl::Observation obs = env.reset();
  const Scenario& s = env.current_scenario();
  const auto& seq = s.test_sequences[0];
  const int n = 6;
  EXPECT_EQ(obs.nodes.cols(), 2 * n * cfg.memory);
  // History step h = 0 covers DM index 0; vertex 1's outgoing demand to
  // vertex 4 sits at column 0*2n + 4, its incoming from 4 at 0*2n + n + 4.
  EXPECT_NEAR(obs.nodes.at(1, 4),
              seq[0].at(1, 4) / s.flat_feature_scale, 1e-5);
  EXPECT_NEAR(obs.nodes.at(1, n + 4),
              seq[0].at(4, 1) / s.flat_feature_scale, 1e-5);
}

TEST(RoutingEnv, FullFeaturePolicyWidthOverride) {
  EnvConfig cfg = tiny_env_config();
  cfg.node_features = NodeFeatureMode::kFullDemandRows;
  RoutingEnv env(tiny_scenarios(56), cfg, 1);
  util::Rng prng(1);
  GnnPolicyConfig pcfg;
  pcfg.memory = cfg.memory;
  pcfg.node_feature_width = 2 * 6 * cfg.memory;
  pcfg.latent = 8;
  pcfg.steps = 1;
  pcfg.mlp_hidden = {8};
  GnnPolicy policy(pcfg, prng);
  const rl::Observation obs = env.reset();
  EXPECT_EQ(policy.infer(obs, rl::Heads::kMean).mean.size(),
            static_cast<std::size_t>(env.current_graph().num_edges()));
}

TEST(RoutingEnv, PerDestinationActionSpace) {
  EnvConfig cfg = tiny_env_config();
  cfg.action_space = ActionSpace::kPerDestinationWeights;
  RoutingEnv env(tiny_scenarios(57), cfg, 1);
  env.reset();
  const int n = env.current_graph().num_nodes();
  const int ne = env.current_graph().num_edges();
  EXPECT_EQ(env.action_dim(), n * ne);
  const std::vector<double> action(static_cast<size_t>(n * ne), 0.0);
  const auto result = env.step(action);
  EXPECT_LE(result.reward, -1.0 + 1e-9);
  // Wrong size (the |E| action) must be rejected in this mode.
  env.reset();
  EXPECT_THROW(env.step(std::vector<double>(static_cast<size_t>(ne), 0.0)),
               std::invalid_argument);
}

TEST(RoutingEnv, PerDestinationNeutralMatchesEdgeWeightNeutral) {
  // With all-zero actions both spaces produce the same neutral softmin
  // translation, hence the same reward on the same DM.
  EnvConfig edge_cfg = tiny_env_config();
  EnvConfig dest_cfg = tiny_env_config();
  dest_cfg.action_space = ActionSpace::kPerDestinationWeights;
  RoutingEnv edge_env(tiny_scenarios(58), edge_cfg, 1);
  RoutingEnv dest_env(tiny_scenarios(58), dest_cfg, 1);
  edge_env.set_mode(RoutingEnv::Mode::kTest);
  dest_env.set_mode(RoutingEnv::Mode::kTest);
  edge_env.reset();
  dest_env.reset();
  const double r_edge = edge_env
                            .step(std::vector<double>(
                                static_cast<size_t>(edge_env.action_dim()),
                                0.0))
                            .reward;
  const double r_dest = dest_env
                            .step(std::vector<double>(
                                static_cast<size_t>(dest_env.action_dim()),
                                0.0))
                            .reward;
  EXPECT_NEAR(r_edge, r_dest, 1e-9);
}

TEST(RoutingEnv, NodeFeaturesAreNormalised) {
  RoutingEnv env(tiny_scenarios(7), tiny_env_config(), 1);
  const rl::Observation obs = env.reset();
  for (int v = 0; v < obs.nodes.rows(); ++v) {
    for (int c = 0; c < obs.nodes.cols(); ++c) {
      EXPECT_LT(std::abs(obs.nodes.at(v, c)), 10.0F);
    }
  }
}

TEST(RoutingEnv, EpisodeLengthAndDone) {
  RoutingEnv env(tiny_scenarios(8), tiny_env_config(), 1);
  env.reset();
  const int expected_steps = 12 - 3;
  const std::vector<double> action(
      static_cast<size_t>(env.action_dim()), 0.0);
  for (int i = 0; i < expected_steps; ++i) {
    const auto result = env.step(action);
    EXPECT_EQ(result.done, i == expected_steps - 1) << "step " << i;
  }
}

TEST(RoutingEnv, RewardIsNegativeRatioAtLeastOne) {
  RoutingEnv env(tiny_scenarios(9), tiny_env_config(), 1);
  env.reset();
  const std::vector<double> action(
      static_cast<size_t>(env.action_dim()), 0.0);
  const auto result = env.step(action);
  // U_agent >= U_opt, so ratio >= 1 and reward <= -1.
  EXPECT_LE(result.reward, -1.0 + 1e-9);
  EXPECT_NEAR(result.reward, -env.last_ratio(), 1e-12);
}

TEST(RoutingEnv, ActionSizeMismatchThrows) {
  RoutingEnv env(tiny_scenarios(10), tiny_env_config(), 1);
  env.reset();
  EXPECT_THROW(env.step(std::vector<double>{0.0}), std::invalid_argument);
}

TEST(RoutingEnv, CacheReusedAcrossEpisodes) {
  RoutingEnv env(tiny_scenarios(11), tiny_env_config(), 1);
  const std::vector<double> action(
      static_cast<size_t>(env.action_dim()), 0.0);
  for (int ep = 0; ep < 3; ++ep) {
    env.reset();
    for (;;) {
      if (env.step(action).done) break;
    }
  }
  // Cyclical sequences: only cycle_length=4 distinct DMs per sequence, 2
  // train sequences -> at most 8 misses regardless of episode count.
  EXPECT_LE(env.cache().misses(), 8U);
  EXPECT_GT(env.cache().hits(), 0U);
}

TEST(RoutingEnv, TestModeCyclesDeterministically) {
  util::Rng rng(12);
  std::vector<Scenario> scenarios;
  scenarios.push_back(
      make_scenario(topo::by_name("SmallRing"), tiny_params(), rng));
  scenarios.push_back(
      make_scenario(topo::by_name("JanetLike"), tiny_params(), rng));
  RoutingEnv env(std::move(scenarios), tiny_env_config(), 1);
  env.set_mode(RoutingEnv::Mode::kTest);
  EXPECT_EQ(env.num_test_units(), 2U);
  env.reset();
  const int first_nodes = env.current_graph().num_nodes();
  env.reset();
  const int second_nodes = env.current_graph().num_nodes();
  EXPECT_NE(first_nodes, second_nodes);  // both scenarios visited
  env.reset();
  EXPECT_EQ(env.current_graph().num_nodes(), first_nodes);  // wraps around
}

TEST(RoutingEnv, BetterActionsBetterReward) {
  // Sanity: the env responds to actions — the zero action and a random
  // action generally differ in reward.
  RoutingEnv env(tiny_scenarios(14), tiny_env_config(), 1);
  env.set_mode(RoutingEnv::Mode::kTest);
  env.reset();
  const std::vector<double> zero(
      static_cast<size_t>(env.action_dim()), 0.0);
  const double r_zero = env.step(zero).reward;
  env.set_mode(RoutingEnv::Mode::kTest);
  env.reset();
  util::Rng rng(15);
  std::vector<double> random_action(
      static_cast<size_t>(env.action_dim()));
  for (auto& a : random_action) a = rng.uniform(-1.0, 1.0);
  const double r_rand = env.step(random_action).reward;
  EXPECT_NE(r_zero, r_rand);
}

// ---------------- IterativeRoutingEnv ----------------

IterativeEnvConfig tiny_iter_config() {
  IterativeEnvConfig cfg;
  cfg.memory = 3;
  return cfg;
}

TEST(IterativeEnv, MicroStepStructure) {
  IterativeRoutingEnv env(tiny_scenarios(16), tiny_iter_config(), 1);
  rl::Observation obs = env.reset();
  const int ne = env.edges_per_step();
  EXPECT_EQ(env.action_dim(), 2);
  EXPECT_EQ(obs.edges.cols(), 4);  // Eq. 6 tuple + capacity feature
  // Initially: nothing set, edge 0 is the target.
  EXPECT_FLOAT_EQ(obs.edges.at(0, 1), 0.0F);
  EXPECT_FLOAT_EQ(obs.edges.at(0, 2), 1.0F);
  EXPECT_FLOAT_EQ(obs.edges.at(1, 2), 0.0F);

  // First micro-step sets edge 0 with weight 0.5.
  const auto r1 = env.step(std::vector<double>{0.5, 0.0});
  EXPECT_EQ(r1.reward, 0.0);
  EXPECT_FALSE(r1.done);
  EXPECT_FLOAT_EQ(r1.obs.edges.at(0, 0), 0.5F);
  EXPECT_FLOAT_EQ(r1.obs.edges.at(0, 1), 1.0F);  // set flag
  EXPECT_FLOAT_EQ(r1.obs.edges.at(0, 2), 0.0F);  // no longer target
  EXPECT_FLOAT_EQ(r1.obs.edges.at(1, 2), 1.0F);  // next target
  (void)ne;
}

TEST(IterativeEnv, RewardOnlyAtDmBoundary) {
  IterativeRoutingEnv env(tiny_scenarios(17), tiny_iter_config(), 1);
  env.reset();
  const int ne = env.edges_per_step();
  for (int e = 0; e < ne - 1; ++e) {
    const auto r = env.step(std::vector<double>{0.0, 0.0});
    EXPECT_EQ(r.reward, 0.0) << "micro-step " << e;
    EXPECT_FALSE(r.done);
  }
  // Final micro-step: the reward lands and the per-DM episode ends.
  const auto final_step = env.step(std::vector<double>{0.0, 0.0});
  EXPECT_LE(final_step.reward, -1.0 + 1e-9);
  EXPECT_NEAR(final_step.reward, -env.last_ratio(), 1e-12);
  EXPECT_TRUE(final_step.done);
}

TEST(IterativeEnv, SequenceContinuesAcrossEpisodes) {
  // Per-DM episodes: resetting after each done walks through every DM of
  // the sequence (12 - memory 3 = 9 episodes of |E| micro-steps each).
  IterativeRoutingEnv env(tiny_scenarios(18), tiny_iter_config(), 1);
  env.set_mode(IterativeRoutingEnv::Mode::kTest);
  const int ne = env.edges_per_step();
  const int dms = 12 - 3;
  ASSERT_EQ(env.num_test_units(), 1U);
  EXPECT_EQ(env.episodes_in_unit(0), dms);
  for (int dm = 0; dm < dms; ++dm) {
    env.reset();
    int steps = 0;
    for (;;) {
      const auto r = env.step(std::vector<double>{0.1, 0.0});
      ++steps;
      if (r.done) break;
    }
    EXPECT_EQ(steps, ne) << "episode " << dm;
  }
}

TEST(IterativeEnv, GammaMappingMonotoneAndBounded) {
  IterativeRoutingEnv env(tiny_scenarios(19), tiny_iter_config(), 1);
  EXPECT_NEAR(env.map_gamma(-1.0), 0.5, 1e-9);
  EXPECT_NEAR(env.map_gamma(1.0), 20.0, 1e-9);
  EXPECT_LT(env.map_gamma(-0.5), env.map_gamma(0.5));
  // Out-of-range actions are clamped.
  EXPECT_NEAR(env.map_gamma(-7.0), 0.5, 1e-9);
}

TEST(IterativeEnv, WrongActionSizeThrows) {
  IterativeRoutingEnv env(tiny_scenarios(20), tiny_iter_config(), 1);
  env.reset();
  EXPECT_THROW(env.step(std::vector<double>{0.0}), std::invalid_argument);
}

// ---------------- episode cursor ----------------

// A sequence of `memory` or fewer demand matrices leaves nothing to
// route: reset() would read its observation window past the sequence's
// end.  Both envs refuse such a scenario at construction, whether the
// short sequence is a train or a test one, and in any scenario.
TEST(EpisodeCursor, RejectsSequencesNoLongerThanMemory) {
  util::Rng rng(21);
  const Scenario good =
      make_scenario(topo::by_name("SmallRing"), tiny_params(), rng);
  for (const int length : {2, 3}) {  // memory is 3
    ScenarioParams short_params = tiny_params();
    short_params.sequence_length = length;
    const Scenario shorter =
        make_scenario(topo::by_name("SmallRing"), short_params, rng);
    Scenario short_train = good;
    short_train.train_sequences = shorter.train_sequences;
    Scenario short_test = good;
    short_test.test_sequences = shorter.test_sequences;
    for (const Scenario& bad : {shorter, short_train, short_test}) {
      const std::vector<Scenario> scenarios{good, bad};
      EXPECT_THROW(RoutingEnv(scenarios, tiny_env_config(), 1),
                   std::invalid_argument)
          << "length " << length;
      EXPECT_THROW(IterativeRoutingEnv(scenarios, tiny_iter_config(), 1),
                   std::invalid_argument)
          << "length " << length;
    }
  }
}

TEST(EpisodeCursor, SequenceOneLongerThanMemoryIsOneEpisodeStep) {
  util::Rng rng(22);
  ScenarioParams params = tiny_params();
  params.sequence_length = 4;  // memory 3 + one routed matrix
  const std::vector<Scenario> scenarios{
      make_scenario(topo::by_name("SmallRing"), params, rng)};
  RoutingEnv env(scenarios, tiny_env_config(), 1);
  env.set_mode(RoutingEnv::Mode::kTest);
  env.reset();
  EXPECT_EQ(env.episode_length(), 1);
  const std::vector<double> zero(static_cast<size_t>(env.action_dim()), 0.0);
  EXPECT_TRUE(env.step(zero).done);

  IterativeRoutingEnv iterative(scenarios, tiny_iter_config(), 1);
  iterative.set_mode(IterativeRoutingEnv::Mode::kTest);
  EXPECT_EQ(iterative.episodes_in_unit(0), 1);
  iterative.reset();
  for (int e = 0; e < iterative.edges_per_step(); ++e) {
    EXPECT_EQ(iterative.step(std::vector<double>{0.0, 0.0}).done,
              e + 1 == iterative.edges_per_step());
  }
}

TEST(EpisodeCursor, TestSweepVisitsUnitsScenarioMajor) {
  util::Rng rng(23);
  ScenarioParams params = tiny_params();
  params.test_sequences = 2;
  const std::vector<Scenario> scenarios{
      make_scenario(topo::by_name("SmallRing"), params, rng),
      make_scenario(topo::by_name("JanetLike"), tiny_params(), rng)};
  EpisodeCursor cursor(scenarios, 3, 1, "cursor");
  cursor.set_mode(EpisodeCursor::Mode::kTest);
  ASSERT_EQ(cursor.num_test_units(), 3U);
  const traffic::DemandSequence* expected[] = {
      &scenarios[0].test_sequences[0], &scenarios[0].test_sequences[1],
      &scenarios[1].test_sequences[0]};
  for (int pass = 0; pass < 2; ++pass) {  // the sweep wraps around
    for (std::size_t unit = 0; unit < 3; ++unit) {
      cursor.advance();
      EXPECT_EQ(&cursor.sequence(), expected[unit]) << "unit " << unit;
      EXPECT_EQ(&cursor.test_unit(unit), expected[unit]) << "unit " << unit;
    }
  }
  cursor.seek_test_unit(4);  // modulo the unit count: unit 1
  cursor.advance();
  EXPECT_EQ(&cursor.sequence(), expected[1]);
  cursor.set_mode(EpisodeCursor::Mode::kTrain);
  EXPECT_THROW(cursor.seek_test_unit(0), std::logic_error);
}

// ---------------- policies ----------------

TEST(MlpPolicy, ShapesAndParameters) {
  util::Rng rng(21);
  MlpPolicyConfig cfg;
  cfg.pi_hidden = {32};
  cfg.vf_hidden = {32};
  MlpPolicy policy(27, 8, cfg, rng);
  EXPECT_GT(policy.num_parameters(), 0U);
  rl::Observation obs;
  obs.flat.assign(27, 0.1);
  EXPECT_EQ(policy.action_dim(obs), 8);
  const rl::PolicyForward fwd = policy.infer(obs, rl::Heads::kAll);
  EXPECT_EQ(fwd.mean.size(), 8U);
  EXPECT_EQ(fwd.log_std.size(), 8U);
  nn::Tape tape;
  const auto eval = policy.evaluate_batch(tape, {&obs, &obs});
  EXPECT_EQ(tape.value(eval.means).rows(), 16);
  EXPECT_EQ(tape.value(eval.log_std).rows(), 16);
  EXPECT_EQ(tape.value(eval.values).rows(), 2);
  EXPECT_EQ(tape.value(eval.values).cols(), 1);
}

TEST(MlpPolicy, RejectsWrongObservationSize) {
  util::Rng rng(22);
  MlpPolicy policy(10, 4, MlpPolicyConfig{}, rng);
  rl::Observation obs;
  obs.flat.assign(12, 0.0);
  EXPECT_THROW(policy.action_dim(obs), std::invalid_argument);
  EXPECT_THROW(policy.infer(obs, rl::Heads::kAll), std::invalid_argument);
  nn::Tape tape;
  EXPECT_THROW(policy.evaluate_batch(tape, {&obs}), std::invalid_argument);
}

TEST(GnnPolicy, ActionDimFollowsGraph) {
  util::Rng rng(23);
  GnnPolicyConfig cfg;
  cfg.memory = 3;
  GnnPolicy policy(cfg, rng);
  RoutingEnv env(tiny_scenarios(24), tiny_env_config(), 1);
  const rl::Observation obs = env.reset();
  EXPECT_EQ(policy.action_dim(obs), env.current_graph().num_edges());
  const rl::PolicyForward fwd = policy.infer(obs, rl::Heads::kAll);
  const auto edges = static_cast<std::size_t>(env.current_graph().num_edges());
  EXPECT_EQ(fwd.mean.size(), edges);
  ASSERT_EQ(fwd.log_std.size(), edges);
  // Shared scalar: all entries equal.
  for (const double ls : fwd.log_std) EXPECT_EQ(ls, fwd.log_std.front());
}

TEST(GnnPolicy, SameParametersAcrossTopologies) {
  util::Rng rng(25);
  GnnPolicyConfig cfg;
  cfg.memory = 3;
  GnnPolicy policy(cfg, rng);
  const std::size_t params_before = policy.num_parameters();

  util::Rng srng(26);
  std::vector<Scenario> scenarios;
  scenarios.push_back(
      make_scenario(topo::by_name("SmallRing"), tiny_params(), srng));
  scenarios.push_back(
      make_scenario(topo::by_name("GeantLike"), tiny_params(), srng));
  for (const auto& s : scenarios) {
    RoutingEnv env({s}, tiny_env_config(), 1);
    const rl::Observation obs = env.reset();
    EXPECT_EQ(policy.infer(obs, rl::Heads::kMean).mean.size(),
              static_cast<std::size_t>(s.graph.num_edges()));
  }
  EXPECT_EQ(policy.num_parameters(), params_before);
}

TEST(IterativeGnnPolicy, TwoDimensionalAction) {
  util::Rng rng(27);
  IterativeGnnPolicyConfig cfg;
  cfg.memory = 3;
  IterativeGnnPolicy policy(cfg, rng);
  IterativeRoutingEnv env(tiny_scenarios(28), tiny_iter_config(), 1);
  const rl::Observation obs = env.reset();
  EXPECT_EQ(policy.action_dim(obs), 2);
  const rl::PolicyForward fwd = policy.infer(obs, rl::Heads::kAll);
  EXPECT_EQ(fwd.mean.size(), 2U);
  EXPECT_EQ(fwd.log_std.size(), 2U);
}

// ---------------- evaluation helpers ----------------

TEST(Evaluate, ShortestPathRatioAtLeastOne) {
  const auto scenarios = tiny_scenarios(29);
  mcf::OptimalCache cache;
  const EvalResult r = evaluate_shortest_path(scenarios, 3, cache);
  EXPECT_GE(r.mean_ratio, 1.0 - 1e-9);
  EXPECT_EQ(r.episodes, 1);
  EXPECT_EQ(r.steps, 9);  // 12 DMs - memory 3
}

TEST(Evaluate, FixedEcmpBeatsOrMatchesShortestPath) {
  const auto scenarios = tiny_scenarios(30);
  mcf::OptimalCache cache;
  const EvalResult sp = evaluate_shortest_path(scenarios, 3, cache);
  const EvalResult ecmp = evaluate_fixed(
      scenarios, 3, cache, [](const graph::DiGraph& g) {
        return routing::ecmp_routing(g, graph::unit_weights(g));
      });
  EXPECT_LE(ecmp.mean_ratio, sp.mean_ratio * 1.25);
  EXPECT_GE(ecmp.mean_ratio, 1.0 - 1e-9);
}

}  // namespace
}  // namespace gddr::core
