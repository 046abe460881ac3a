// Tests for the parallel execution layer: the thread pool, vectorised
// collection determinism, GAE truncation bootstrapping, the pooled PPO
// update, the bounded thread-safe LP cache, and parallel evaluation.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluate.hpp"
#include "core/experiment.hpp"
#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "core/scenario.hpp"
#include "mcf/cache.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "rl/vec_env.hpp"
#include "routing/baselines.hpp"
#include "routing/softmin.hpp"
#include "topo/zoo.hpp"
#include "traffic/generators.hpp"
#include "util/thread_pool.hpp"

namespace gddr {
namespace {

// ---------------- ThreadPool ----------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(257);
  util::parallel_for(&pool, hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SizeOneIsInlineOnCallingThread) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0);  // no worker threads: inline execution
  const auto caller = std::this_thread::get_id();
  bool same_thread = false;
  util::parallel_for(&pool, 1,
                     [&](std::size_t) {
                       same_thread = std::this_thread::get_id() == caller;
                     });
  EXPECT_TRUE(same_thread);
}

TEST(ThreadPool, NullPoolRunsSerially) {
  int sum = 0;
  util::parallel_for(nullptr, 10,
                     [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  util::ThreadPool pool(3);
  EXPECT_THROW(util::parallel_for(&pool, 64,
                                  [](std::size_t i) {
                                    if (i == 7) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder) {
  util::ThreadPool pool(4);
  const auto out = util::parallel_map(
      &pool, 100, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 100U);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
}

TEST(ThreadPool, ConsumeWorkersFlagParsesAndRemoves) {
  char prog[] = "prog";
  char flag[] = "--workers";
  char value[] = "3";
  char cmd[] = "eval";
  char* argv[] = {prog, flag, value, cmd, nullptr};
  int argc = 4;
  EXPECT_EQ(util::consume_workers_flag(argc, argv), 3);
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "eval");
}

TEST(ThreadPool, ConsumeWorkersFlagEqualsForm) {
  char prog[] = "prog";
  char flag[] = "--workers=5";
  char* argv[] = {prog, flag, nullptr};
  int argc = 2;
  EXPECT_EQ(util::consume_workers_flag(argc, argv), 5);
  EXPECT_EQ(argc, 1);
}

TEST(ThreadPool, ConsumeWorkersFlagRejectsGarbage) {
  char prog[] = "prog";
  char flag[] = "--workers";
  char value[] = "banana";
  char* argv[] = {prog, flag, value, nullptr};
  int argc = 3;
  EXPECT_THROW(util::consume_workers_flag(argc, argv),
               std::invalid_argument);
}

// ---------------- GAE truncation bootstrapping ----------------

rl::StepSample gae_sample(double reward, double value, bool done) {
  rl::StepSample s;
  s.reward = reward;
  s.value = value;
  s.done = done;
  return s;
}

// The regression this PR fixes: a time-limit truncation used to be treated
// as a true terminal (successor value zeroed).  A truncated step must
// bootstrap from the recorded V(s_T) instead.  Against the old
// compute_gae this expects 1.4 but gets 0.4.
TEST(GaeTruncation, TruncatedStepBootstrapsFromRecordedValue) {
  rl::RolloutBuffer buffer;
  rl::StepSample s = gae_sample(1.0, 0.6, /*done=*/true);
  s.truncated = true;
  s.bootstrap_value = 2.0;
  buffer.add(s);
  buffer.compute_gae(/*gamma=*/0.5, /*lambda=*/0.95, /*last_value=*/0.0,
                     false);
  // delta = r + gamma * V(s_T) - V(s) = 1 + 0.5*2 - 0.6 = 1.4.
  EXPECT_NEAR(buffer.samples()[0].advantage, 1.4, 1e-12);
  EXPECT_NEAR(buffer.samples()[0].return_, 2.0, 1e-12);
}

TEST(GaeTruncation, TruncationRestartsAdvantageRecursion) {
  rl::RolloutBuffer buffer;
  // Env segment A: one mid-episode step, then a truncated cut.
  buffer.add(gae_sample(0.0, 0.0, false));
  rl::StepSample cut = gae_sample(0.0, 0.0, false);
  cut.truncated = true;
  cut.bootstrap_value = 0.0;
  buffer.add(cut);
  // Env segment B: a huge-reward terminal step.  Its advantage must not
  // leak backwards across the truncation boundary.
  buffer.add(gae_sample(100.0, 0.0, true));
  buffer.compute_gae(0.99, 0.95, 0.0, false);
  EXPECT_NEAR(buffer.samples()[0].advantage, 0.0, 1e-12);
  EXPECT_NEAR(buffer.samples()[1].advantage, 0.0, 1e-12);
  EXPECT_NEAR(buffer.samples()[2].advantage, 100.0, 1e-12);
}

TEST(GaeTruncation, DoneWithoutTruncationStillZeroes) {
  rl::RolloutBuffer buffer;
  rl::StepSample s = gae_sample(1.0, 0.6, /*done=*/true);
  s.bootstrap_value = 2.0;  // must be ignored: not truncated
  buffer.add(s);
  buffer.compute_gae(0.5, 0.95, 0.0, false);
  EXPECT_NEAR(buffer.samples()[0].advantage, 0.4, 1e-12);
}

// ---------------- RoutingEnv truncation semantics ----------------

core::ScenarioParams tiny_params() {
  core::ScenarioParams p;
  p.sequence_length = 12;
  p.cycle_length = 4;
  p.train_sequences = 2;
  p.test_sequences = 1;
  return p;
}

core::EnvConfig tiny_env_config() {
  core::EnvConfig cfg;
  cfg.memory = 3;
  return cfg;
}

std::vector<core::Scenario> tiny_scenarios(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::Scenario> scenarios;
  scenarios.push_back(
      core::make_scenario(topo::by_name("SmallRing"), tiny_params(), rng));
  return scenarios;
}

TEST(RoutingEnvTruncation, SequenceEndIsAlsoTruncation) {
  core::RoutingEnv env(tiny_scenarios(4), tiny_env_config(), 1);
  env.reset();
  const std::vector<double> action(static_cast<size_t>(env.action_dim()),
                                   0.0);
  const int len = env.episode_length();
  for (int t = 0; t < len; ++t) {
    const auto r = env.step(action);
    EXPECT_EQ(r.done, t == len - 1);
    if (r.done) {
      EXPECT_TRUE(r.truncated);
      EXPECT_FALSE(r.obs.flat.empty());
    }
  }
}

// ---------------- VecEnvCollector determinism ----------------

// Deterministic toy env (reward peaks when the action hits a per-instance
// target); episodes are 5 steps, so a 7-step segment ends mid-episode and
// exercises the truncated-tail bootstrap.
class TargetEnv final : public rl::Env {
 public:
  explicit TargetEnv(double target, int episode_len = 5)
      : target_(target), episode_len_(episode_len) {}

  rl::Observation reset() override {
    t_ = 0;
    return make_obs();
  }

  StepResult step(std::span<const double> action) override {
    StepResult r;
    const double err = action[0] - target_;
    r.reward = -err * err;
    r.done = ++t_ >= episode_len_;
    if (!r.done) r.obs = make_obs();
    return r;
  }

  int action_dim() const override { return 1; }

 private:
  rl::Observation make_obs() const {
    rl::Observation obs;
    obs.flat = {1.0};
    obs.num_nodes = 1;
    obs.nodes = nn::Tensor(1, 1, 1.0F);
    obs.edges = nn::Tensor(0, 1);
    obs.globals = nn::Tensor(1, 1);
    return obs;
  }
  double target_;
  int episode_len_;
  int t_ = 0;
};

rl::RolloutBuffer collect_with_pool(util::ThreadPool* pool, int steps_per_env,
                                    rl::VecEnvCollector::CollectStats* stats) {
  util::Rng prng(21);
  core::MlpPolicyConfig pcfg;
  pcfg.pi_hidden = {8};
  pcfg.vf_hidden = {8};
  core::MlpPolicy policy(1, 1, pcfg, prng);
  std::vector<TargetEnv> envs;
  for (int i = 0; i < 4; ++i) {
    envs.emplace_back(0.25 * i);
  }
  std::vector<rl::Env*> env_ptrs;
  for (auto& env : envs) env_ptrs.push_back(&env);
  rl::VecEnvCollector collector(policy, env_ptrs, /*seed=*/99, pool);
  rl::RolloutBuffer buffer;
  const auto s = collector.collect(steps_per_env, /*reward_scale=*/1.0,
                                   buffer);
  if (stats != nullptr) *stats = s;
  return buffer;
}

TEST(VecEnvCollector, ParallelCollectionBitIdenticalToSerial) {
  rl::VecEnvCollector::CollectStats serial_stats;
  rl::VecEnvCollector::CollectStats parallel_stats;
  const rl::RolloutBuffer serial =
      collect_with_pool(nullptr, 7, &serial_stats);
  util::ThreadPool pool(4);
  const rl::RolloutBuffer parallel =
      collect_with_pool(&pool, 7, &parallel_stats);

  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), 28U);  // 4 envs x 7 steps, env-major
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const rl::StepSample& a = serial.samples()[i];
    const rl::StepSample& b = parallel.samples()[i];
    ASSERT_EQ(a.action.size(), b.action.size()) << "sample " << i;
    for (std::size_t k = 0; k < a.action.size(); ++k) {
      EXPECT_EQ(a.action[k], b.action[k]) << "sample " << i;
    }
    EXPECT_EQ(a.log_prob, b.log_prob) << "sample " << i;
    EXPECT_EQ(a.value, b.value) << "sample " << i;
    EXPECT_EQ(a.reward, b.reward) << "sample " << i;
    EXPECT_EQ(a.done, b.done) << "sample " << i;
    EXPECT_EQ(a.truncated, b.truncated) << "sample " << i;
    EXPECT_EQ(a.bootstrap_value, b.bootstrap_value) << "sample " << i;
  }
  EXPECT_EQ(serial_stats.steps, parallel_stats.steps);
  EXPECT_EQ(serial_stats.episodes, parallel_stats.episodes);
  EXPECT_EQ(serial_stats.episode_reward_sum,
            parallel_stats.episode_reward_sum);
}

TEST(VecEnvCollector, SegmentTailIsTruncatedWithBootstrap) {
  // 7 steps of a 5-step episode: each env's segment ends 2 steps into its
  // second episode, so the last sample per env must be a truncated cut.
  const rl::RolloutBuffer buffer = collect_with_pool(nullptr, 7, nullptr);
  for (int env = 0; env < 4; ++env) {
    const rl::StepSample& boundary =
        buffer.samples()[static_cast<size_t>(env) * 7 + 4];
    const rl::StepSample& tail =
        buffer.samples()[static_cast<size_t>(env) * 7 + 6];
    EXPECT_TRUE(boundary.done);       // first episode's genuine terminal
    EXPECT_FALSE(boundary.truncated);
    EXPECT_FALSE(tail.done);
    EXPECT_TRUE(tail.truncated);
  }
}

// ---------------- PPO update across worker counts ----------------

// FNV-1a over the raw bytes of every parameter value.
std::uint64_t hash_parameters(const std::vector<nn::Parameter*>& params) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const nn::Parameter* p : params) {
    const auto data = p->value.data();
    const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
    for (std::size_t i = 0; i < data.size() * sizeof(float); ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  }
  return h;
}

struct TrainedState {
  std::uint64_t params_hash = 0;
  std::string checkpoint;  // parameters, Adam moments and step count, RNGs
};

// Two PPO iterations of a GNN policy on Abilene.  The update's stacked
// minibatch matmuls (e.g. 1792 x 32 x 32 edge rows) are far above the
// sharding threshold, so a pool splits them across workers.
TrainedState train_two_iterations(util::ThreadPool* pool,
                                  const std::string& tag) {
  util::Rng srng(61);
  core::ScenarioParams sp;
  sp.sequence_length = 12;
  sp.cycle_length = 4;
  sp.train_sequences = 2;
  sp.test_sequences = 1;
  const core::Scenario scenario =
      core::make_scenario(topo::abilene(), sp, srng);
  core::EnvConfig env_config;
  env_config.memory = 3;
  auto envs = core::make_vec_envs({scenario}, env_config, 62, 2);
  std::vector<rl::Env*> env_ptrs;
  for (const auto& env : envs) env_ptrs.push_back(env.get());
  util::Rng prng(63);
  core::GnnPolicy policy(core::experiment_gnn_config(3), prng);
  rl::PpoConfig ppo = core::routing_ppo_config();
  ppo.rollout_steps = 128;
  ppo.epochs = 2;
  rl::PpoTrainer trainer(policy, env_ptrs, ppo, 64, pool);
  for (int i = 0; i < 2; ++i) trainer.train_iteration();

  TrainedState state;
  state.params_hash = hash_parameters(policy.parameters());
  const std::string path =
      (std::filesystem::temp_directory_path() / ("gddr_ppo_pool_" + tag))
          .string();
  trainer.save_checkpoint(path);
  std::ifstream in(path, std::ios::binary);
  state.checkpoint.assign(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  return state;
}

TEST(PpoUpdateParallel, ParametersAndAdamStateBitIdenticalAcrossWorkerCounts) {
  const TrainedState serial = train_two_iterations(nullptr, "serial");
  ASSERT_FALSE(serial.checkpoint.empty());
  for (const int workers : {2, 4}) {
    util::ThreadPool pool(workers);
    const TrainedState pooled =
        train_two_iterations(&pool, "w" + std::to_string(workers));
    EXPECT_EQ(pooled.params_hash, serial.params_hash)
        << workers << " workers";
    EXPECT_TRUE(pooled.checkpoint == serial.checkpoint)
        << workers << " workers: checkpoint bytes differ";
  }
}

// ---------------- Bounded thread-safe OptimalCache ----------------

graph::DiGraph two_parallel_paths() {
  graph::DiGraph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(0, 2, 10.0);
  g.add_edge(2, 1, 10.0);
  return g;
}

traffic::DemandMatrix demand_to_1(double amount) {
  traffic::DemandMatrix dm(3);
  dm.set(0, 1, amount);
  return dm;
}

TEST(CacheBounded, EvictsLeastRecentlyUsed) {
  mcf::OptimalCache cache(/*capacity=*/2);
  const graph::DiGraph g = two_parallel_paths();
  cache.u_max(g, demand_to_1(1.0));  // miss: {1}
  cache.u_max(g, demand_to_1(2.0));  // miss: {1, 2}
  cache.u_max(g, demand_to_1(1.0));  // hit, refreshes 1: {2, 1}
  cache.u_max(g, demand_to_1(3.0));  // miss, evicts 2: {1, 3}
  EXPECT_EQ(cache.size(), 2U);
  EXPECT_EQ(cache.evictions(), 1U);
  cache.u_max(g, demand_to_1(1.0));  // still cached (was refreshed)
  EXPECT_EQ(cache.hits(), 2U);
  cache.u_max(g, demand_to_1(2.0));  // evicted above: miss again
  EXPECT_EQ(cache.misses(), 4U);
  EXPECT_LE(cache.size(), 2U);
}

TEST(CacheBounded, ConcurrentStressMatchesSerialReference) {
  const graph::DiGraph g = topo::by_name("SmallRing");
  constexpr std::size_t kDistinct = 12;
  constexpr std::size_t kQueries = 96;
  std::vector<traffic::DemandMatrix> dms;
  for (std::size_t i = 0; i < kDistinct; ++i) {
    util::Rng rng(1000 + i);
    dms.push_back(traffic::bimodal_matrix(g.num_nodes(),
                                          traffic::BimodalParams{}, rng));
  }
  // Serial reference values with an unbounded cache.
  mcf::OptimalCache reference;
  std::vector<double> expected;
  for (const auto& dm : dms) expected.push_back(reference.u_max(g, dm));

  // Small capacity so the stress run must evict and recompute; the values
  // returned under contention must still match the serial reference.
  mcf::OptimalCache cache(/*capacity=*/8);
  util::ThreadPool pool(4);
  std::vector<double> got(kQueries);
  util::parallel_for(&pool, kQueries, [&](std::size_t q) {
    got[q] = cache.u_max(g, dms[q % kDistinct]);
  });
  for (std::size_t q = 0; q < kQueries; ++q) {
    EXPECT_EQ(got[q], expected[q % kDistinct]) << "query " << q;
  }
  // Exactly one hit-or-miss per query; the map never exceeds its bound.
  EXPECT_EQ(cache.hits() + cache.misses(), kQueries);
  EXPECT_LE(cache.size(), 8U);
  EXPECT_GT(cache.evictions(), 0U);
}

// ---------------- Softmin numeric properties ----------------

TEST(SoftminProperty, LargeGammaWithTiedDistancesStaysFinite) {
  for (const double gamma : {1e6, 1e7, 1e8}) {
    const std::vector<double> x = {5.0, 5.0, 5.0, 7.0};
    const auto p = routing::softmin(x, gamma);
    ASSERT_EQ(p.size(), x.size());
    double sum = 0.0;
    for (const double v : p) {
      EXPECT_TRUE(std::isfinite(v)) << "gamma " << gamma;
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "gamma " << gamma;
    // Tied minima split the mass equally; the dominated entry gets none.
    EXPECT_NEAR(p[0], 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(p[1], p[0], 1e-12);
    EXPECT_NEAR(p[2], p[0], 1e-12);
    EXPECT_NEAR(p[3], 0.0, 1e-9);
  }
}

TEST(SoftminProperty, HugeMagnitudeInputsDoNotOverflow) {
  const std::vector<double> x = {1e300, 1e300};
  const auto p = routing::softmin(x, 1e8);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[1], 0.5, 1e-12);
}

// ---------------- Parallel evaluation determinism ----------------

TEST(EvaluateParallel, FixedRoutingBitIdenticalAcrossWorkerCounts) {
  util::Rng rng(31);
  core::ScenarioParams params = tiny_params();
  params.test_sequences = 3;
  std::vector<core::Scenario> scenarios;
  scenarios.push_back(
      core::make_scenario(topo::by_name("SmallRing"), params, rng));

  const auto shortest = [](const graph::DiGraph& g) {
    return routing::shortest_path_routing(g);
  };
  mcf::OptimalCache serial_cache;
  const core::EvalResult serial = core::evaluate_fixed(
      scenarios, /*memory=*/3, serial_cache, shortest, nullptr);

  util::ThreadPool pool(4);
  mcf::OptimalCache parallel_cache;
  const core::EvalResult parallel = core::evaluate_fixed(
      scenarios, /*memory=*/3, parallel_cache, shortest, &pool);

  EXPECT_EQ(serial.mean_ratio, parallel.mean_ratio);
  EXPECT_EQ(serial.stddev, parallel.stddev);
  EXPECT_EQ(serial.min_ratio, parallel.min_ratio);
  EXPECT_EQ(serial.max_ratio, parallel.max_ratio);
  EXPECT_EQ(serial.steps, parallel.steps);
  EXPECT_EQ(serial.episodes, parallel.episodes);
}

}  // namespace
}  // namespace gddr
