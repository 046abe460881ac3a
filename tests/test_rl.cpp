#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/iterative_env.hpp"
#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "core/scenario.hpp"
#include "nn/gaussian.hpp"
#include "obs/metrics.hpp"
#include "rl/forward.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "topo/generators.hpp"
#include "topo/zoo.hpp"

namespace gddr::rl {
namespace {

// ---------------- GAE ----------------

StepSample make_sample(double reward, double value, bool done) {
  StepSample s;
  s.reward = reward;
  s.value = value;
  s.done = done;
  return s;
}

TEST(Gae, SingleStepTerminal) {
  RolloutBuffer buffer;
  buffer.add(make_sample(1.0, 0.5, true));
  buffer.compute_gae(0.99, 0.95, /*last_value=*/123.0, false);
  // Terminal: delta = r - V = 0.5; bootstrap ignored.
  EXPECT_NEAR(buffer.samples()[0].advantage, 0.5, 1e-12);
  EXPECT_NEAR(buffer.samples()[0].return_, 1.0, 1e-12);
}

TEST(Gae, BootstrapUsedWhenNotDone) {
  RolloutBuffer buffer;
  buffer.add(make_sample(1.0, 0.5, false));
  buffer.compute_gae(0.9, 1.0, /*last_value=*/2.0, false);
  // delta = 1 + 0.9*2 - 0.5 = 2.3
  EXPECT_NEAR(buffer.samples()[0].advantage, 2.3, 1e-12);
}

TEST(Gae, HandComputedTwoSteps) {
  RolloutBuffer buffer;
  buffer.add(make_sample(1.0, 1.0, false));
  buffer.add(make_sample(2.0, 2.0, true));
  const double gamma = 0.5;
  const double lambda = 0.5;
  buffer.compute_gae(gamma, lambda, 0.0, false);
  // Step 1 (terminal): delta1 = 2 - 2 = 0, A1 = 0.
  // Step 0: delta0 = 1 + 0.5*2 - 1 = 1; A0 = 1 + 0.25*0 = 1.
  EXPECT_NEAR(buffer.samples()[1].advantage, 0.0, 1e-12);
  EXPECT_NEAR(buffer.samples()[0].advantage, 1.0, 1e-12);
  EXPECT_NEAR(buffer.samples()[0].return_, 2.0, 1e-12);
}

TEST(Gae, DoneBlocksCreditAcrossEpisodes) {
  RolloutBuffer buffer;
  buffer.add(make_sample(0.0, 0.0, true));   // episode 1 ends
  buffer.add(make_sample(10.0, 0.0, true));  // episode 2
  buffer.compute_gae(0.99, 0.95, 0.0, false);
  // The huge reward of episode 2 must not leak into episode 1.
  EXPECT_NEAR(buffer.samples()[0].advantage, 0.0, 1e-12);
}

TEST(Gae, NormalisationZeroMeanUnitStd) {
  RolloutBuffer buffer;
  for (int i = 0; i < 10; ++i) {
    buffer.add(make_sample(i, 0.0, i == 9));
  }
  buffer.compute_gae(0.9, 0.9, 0.0, true);
  double mean = 0.0;
  for (const auto& s : buffer.samples()) mean += s.advantage;
  mean /= 10.0;
  double var = 0.0;
  for (const auto& s : buffer.samples()) {
    var += (s.advantage - mean) * (s.advantage - mean);
  }
  EXPECT_NEAR(mean, 0.0, 1e-9);
  EXPECT_NEAR(std::sqrt(var / 10.0), 1.0, 1e-6);
}

TEST(Gae, LambdaOneEqualsMonteCarloReturns) {
  RolloutBuffer buffer;
  buffer.add(make_sample(1.0, 0.0, false));
  buffer.add(make_sample(1.0, 0.0, false));
  buffer.add(make_sample(1.0, 0.0, true));
  const double gamma = 0.5;
  buffer.compute_gae(gamma, 1.0, 0.0, false);
  // Discounted returns: 1 + 0.5 + 0.25 = 1.75 etc.; V=0 so A = G.
  EXPECT_NEAR(buffer.samples()[0].return_, 1.75, 1e-12);
  EXPECT_NEAR(buffer.samples()[1].return_, 1.5, 1e-12);
  EXPECT_NEAR(buffer.samples()[2].return_, 1.0, 1e-12);
}

// ---------------- PPO on a trivial continuous-control task ----------------

// Reward is highest when the action matches a fixed target; the state is
// constant, so the policy just has to shift its mean.
class TargetEnv final : public Env {
 public:
  explicit TargetEnv(double target, int episode_len = 8)
      : target_(target), episode_len_(episode_len) {}

  Observation reset() override {
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
  Observation make_obs() const {
    Observation obs;
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

TEST(Ppo, LearnsConstantTarget) {
  util::Rng rng(7);
  core::MlpPolicyConfig pcfg;
  pcfg.pi_hidden = {16};
  pcfg.vf_hidden = {16};
  core::MlpPolicy policy(1, 1, pcfg, rng);
  TargetEnv env(0.6);
  PpoConfig cfg;
  cfg.rollout_steps = 128;
  cfg.minibatch_size = 32;
  cfg.epochs = 4;
  cfg.learning_rate = 3e-3;
  PpoTrainer trainer(policy, env, cfg, 11);

  double first_reward = 0.0;
  for (int iter = 0; iter < 30; ++iter) {
    const auto stats = trainer.train_iteration();
    if (iter == 0) first_reward = stats.mean_episode_reward;
  }
  const Observation obs = env.reset();
  const auto mean = trainer.act_deterministic(obs);
  EXPECT_NEAR(mean[0], 0.6, 0.15);
  EXPECT_GT(trainer.total_env_steps(), 3000);
  (void)first_reward;
}

TEST(Ppo, StatsPopulated) {
  util::Rng rng(8);
  core::MlpPolicyConfig pcfg;
  pcfg.pi_hidden = {8};
  pcfg.vf_hidden = {8};
  core::MlpPolicy policy(1, 1, pcfg, rng);
  TargetEnv env(0.0);
  PpoConfig cfg;
  cfg.rollout_steps = 64;
  cfg.minibatch_size = 32;
  PpoTrainer trainer(policy, env, cfg, 3);
  const auto stats = trainer.train_iteration();
  EXPECT_EQ(stats.steps, 64);
  EXPECT_GT(stats.episodes, 0);
  EXPECT_NE(stats.value_loss, 0.0);
  EXPECT_NE(stats.entropy, 0.0);
}

TEST(Ppo, TrainRunsUntilStepTarget) {
  util::Rng rng(9);
  core::MlpPolicyConfig pcfg;
  pcfg.pi_hidden = {8};
  pcfg.vf_hidden = {8};
  core::MlpPolicy policy(1, 1, pcfg, rng);
  TargetEnv env(0.0);
  PpoConfig cfg;
  cfg.rollout_steps = 32;
  cfg.minibatch_size = 16;
  PpoTrainer trainer(policy, env, cfg, 5);
  int callbacks = 0;
  trainer.train(100, [&](const PpoIterationStats&) { ++callbacks; });
  EXPECT_GE(trainer.total_env_steps(), 100);
  EXPECT_EQ(callbacks, 4);  // ceil(100/32) = 4 iterations
}

TEST(Ppo, DeterministicActionIsMean) {
  util::Rng rng(10);
  core::MlpPolicyConfig pcfg;
  core::MlpPolicy policy(1, 1, pcfg, rng);
  TargetEnv env(0.0);
  PpoTrainer trainer(policy, env, PpoConfig{}, 1);
  const Observation obs = env.reset();
  const auto a1 = trainer.act_deterministic(obs);
  const auto a2 = trainer.act_deterministic(obs);
  ASSERT_EQ(a1.size(), 1U);
  EXPECT_EQ(a1[0], a2[0]);  // no sampling noise
}

TEST(Ppo, RewardScaleAppliedToValueTargetsNotStats) {
  util::Rng rng(11);
  core::MlpPolicyConfig pcfg;
  pcfg.pi_hidden = {8};
  pcfg.vf_hidden = {8};
  core::MlpPolicy policy(1, 1, pcfg, rng);
  TargetEnv env(5.0);  // large constant negative rewards
  PpoConfig cfg;
  cfg.rollout_steps = 32;
  cfg.reward_scale = 0.01;
  PpoTrainer trainer(policy, env, cfg, 2);
  const auto stats = trainer.train_iteration();
  // mean_episode_reward reports unscaled rewards (around -25 * 8 steps).
  EXPECT_LT(stats.mean_episode_reward, -50.0);
}

// ---------------- stacked minibatch update vs per-sample reference ----------------

// Test-only reference: the PPO2 minibatch loss built one sample at a time
// (one policy forward per sample, scalar ops), the formula the stacked
// ppo_minibatch_loss replaced.
struct ReferenceLoss {
  double total = 0.0;
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double entropy = 0.0;
  double approx_kl = 0.0;
  double clip_fraction = 0.0;
  std::vector<nn::Tensor> grads;
};

ReferenceLoss per_sample_reference(Policy& policy,
                                   const std::vector<const StepSample*>& batch,
                                   const PpoConfig& config) {
  using nn::Tape;
  Tape tape;
  Tape::Var total_loss = tape.zeros(1, 1);
  ReferenceLoss ref;
  const auto clip = static_cast<float>(config.clip_epsilon);
  for (const StepSample* sp : batch) {
    const StepSample& s = *sp;
    const int adim = static_cast<int>(s.action.size());
    const Tape::Var mean = policy.action_mean(tape, s.obs);
    const Tape::Var log_std = policy.log_std_row(tape, adim);
    const nn::Tensor action_row = nn::Tensor::row(
        std::span<const double>(s.action.data(), s.action.size()));
    const Tape::Var log_prob =
        nn::diag_gaussian_log_prob(tape, mean, log_std, action_row);
    const Tape::Var ratio = tape.exp(
        tape.add_scalar(log_prob, static_cast<float>(-s.log_prob)));
    const auto adv = static_cast<float>(s.advantage);
    const Tape::Var surr1 = tape.scale(ratio, adv);
    const Tape::Var surr2 =
        tape.scale(tape.clip(ratio, 1.0F - clip, 1.0F + clip), adv);
    const Tape::Var policy_loss = tape.neg(tape.minimum(surr1, surr2));
    const Tape::Var v = policy.value(tape, s.obs);
    const auto v_old = static_cast<float>(s.value);
    const auto ret = static_cast<float>(s.return_);
    const Tape::Var v_err = tape.square(tape.add_scalar(v, -ret));
    const Tape::Var v_clipped = tape.add_scalar(
        tape.clip(tape.add_scalar(v, -v_old), -clip, clip), v_old - ret);
    const Tape::Var value_loss =
        tape.scale(tape.maximum(v_err, tape.square(v_clipped)), 0.5F);
    const Tape::Var entropy = nn::diag_gaussian_entropy(tape, log_std);
    Tape::Var loss = tape.add(
        policy_loss,
        tape.scale(value_loss, static_cast<float>(config.value_coef)));
    loss = tape.sub(
        loss, tape.scale(entropy, static_cast<float>(config.entropy_coef)));
    total_loss = tape.add(total_loss, loss);

    const double lp_new = tape.value(log_prob).at(0, 0);
    ref.approx_kl += s.log_prob - lp_new;
    if (std::abs(std::exp(lp_new - s.log_prob) - 1.0) > config.clip_epsilon) {
      ref.clip_fraction += 1.0;
    }
    ref.policy_loss += tape.value(policy_loss).at(0, 0);
    ref.value_loss += tape.value(value_loss).at(0, 0);
    ref.entropy += tape.value(entropy).at(0, 0);
  }
  const auto n = static_cast<double>(batch.size());
  total_loss = tape.scale(total_loss, 1.0F / static_cast<float>(n));
  const auto params = policy.parameters();
  nn::zero_grads(params);
  tape.backward(total_loss);
  ref.total = tape.value(total_loss).at(0, 0);
  ref.policy_loss /= n;
  ref.value_loss /= n;
  ref.entropy /= n;
  ref.approx_kl /= n;
  ref.clip_fraction /= n;
  for (const nn::Parameter* p : params) ref.grads.push_back(p->grad);
  return ref;
}

// Samples as collection would record them, spread so that both the
// surrogate and the value clip engage: the behaviour log-prob and value
// are perturbed away from the current policy's.
std::vector<StepSample> make_samples(Policy& policy,
                                     const std::vector<Observation>& observations,
                                     int count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<StepSample> samples;
  for (int i = 0; i < count; ++i) {
    const Observation& obs =
        observations[static_cast<std::size_t>(i) % observations.size()];
    const PolicyForward fwd = forward_policy(policy, obs);
    StepSample s;
    s.obs = obs;
    s.action = nn::sample_diag_gaussian(fwd.mean, fwd.log_std, rng);
    s.log_prob = action_log_prob(s.action, fwd.mean, fwd.log_std) +
                 rng.uniform(-0.4, 0.4);
    s.value = fwd.value + rng.uniform(-0.5, 0.5);
    s.advantage = rng.normal();
    s.return_ = s.value + 0.5 * rng.normal();
    samples.push_back(std::move(s));
  }
  return samples;
}

double max_abs(const nn::Tensor& t) {
  double m = 0.0;
  for (float v : t.data()) m = std::max(m, static_cast<double>(std::abs(v)));
  return m;
}

// One minibatch: stacked loss and gradients against the per-sample
// reference.
void expect_matches_reference(Policy& policy,
                              const std::vector<StepSample>& samples,
                              const std::string& what) {
  PpoConfig config;
  config.entropy_coef = 0.01;  // large enough to matter in the gradient
  std::vector<const StepSample*> batch;
  for (const StepSample& s : samples) batch.push_back(&s);
  const ReferenceLoss ref = per_sample_reference(policy, batch, config);

  nn::Tape tape;
  const MinibatchLoss got = ppo_minibatch_loss(tape, policy, batch, config);
  const auto params = policy.parameters();
  nn::zero_grads(params);
  tape.backward(got.total);

  const double loss = tape.value(got.total).at(0, 0);
  EXPECT_NEAR(loss, ref.total, 1e-6 * std::abs(ref.total)) << what;
  const auto near = [&](double a, double b, const char* stat) {
    EXPECT_NEAR(a, b, 1e-6 * std::max(1.0, std::abs(b))) << what << " " << stat;
  };
  near(got.policy_loss, ref.policy_loss, "policy_loss");
  near(got.value_loss, ref.value_loss, "value_loss");
  near(got.entropy, ref.entropy, "entropy");
  near(got.approx_kl, ref.approx_kl, "approx_kl");
  near(got.clip_fraction, ref.clip_fraction, "clip_fraction");
  EXPECT_GT(ref.clip_fraction, 0.0) << what << ": clipping never engaged";

  double grad_scale = 0.0;
  for (const nn::Tensor& g : ref.grads) grad_scale = std::max(grad_scale, max_abs(g));
  ASSERT_GT(grad_scale, 0.0) << what;
  ASSERT_EQ(params.size(), ref.grads.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    const auto g = params[p]->grad.data();
    const auto r = ref.grads[p].data();
    ASSERT_EQ(g.size(), r.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
      ASSERT_NEAR(g[i], r[i], 1e-5 * grad_scale)
          << what << " param " << p << " element " << i;
    }
  }
}

core::ScenarioParams small_scenario_params() {
  core::ScenarioParams p;
  p.sequence_length = 12;
  p.cycle_length = 4;
  p.train_sequences = 1;
  p.test_sequences = 1;
  return p;
}

std::vector<core::Scenario> scenarios_for(const std::string& workload) {
  util::Rng rng(41);
  std::vector<core::Scenario> out;
  if (workload != "nsfnet") {
    out.push_back(
        core::make_scenario(topo::abilene(), small_scenario_params(), rng));
  }
  if (workload != "abilene") {
    out.push_back(
        core::make_scenario(topo::nsfnet(), small_scenario_params(), rng));
  }
  if (workload == "mixed") {
    out.push_back(core::make_scenario(topo::barabasi_albert(30, 2, rng),
                                      small_scenario_params(), rng));
  }
  return out;
}

constexpr int kMemory = 3;

// Routing observations at several demand-history positions per scenario.
std::vector<Observation> routing_observations(
    const std::vector<core::Scenario>& scenarios) {
  std::vector<Observation> out;
  for (int t = kMemory; t < kMemory + 4; ++t) {
    for (const core::Scenario& s : scenarios) {
      out.push_back(core::RoutingEnv::build_observation(
          s, s.train_sequences.front(), t, kMemory));
    }
  }
  return out;
}

// Iterative-env observations a few micro-steps into the first demand
// matrix (no episode boundary, so no LP solve).
std::vector<Observation> iterative_observations(
    const std::vector<core::Scenario>& scenarios) {
  std::vector<Observation> out;
  for (const core::Scenario& s : scenarios) {
    core::IterativeEnvConfig cfg;
    cfg.memory = kMemory;
    core::IterativeRoutingEnv env({s}, cfg, 1);
    Observation obs = env.reset();
    for (int k = 0; k < 4; ++k) {
      out.push_back(obs);
      obs = env.step(std::vector<double>{0.1 * k, -0.2}).obs;
    }
  }
  return out;
}

TEST(PpoStackedUpdate, MlpMatchesPerSampleReference) {
  for (const std::string workload : {"abilene", "nsfnet"}) {
    const auto scenarios = scenarios_for(workload);
    const auto observations = routing_observations(scenarios);
    const int n = scenarios.front().graph.num_nodes();
    util::Rng rng(42);
    core::MlpPolicyConfig pcfg;
    pcfg.pi_hidden = {32};
    pcfg.vf_hidden = {32};
    core::MlpPolicy policy(kMemory * n * n,
                           scenarios.front().graph.num_edges(), pcfg, rng);
    for (int mb = 0; mb < 2; ++mb) {
      expect_matches_reference(
          policy, make_samples(policy, observations, 64, 43 + mb),
          "MLP " + workload + " minibatch " + std::to_string(mb));
    }
  }
}

TEST(PpoStackedUpdate, GnnMatchesPerSampleReference) {
  for (const std::string workload : {"abilene", "nsfnet", "mixed"}) {
    const auto observations = routing_observations(scenarios_for(workload));
    util::Rng rng(44);
    core::GnnPolicyConfig pcfg;
    pcfg.memory = kMemory;
    core::GnnPolicy policy(pcfg, rng);
    for (int mb = 0; mb < 2; ++mb) {
      expect_matches_reference(
          policy, make_samples(policy, observations, 32, 45 + mb),
          "GNN " + workload + " minibatch " + std::to_string(mb));
    }
  }
}

TEST(PpoStackedUpdate, IterativeGnnMatchesPerSampleReference) {
  for (const std::string workload : {"abilene", "nsfnet", "mixed"}) {
    const auto observations = iterative_observations(scenarios_for(workload));
    util::Rng rng(46);
    core::IterativeGnnPolicyConfig pcfg;
    pcfg.memory = kMemory;
    core::IterativeGnnPolicy policy(pcfg, rng);
    expect_matches_reference(policy,
                             make_samples(policy, observations, 32, 47),
                             "iterative GNN " + workload);
  }
}

// The stacked evaluation's rows are the per-observation forwards, bit for
// bit, including across topologies in one minibatch.
TEST(PpoStackedUpdate, EvaluateBatchRowsBitIdenticalToPerSampleForwards) {
  const auto observations = routing_observations(scenarios_for("mixed"));
  util::Rng rng(48);
  core::GnnPolicyConfig pcfg;
  pcfg.memory = kMemory;
  core::GnnPolicy policy(pcfg, rng);
  std::vector<const Observation*> obs;
  for (const Observation& o : observations) obs.push_back(&o);
  nn::Tape tape;
  const Policy::BatchEvaluation eval = policy.evaluate_batch(tape, obs);
  const nn::Tensor& means = tape.value(eval.means);
  const nn::Tensor& log_std = tape.value(eval.log_std);
  const nn::Tensor& values = tape.value(eval.values);
  int row = 0;
  for (std::size_t b = 0; b < obs.size(); ++b) {
    const PolicyForward fwd = forward_policy(policy, *obs[b]);
    for (std::size_t j = 0; j < fwd.mean.size(); ++j, ++row) {
      EXPECT_EQ(static_cast<float>(fwd.mean[j]), means.at(row, 0));
      EXPECT_EQ(static_cast<float>(fwd.log_std[j]), log_std.at(row, 0));
    }
    EXPECT_EQ(static_cast<float>(fwd.value),
              values.at(static_cast<int>(b), 0));
  }
  EXPECT_EQ(row, means.rows());
}

// The trainer's update tape lives for the whole run and is reset per
// minibatch.  After a warm-up minibatch it must neither allocate nor grow
// its arena's free lists: every stacked input is built in arena storage.
void expect_update_tape_steady(Policy& policy,
                               const std::vector<StepSample>& samples,
                               const std::string& what) {
  std::vector<const StepSample*> batch;
  for (const StepSample& s : samples) batch.push_back(&s);
  const PpoConfig config;
  const auto params = policy.parameters();
  nn::Tape tape;
  std::uint64_t misses = 0;
  std::size_t pooled = 0;
  for (int iter = 0; iter < 6; ++iter) {
    tape.reset();
    const MinibatchLoss loss = ppo_minibatch_loss(tape, policy, batch, config);
    nn::zero_grads(params);
    tape.backward(loss.total);
    if (iter == 1) {
      misses = tape.arena_misses();
      pooled = tape.arena_pooled();
    } else if (iter > 1) {
      EXPECT_EQ(tape.arena_misses(), misses) << what << " iteration " << iter;
      EXPECT_EQ(tape.arena_pooled(), pooled) << what << " iteration " << iter;
    }
  }
}

TEST(PpoStackedUpdate, UpdateTapeArenaReachesSteadyState) {
  const auto scenarios = scenarios_for("abilene");
  const auto observations = routing_observations(scenarios);
  util::Rng rng(49);
  core::GnnPolicyConfig gcfg;
  gcfg.memory = kMemory;
  core::GnnPolicy gnn(gcfg, rng);
  expect_update_tape_steady(gnn, make_samples(gnn, observations, 64, 50),
                            "GNN");
  const int n = scenarios.front().graph.num_nodes();
  core::MlpPolicy mlp(kMemory * n * n, scenarios.front().graph.num_edges(),
                      core::MlpPolicyConfig{}, rng);
  expect_update_tape_steady(mlp, make_samples(mlp, observations, 64, 51),
                            "MLP");
}

// Wraps a policy and poisons the value head of exactly one minibatch
// evaluation, so that minibatch's loss is NaN.
class PoisonOnceValue final : public Policy {
 public:
  PoisonOnceValue(Policy& inner, int poisoned_call)
      : inner_(inner), poisoned_call_(poisoned_call) {}

  int action_dim(const Observation& obs) const override {
    return inner_.action_dim(obs);
  }
  nn::Tape::Var action_mean(nn::Tape& tape, const Observation& obs) override {
    return inner_.action_mean(tape, obs);
  }
  nn::Tape::Var value(nn::Tape& tape, const Observation& obs) override {
    return inner_.value(tape, obs);
  }
  nn::Tape::Var log_std_row(nn::Tape& tape, int adim) override {
    return inner_.log_std_row(tape, adim);
  }
  BatchEvaluation evaluate_batch(
      nn::Tape& tape, const std::vector<const Observation*>& obs) override {
    BatchEvaluation eval = inner_.evaluate_batch(tape, obs);
    if (calls_++ == poisoned_call_) {
      const nn::Tensor& v = tape.value(eval.values);
      eval.values = tape.add(
          eval.values,
          tape.constant(nn::Tensor(v.rows(), v.cols(),
                                   std::numeric_limits<float>::quiet_NaN())));
    }
    return eval;
  }
  std::vector<nn::Parameter*> parameters() override {
    return inner_.parameters();
  }
  std::string name() const override { return inner_.name(); }

 private:
  Policy& inner_;
  int poisoned_call_;
  int calls_ = 0;
};

double gauge_value(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& [label, value] : snap.gauges) {
    if (label == name) return value;
  }
  ADD_FAILURE() << "missing gauge " << name;
  return 0.0;
}

// A minibatch the watchdog rolls back must not reach the loss gauges: a
// NaN there would turn train/loss/minibatch_mean and _stddev into NaN.
TEST(Ppo, RolledBackMinibatchLeavesLossGaugesFinite) {
  util::Rng rng(12);
  core::MlpPolicyConfig pcfg;
  pcfg.pi_hidden = {8};
  pcfg.vf_hidden = {8};
  core::MlpPolicy inner(1, 1, pcfg, rng);
  PoisonOnceValue policy(inner, /*poisoned_call=*/2);
  TargetEnv env(0.3);
  PpoConfig cfg;
  cfg.rollout_steps = 64;
  cfg.minibatch_size = 16;
  PpoTrainer trainer(policy, env, cfg, 4);

  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  registry.enable();
  const PpoIterationStats stats = trainer.train_iteration();
  const obs::Snapshot snap = registry.snapshot();
  registry.disable();
  registry.reset();

  EXPECT_EQ(stats.nonfinite_events, 1);
  EXPECT_EQ(stats.health_rollbacks, 1);
  for (const char* gauge :
       {"train/loss/minibatch_mean", "train/loss/minibatch_stddev",
        "train/loss/policy", "train/loss/value", "train/entropy"}) {
    EXPECT_TRUE(std::isfinite(gauge_value(snap, gauge))) << gauge;
  }
  std::uint64_t minibatches = 0;
  for (const auto& [label, count] : snap.counters) {
    if (label == "train/minibatches") minibatches = count;
  }
  EXPECT_EQ(minibatches, 15U);  // 4 epochs x 4 minibatches, one rolled back
}

}  // namespace
}  // namespace gddr::rl
