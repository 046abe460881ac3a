#include "train_path.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string_view>

#include "core/experiment.hpp"
#include "mcf/optimal.hpp"
#include "obs/metrics.hpp"
#include "open_loop.hpp"
#include "stats.hpp"

namespace gddr::perfbench {

namespace {

constexpr int kEnvs = 4;          // vectorised envs (paper setup)
// Env steps per PPO iteration: a quarter of routing_ppo_config()'s 512.
// The update's cost scales with the rollout as the collection's does, so
// the rate is that of the paper's setup, but a run holds four times as
// many per-iteration samples (an Nsfnet iteration of 512 steps took ~10 s,
// three of them a run).
constexpr int kRolloutSteps = 128;
constexpr int kSolveSamples = 10;  // distinct matrices timed per traced run

double per_iteration(const obs::Snapshot& snap, std::string_view label,
                     long iterations) {
  for (const auto& [name, timer] : snap.timers) {
    if (name == label) return timer.total_s / static_cast<double>(iterations);
  }
  return 0.0;
}

double histogram_mean(const obs::Snapshot& snap, std::string_view label) {
  for (const auto& [name, h] : snap.histograms) {
    if (name == label && h.count > 0) {
      return h.sum / static_cast<double>(h.count);
    }
  }
  return 0.0;
}

// Median RoutingEnv::step time over one test episode driven by the
// trained policy, on an env sharing the run's LP cache.
double time_env_steps(const core::Scenario& scenario,
                      const core::RoutingEnv& trained_env,
                      rl::PpoTrainer& trainer) {
  core::RoutingEnv env({scenario}, core::EnvConfig{}, kTrainerSeed);
  env.set_shared_cache(trained_env.shared_cache());
  env.set_mode(core::RoutingEnv::Mode::kTest);
  rl::Observation obs = env.reset();
  std::vector<double> step_us;
  for (;;) {
    const std::vector<double> action = trainer.act_deterministic(obs);
    const Clock::time_point t0 = Clock::now();
    rl::Env::StepResult r = env.step(action);
    step_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    if (r.done) break;
    obs = std::move(r.obs);
  }
  return median(step_us);
}

// Median uncached optimum solve over distinct matrices of the first test
// sequence (positions memory.. are distinct for any cycle >= count).
double time_solves(const core::Scenario& scenario, int count) {
  const traffic::DemandSequence& seq = scenario.test_sequences.front();
  std::vector<double> ms;
  for (int j = 0; j < count && kMemory + j < static_cast<int>(seq.size());
       ++j) {
    const Clock::time_point t0 = Clock::now();
    (void)mcf::solve_optimal(scenario.graph,
                             seq[static_cast<std::size_t>(kMemory + j)]);
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  return median(ms);
}

}  // namespace

int iterations_for(const WorkloadSpec& spec, double seconds) {
  return std::max(1, static_cast<int>(std::lround(spec.iterations_per_10s *
                                                  seconds / 10.0)));
}

TrainSession::TrainSession(const TrainPlan& plan) : plan_(plan) {
  if (plan.traced) obs::Registry::instance().reset();
  for (int rep = 0; rep < std::max(1, plan.setup_reps); ++rep) {
    parts_.trainer.reset();
    parts_.policy.reset();
    parts_.envs.clear();
    parts_.scenario.reset();
    build(parts_);
  }
}

void TrainSession::build(Parts& parts) {
  const Clock::time_point t0 = Clock::now();
  parts.scenario = std::make_unique<core::Scenario>(
      training_scenario(plan_.kind, plan_.traffic_seed));
  core::EnvConfig env_config;
  env_config.memory = kMemory;
  parts.envs =
      core::make_vec_envs({*parts.scenario}, env_config, kTrainerSeed, kEnvs);
  util::Rng policy_rng(kPolicySeed);
  parts.policy = std::make_unique<core::GnnPolicy>(
      core::experiment_gnn_config(kMemory), policy_rng);
  std::vector<rl::Env*> env_ptrs;
  for (const auto& env : parts.envs) env_ptrs.push_back(env.get());
  rl::PpoConfig ppo = core::routing_ppo_config();
  ppo.rollout_steps = kRolloutSteps;
  parts.trainer = std::make_unique<rl::PpoTrainer>(
      *parts.policy, std::move(env_ptrs), ppo, kTrainerSeed);
  result_.setup_s.push_back(
      std::chrono::duration<double>(Clock::now() - t0).count());
}

void TrainSession::time_setup() {
  Parts spare;
  build(spare);
}

void TrainSession::iterate(int iterations) {
  obs::Registry& registry = obs::Registry::instance();
  if (plan_.traced) registry.enable();
  for (int it = 0; it < iterations; ++it) {
    const Clock::time_point t0 = Clock::now();
    const rl::PpoIterationStats stats = parts_.trainer->train_iteration();
    const double dt =
        std::chrono::duration<double>(Clock::now() - t0).count();
    result_.steps_per_s.push_back(static_cast<double>(stats.steps) / dt);
    result_.steps += stats.steps;
    result_.nonfinite_events += stats.nonfinite_events;
  }
  if (plan_.traced) registry.disable();
  iterations_ += iterations;
}

TrainResult TrainSession::finish() {
  obs::Registry& registry = obs::Registry::instance();
  if (plan_.traced && iterations_ > 0) {
    const obs::Snapshot snap = registry.snapshot();
    result_.collect_s = per_iteration(snap, "train/collect", iterations_);
    result_.update_s = per_iteration(snap, "train/update", iterations_);
    result_.backward_s =
        per_iteration(snap, "train/update/backward", iterations_);
    result_.solve_s = per_iteration(snap, "mcf/solve", iterations_);
    result_.pivots_per_solve = histogram_mean(snap, "lp/pivots_per_solve");
  }
  registry.reset();
  mcf::OptimalCache& cache = parts_.envs.front()->cache();
  result_.cache_hits = static_cast<long>(cache.hits());
  result_.cache_misses = static_cast<long>(cache.misses());

  if (plan_.traced) {
    result_.env_step_us = time_env_steps(*parts_.scenario,
                                         *parts_.envs.front(), *parts_.trainer);
    result_.solve_ms = time_solves(*parts_.scenario, kSolveSamples);
  }
  result_.eval = core::evaluate_policy(*parts_.trainer, *parts_.envs.front());
  result_.exact_solves = static_cast<long>(cache.exact_solves());
  result_.approx_solves = static_cast<long>(cache.approx_solves());

  return std::move(result_);
}

}  // namespace gddr::perfbench
