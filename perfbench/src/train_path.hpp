// The training path: PPO (rl::PpoTrainer over vectorised core::RoutingEnvs
// sharing one LP cache, routing_ppo_config() with 128-step rollouts) for a
// fixed iteration budget, then core::evaluate_policy on the test sequences.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluate.hpp"
#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "core/scenario.hpp"
#include "inputs.hpp"
#include "rl/ppo.hpp"

namespace gddr::perfbench {

struct TrainPlan {
  TrainKind kind = TrainKind::kAbileneCyclic;
  std::uint64_t traffic_seed = 0;
  int setup_reps = 5;
  // Traced run: obs::Registry on during the iterations, plus timed
  // RoutingEnv::step and mcf::solve_optimal calls on the workload's
  // distinct matrices.
  bool traced = false;
};

struct TrainResult {
  std::vector<double> setup_s;      // one per set-up sample
  std::vector<double> steps_per_s;  // one per timed iteration
  long steps = 0;                   // timed training env steps
  long nonfinite_events = 0;
  long cache_hits = 0;    // LP cache, over the timed iterations
  long cache_misses = 0;
  long exact_solves = 0;  // over the whole run, evaluation included
  long approx_solves = 0;
  core::EvalResult eval;
  // Traced run only.
  double collect_s = 0.0;   // per iteration
  double update_s = 0.0;    // per iteration
  double backward_s = 0.0;  // per iteration
  double solve_s = 0.0;     // LP solves per iteration, summed over threads
  double pivots_per_solve = 0.0;
  double env_step_us = 0.0;  // median RoutingEnv::step
  double solve_ms = 0.0;     // median mcf::solve_optimal
};

// Timed iterations per run: iterations_per_10s scaled to `seconds`.
int iterations_for(const WorkloadSpec& spec, double seconds);

// One training run, driven in steps so that a workload can interleave its
// iterations with serving rounds.
class TrainSession {
 public:
  // Builds the session (scenario, vectorised envs, policy, trainer)
  // plan.setup_reps times, timing each build; the last one trains.  The
  // envs are collected and evaluated inline, on the calling thread.
  explicit TrainSession(const TrainPlan& plan);

  // Runs `iterations` timed PPO iterations.
  void iterate(int iterations);

  // Times one more set-up (a spare session, discarded), so that the set-up
  // samples can span the run rather than its first milliseconds.
  void time_setup();

  // Reads the traced timings and evaluates the policy on the test
  // sequences.  Ends the session.
  TrainResult finish();

 private:
  // Declared so that the trainer is destroyed before what it uses.
  struct Parts {
    std::unique_ptr<core::Scenario> scenario;
    std::vector<std::unique_ptr<core::RoutingEnv>> envs;
    std::unique_ptr<core::GnnPolicy> policy;
    std::unique_ptr<rl::PpoTrainer> trainer;
  };

  // Builds scenario, envs, policy and trainer into the empty `parts` and
  // records the time taken as one set-up sample.
  void build(Parts& parts);

  TrainPlan plan_;
  TrainResult result_;
  int iterations_ = 0;
  Parts parts_;
};

}  // namespace gddr::perfbench
