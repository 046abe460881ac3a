// Iterative routing environment for the Iterative-GNN policy
// (paper §VII-B).
//
// Instead of emitting all |E| edge weights at once, the agent sets one
// edge weight per micro-step.  The observation carries, per edge, the
// 3-tuple of Eq. 6: (current weight in [-1,1] or 0 if unset, a set flag,
// and a target flag marking the edge whose weight is decided this
// iteration).  The action is the global 2-tuple of Eq. 7: (weight, gamma);
// gamma is read only on the final iteration of a demand-matrix step, when
// the completed weight vector is translated to a routing and rewarded.
//
// Because the action dimensionality is a constant 2 regardless of the
// topology, this policy/environment pair can train across graphs of
// different sizes — the paper's main generalisation vehicle.
//
// Episode structure: each demand matrix is one episode of |E| micro-steps
// (done = true when its final weight is set and the reward lands);
// reset() then *continues* with the next demand matrix of the sequence.
// Terminating at the DM boundary gives PPO exact Monte-Carlo credit for
// the weight vector that produced the reward, without leaking the noise
// of later demand matrices into the advantage (the same bandit-credit
// insight as the one-shot environment's gamma = 0, see
// core/experiment.hpp).
#pragma once

#include <memory>
#include <vector>

#include "core/routing_env.hpp"

namespace gddr::core {

struct IterativeEnvConfig {
  int memory = 5;
  routing::SoftminOptions softmin;  // gamma field is overridden per step
  // See EnvConfig for the rationale behind the narrow weight range.
  double min_weight = 0.5;
  double max_weight = 3.0;
  // The gamma action in [-1,1] maps log-linearly onto this range.
  double min_gamma = 0.5;
  double max_gamma = 20.0;
};

class IterativeRoutingEnv final : public rl::Env {
 public:
  using Config = IterativeEnvConfig;
  using Mode = EpisodeCursor::Mode;

  IterativeRoutingEnv(std::vector<Scenario> scenarios,
                      IterativeEnvConfig config, std::uint64_t seed);

  void set_mode(Mode mode);

  rl::Observation reset() override;
  StepResult step(std::span<const double> action) override;
  int action_dim() const override { return 2; }

  // Checkpoint support (see RoutingEnv): after the cursor's fields, the
  // blob holds the mid-sequence flag and the micro-step position (DM
  // index, edge cursor and pending weight vector).
  std::vector<std::uint8_t> save_state() const override;
  void restore_state(std::span<const std::uint8_t> blob) override;

  double last_ratio() const { return last_ratio_; }
  const graph::DiGraph& current_graph() const {
    return current_scenario().graph;
  }
  const Scenario& current_scenario() const { return cursor_.scenario(); }
  // Micro-steps per demand-matrix timestep (= current |E|).
  int edges_per_step() const { return current_graph().num_edges(); }
  Mode mode() const { return cursor_.mode(); }

  // Parallel-evaluation support (see RoutingEnv): a test unit is one
  // (scenario, test sequence) pair; each unit spans several episodes here
  // (one per demand matrix).  seek_test_unit requires kTest mode.
  std::size_t num_test_units() const { return cursor_.num_test_units(); }
  int episodes_in_unit(std::size_t unit) const;
  void seek_test_unit(std::size_t unit);

  // See RoutingEnv: vectorised instances stepping the same scenarios can
  // share one internally-locked LP cache.
  std::shared_ptr<mcf::OptimalCache> shared_cache() const { return cache_; }
  void set_shared_cache(std::shared_ptr<mcf::OptimalCache> cache);

  // gamma value produced by mapping action component a in [-1,1].
  double map_gamma(double a) const;

 private:
  rl::Observation build_iterative_observation() const;

  EpisodeCursor cursor_;
  IterativeEnvConfig config_;
  std::shared_ptr<mcf::OptimalCache> cache_;

  bool in_sequence_ = false;  // mid-sequence: reset() continues it
  int t_ = 0;           // index of the DM the in-progress weights route
  int edge_cursor_ = 0;  // which edge is being set this micro-step
  std::vector<double> pending_weights_;  // raw [-1,1] values set so far
  double last_ratio_ = 0.0;
};

}  // namespace gddr::core
