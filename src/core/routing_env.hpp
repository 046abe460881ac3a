// The GDDR data-driven-routing environment (paper §V, Figure 1).
//
// One environment timestep:
//  * the agent observes the previous `memory` demand matrices (as a
//    flattened history for MLP policies and as per-node incoming/outgoing
//    sums, paper Eq. 4, for GNN policies),
//  * it emits one weight per edge (paper §V-C action space of size |E|),
//  * the weights are translated into a routing via softmin routing with
//    DAG pruning (paper §VI),
//  * the routing is simulated on the *new* demand matrix and the reward is
//    -U_max_agent / U_max_optimal (paper Eq. 2), with the optimum computed
//    by the multicommodity-flow LP and memoised.
//
// The environment can hold several scenarios (graph + sequences); each
// reset picks one, which is how multi-topology generalisation training
// works (paper §VIII-D, Figure 8).
#pragma once

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/episode_cursor.hpp"
#include "core/scenario.hpp"
#include "mcf/cache.hpp"
#include "rl/env.hpp"
#include "routing/softmin.hpp"

namespace gddr::core {

// GNN node-feature encoding (paper §V-B).  kInOutSums is the paper's
// choice: per history step, each vertex carries (sum of outgoing demand,
// sum of incoming demand) — O(1) per vertex, which is what lets one GNN
// run on any topology.  kFullDemandRows keeps each vertex's full demand
// row and column (O(|V|) per vertex) — more information, but the feature
// width is tied to one topology, forfeiting generalisation; it exists for
// the ablation that justifies the compression.
enum class NodeFeatureMode { kInOutSums, kFullDemandRows };

// Action-space translation (paper §V-C).  kEdgeWeights is the paper's
// final choice: one weight per edge (|E| values).  kPerDestinationWeights
// is the intermediate destination-only reduction the paper considered and
// rejected as "still too large" (|V| x |E| values, destination-major);
// it exists so the rejection can be tested with learning
// (bench_action_space_learning).
enum class ActionSpace { kEdgeWeights, kPerDestinationWeights };

struct EnvConfig {
  int memory = 5;  // demand-history length (paper: 5)
  NodeFeatureMode node_features = NodeFeatureMode::kInOutSums;
  ActionSpace action_space = ActionSpace::kEdgeWeights;
  routing::SoftminOptions softmin;
  // Raw actions in [-1,1] map affinely onto [min_weight, max_weight].
  // The range is deliberately narrow: with softmin spread gamma ~ 2, a
  // max weight delta of 2.5 already expresses ~150:1 path preferences
  // while keeping the reward landscape smooth enough for PPO (a wide
  // range such as [0.1, 10] turns softmin into a hard argmin almost
  // everywhere and gradients vanish).
  double min_weight = 0.5;
  double max_weight = 3.0;
};

class RoutingEnv final : public rl::Env {
 public:
  using Config = EnvConfig;
  using Mode = EpisodeCursor::Mode;

  RoutingEnv(std::vector<Scenario> scenarios, EnvConfig config,
             std::uint64_t seed);

  // Train mode samples (scenario, train sequence) randomly; test mode
  // cycles deterministically through every (scenario, test sequence) pair.
  void set_mode(Mode mode) { cursor_.set_mode(mode); }
  Mode mode() const { return cursor_.mode(); }

  rl::Observation reset() override;
  StepResult step(std::span<const double> action) override;
  int action_dim() const override;

  // Checkpoint support (rl::Env contract): the complete dynamic state as
  // an opaque blob — a version word, the cursor's fields (sampling RNG,
  // mode, scenario/sequence/test cursors), then the episode position.
  // restore_state validates every field against the configured scenarios
  // and throws util::IoError naming the offending field, leaving the env
  // unchanged on failure.
  std::vector<std::uint8_t> save_state() const override;
  void restore_state(std::span<const std::uint8_t> blob) override;

  // U_max_agent / U_max_optimal of the most recent step (the quantity the
  // paper's Figures 6 and 8 plot; reward is its negation).
  double last_ratio() const { return last_ratio_; }

  const graph::DiGraph& current_graph() const {
    return current_scenario().graph;
  }
  const Scenario& current_scenario() const { return cursor_.scenario(); }
  int episode_length() const;  // steps per episode in the current scenario

  // Parallel-evaluation support: a test *unit* is one (scenario, test
  // sequence) pair, the granularity at which evaluation is farmed out to
  // workers.  seek_test_unit positions the deterministic test sweep so
  // the next reset() starts unit `unit`; requires kTest mode.
  std::size_t num_test_units() const { return cursor_.num_test_units(); }
  int episodes_in_unit(std::size_t /*unit*/) const { return 1; }
  void seek_test_unit(std::size_t unit) { cursor_.seek_test_unit(unit); }

  mcf::OptimalCache& cache() { return *cache_; }

  // The memoised LP oracle is internally locked, so instances stepping
  // the same scenarios concurrently (vectorised collection) can share one
  // cache instead of each re-solving identical LPs.
  std::shared_ptr<mcf::OptimalCache> shared_cache() const { return cache_; }
  void set_shared_cache(std::shared_ptr<mcf::OptimalCache> cache);

  // Builds the observation for position `t` (the action decided there is
  // evaluated on demand matrix index t).  Exposed for the iterative
  // environment and tests.
  static rl::Observation build_observation(
      const Scenario& scenario, const traffic::DemandSequence& seq, int t,
      int memory,
      NodeFeatureMode node_features = NodeFeatureMode::kInOutSums);

 private:
  int steps_into_episode(int t) const;

  EpisodeCursor cursor_;
  EnvConfig config_;
  std::shared_ptr<mcf::OptimalCache> cache_;

  int t_ = 0;  // index of the DM the next action routes; 0 before reset()
  double last_ratio_ = 0.0;
};

// Builds `n` independent environments over the same scenarios for
// vectorised collection: env i is seeded `seed + i` (its own scenario /
// sequence sampling stream) and all instances share one LP cache.  Env
// is RoutingEnv or IterativeRoutingEnv (core/iterative_env.hpp).
template <class Env = RoutingEnv>
std::vector<std::unique_ptr<Env>> make_vec_envs(
    const std::vector<Scenario>& scenarios,
    const typename Env::Config& config, std::uint64_t seed, int n) {
  if (n <= 0) throw std::invalid_argument("make_vec_envs: n <= 0");
  std::vector<std::unique_ptr<Env>> envs;
  envs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    envs.push_back(std::make_unique<Env>(
        scenarios, config, seed + static_cast<std::uint64_t>(i)));
    if (i > 0) envs.back()->set_shared_cache(envs.front()->shared_cache());
  }
  return envs;
}

}  // namespace gddr::core
