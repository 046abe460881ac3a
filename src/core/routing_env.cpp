#include "core/routing_env.hpp"

#include <sstream>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "rl/checkpoint.hpp"
#include "routing/baselines.hpp"
#include "routing/routing.hpp"
#include "util/error.hpp"

namespace gddr::core {

using rl::Observation;

RoutingEnv::RoutingEnv(std::vector<Scenario> scenarios, EnvConfig config,
                       std::uint64_t seed)
    : scenarios_(std::move(scenarios)),
      config_(config),
      rng_(seed),
      cache_(std::make_shared<mcf::OptimalCache>()) {
  if (scenarios_.empty()) {
    throw std::invalid_argument("RoutingEnv: no scenarios");
  }
  for (const auto& s : scenarios_) {
    if (s.train_sequences.empty() || s.test_sequences.empty()) {
      throw std::invalid_argument("RoutingEnv: scenario missing sequences");
    }
    for (const auto& seq : s.train_sequences) {
      if (static_cast<int>(seq.size()) <= config_.memory) {
        throw std::invalid_argument("RoutingEnv: sequence shorter than memory");
      }
    }
  }
}

void RoutingEnv::set_mode(Mode mode) {
  mode_ = mode;
  test_cursor_ = 0;
}

void RoutingEnv::set_shared_cache(std::shared_ptr<mcf::OptimalCache> cache) {
  if (!cache) {
    throw std::invalid_argument("RoutingEnv::set_shared_cache: null cache");
  }
  cache_ = std::move(cache);
}

const Scenario& RoutingEnv::current_scenario() const {
  return scenarios_[scenario_idx_];
}

const graph::DiGraph& RoutingEnv::current_graph() const {
  return current_scenario().graph;
}

const traffic::DemandSequence& RoutingEnv::current_sequence() const {
  const Scenario& s = current_scenario();
  return mode_ == Mode::kTrain ? s.train_sequences[sequence_idx_]
                               : s.test_sequences[sequence_idx_];
}

int RoutingEnv::episode_length() const {
  return static_cast<int>(current_sequence().size()) - config_.memory;
}

std::size_t RoutingEnv::num_test_episodes() const {
  std::size_t total = 0;
  for (const auto& s : scenarios_) total += s.test_sequences.size();
  return total;
}

int RoutingEnv::episodes_in_unit(std::size_t /*unit*/) const { return 1; }

void RoutingEnv::seek_test_unit(std::size_t unit) {
  if (mode_ != Mode::kTest) {
    throw std::logic_error("RoutingEnv::seek_test_unit: requires kTest mode");
  }
  test_cursor_ = unit % num_test_units();
}

int RoutingEnv::action_dim() const {
  const graph::DiGraph& g = current_graph();
  return config_.action_space == ActionSpace::kEdgeWeights
             ? g.num_edges()
             : g.num_nodes() * g.num_edges();
}

Observation RoutingEnv::build_observation(const Scenario& scenario,
                                          const traffic::DemandSequence& seq,
                                          int t, int memory,
                                          NodeFeatureMode node_features) {
  const graph::DiGraph& g = scenario.graph;
  const int n = g.num_nodes();
  Observation obs;
  obs.num_nodes = n;
  obs.senders.reserve(static_cast<size_t>(g.num_edges()));
  obs.receivers.reserve(static_cast<size_t>(g.num_edges()));
  for (const auto& e : g.edges()) {
    obs.senders.push_back(e.src);
    obs.receivers.push_back(e.dst);
  }

  // Flat observation: the `memory` previous demand matrices, oldest first,
  // every entry divided by the scenario's flat scale (paper §V-B input
  // normalisation).
  obs.flat.reserve(static_cast<size_t>(memory) * n * n);
  // Node features: per history step, either the paper's Eq.-4 compression
  // ((sum outgoing, sum incoming) per vertex) or the full demand row and
  // column of each vertex (ablation mode; see NodeFeatureMode).
  const bool full = node_features == NodeFeatureMode::kFullDemandRows;
  obs.nodes = nn::Tensor(n, full ? 2 * n * memory : 2 * memory);
  for (int h = 0; h < memory; ++h) {
    const auto& dm = seq[static_cast<size_t>(t - memory + h)];
    for (int s = 0; s < n; ++s) {
      for (int d = 0; d < n; ++d) {
        obs.flat.push_back(dm.at(s, d) / scenario.flat_feature_scale);
      }
      if (full) {
        for (int d = 0; d < n; ++d) {
          const double out = s == d ? 0.0 : dm.at(s, d);
          const double in = s == d ? 0.0 : dm.at(d, s);
          obs.nodes.at(s, h * 2 * n + d) =
              static_cast<float>(out / scenario.flat_feature_scale);
          obs.nodes.at(s, h * 2 * n + n + d) =
              static_cast<float>(in / scenario.flat_feature_scale);
        }
      } else {
        obs.nodes.at(s, 2 * h) = static_cast<float>(
            dm.out_sum(s) / scenario.node_feature_scale);
        obs.nodes.at(s, 2 * h + 1) = static_cast<float>(
            dm.in_sum(s) / scenario.node_feature_scale);
      }
    }
  }
  // Edge input: the link's capacity, normalised by the graph's maximum
  // capacity.  The paper's graph model G = (V, E, c) makes capacities
  // known; without this feature a permutation-equivariant GNN cannot
  // distinguish structurally symmetric links of different bandwidths (the
  // paper's Abilene experiments use uniform capacities, where the feature
  // is constant and harmless).
  obs.edges = nn::Tensor(g.num_edges(), 1);
  double max_capacity = 0.0;
  for (const auto& e : g.edges()) {
    max_capacity = std::max(max_capacity, e.capacity);
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    obs.edges.at(e, 0) =
        static_cast<float>(g.edge(e).capacity / max_capacity);
  }
  obs.globals = nn::Tensor(1, 1);
  return obs;
}

Observation RoutingEnv::reset() {
  if (mode_ == Mode::kTrain) {
    scenario_idx_ = rng_.uniform_index(scenarios_.size());
    sequence_idx_ =
        rng_.uniform_index(current_scenario().train_sequences.size());
  } else {
    // Deterministic sweep over (scenario, test sequence).
    std::size_t total = 0;
    for (const auto& s : scenarios_) total += s.test_sequences.size();
    std::size_t idx = test_cursor_ % total;
    scenario_idx_ = 0;
    while (idx >= scenarios_[scenario_idx_].test_sequences.size()) {
      idx -= scenarios_[scenario_idx_].test_sequences.size();
      ++scenario_idx_;
    }
    sequence_idx_ = idx;
    test_cursor_ = (test_cursor_ + 1) % total;
  }
  t_ = config_.memory;
  episode_steps_ = 0;
  return build_observation(current_scenario(), current_sequence(), t_,
                           config_.memory, config_.node_features);
}

rl::Env::StepResult RoutingEnv::step(std::span<const double> action) {
  const graph::DiGraph& g = current_graph();
  if (static_cast<int>(action.size()) != action_dim()) {
    throw std::invalid_argument("RoutingEnv::step: action size mismatch");
  }
  const auto& seq = current_sequence();
  if (t_ >= static_cast<int>(seq.size())) {
    throw std::logic_error(
        "RoutingEnv::step: episode is over — call reset() first");
  }
  const auto& dm = seq[static_cast<size_t>(t_)];

  routing::SimulationResult sim;
  if (config_.action_space == ActionSpace::kEdgeWeights) {
    const std::vector<double> weights = routing::weights_from_actions(
        action, config_.min_weight, config_.max_weight);
    sim = routing::softmin_simulate(g, weights, config_.softmin, dm).sim;
  } else {
    // Destination-major |V| x |E| action layout (paper §V-C intermediate).
    std::vector<std::vector<double>> weights_by_dest(
        static_cast<size_t>(g.num_nodes()));
    for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
      weights_by_dest[static_cast<size_t>(t)] =
          routing::weights_from_actions(
              action.subspan(static_cast<size_t>(t) *
                                 static_cast<size_t>(g.num_edges()),
                             static_cast<size_t>(g.num_edges())),
              config_.min_weight, config_.max_weight);
    }
    sim = routing::softmin_simulate_per_destination(g, weights_by_dest,
                                                    config_.softmin, dm)
              .sim;
  }

  double achieved = 0.0;
  double optimal = 0.0;
  if (config_.objective == Objective::kMaxUtilisation) {
    achieved = sim.u_max;
    optimal = cache_->u_max(g, dm);
  } else {
    achieved = routing::mean_utilisation(g, sim);
    optimal = cache_->mean_util(g, dm);
  }

  StepResult result;
  last_ratio_ = optimal > 0.0 ? achieved / optimal : 1.0;
  result.reward = -last_ratio_;  // paper Eq. 2
  ++t_;
  ++episode_steps_;
  // Both episode endings here are *truncations*: the demand process does
  // not terminate, we merely ran out of sequence (or hit the step cap).
  // The terminal observation is still well-defined (its history window
  // ends at the final routed DM) and is returned so the collector can
  // bootstrap V(s_T) instead of zeroing it.
  const bool out_of_sequence = t_ >= static_cast<int>(seq.size());
  const bool step_capped = config_.max_episode_steps > 0 &&
                           episode_steps_ >= config_.max_episode_steps;
  result.done = out_of_sequence || step_capped;
  result.truncated = result.done;
  // Valid even at t_ == seq.size(): the observation reads the history
  // window [t_ - memory, t_), which ends at the final routed DM.
  result.obs = build_observation(current_scenario(), seq, t_,
                                 config_.memory, config_.node_features);
  return result;
}

namespace {
constexpr std::uint32_t kEnvStateVersion = 1;
}  // namespace

std::vector<std::uint8_t> RoutingEnv::save_state() const {
  std::ostringstream os;
  nn::write_pod(os, kEnvStateVersion);
  rl::write_rng_state(os, rng_);
  nn::write_pod(os, static_cast<std::uint8_t>(mode_ == Mode::kTest ? 1 : 0));
  nn::write_pod(os, static_cast<std::uint64_t>(scenario_idx_));
  nn::write_pod(os, static_cast<std::uint64_t>(sequence_idx_));
  nn::write_pod(os, static_cast<std::uint64_t>(test_cursor_));
  nn::write_pod(os, static_cast<std::int32_t>(t_));
  nn::write_pod(os, static_cast<std::int32_t>(episode_steps_));
  nn::write_pod(os, last_ratio_);
  const std::string bytes = std::move(os).str();
  return {bytes.begin(), bytes.end()};
}

void RoutingEnv::restore_state(std::span<const std::uint8_t> blob) {
  std::istringstream is(std::string(blob.begin(), blob.end()));

  const auto version =
      nn::read_pod<std::uint32_t>(is, "RoutingEnv state version");
  if (version != kEnvStateVersion) {
    throw util::IoError("unsupported RoutingEnv state version " +
                        std::to_string(version));
  }
  util::Rng rng(0);
  rl::read_rng_state(is, rng, "RoutingEnv rng");
  const auto mode_flag = nn::read_pod<std::uint8_t>(is, "RoutingEnv mode");
  if (mode_flag > 1) {
    throw util::IoError("corrupt value in field 'RoutingEnv mode'");
  }
  const Mode mode = mode_flag != 0 ? Mode::kTest : Mode::kTrain;
  const auto scenario_idx =
      nn::read_pod<std::uint64_t>(is, "RoutingEnv scenario index");
  const auto sequence_idx =
      nn::read_pod<std::uint64_t>(is, "RoutingEnv sequence index");
  const auto test_cursor =
      nn::read_pod<std::uint64_t>(is, "RoutingEnv test cursor");
  const auto t = nn::read_pod<std::int32_t>(is, "RoutingEnv t");
  const auto episode_steps =
      nn::read_pod<std::int32_t>(is, "RoutingEnv episode steps");
  const auto last_ratio = nn::read_pod<double>(is, "RoutingEnv last ratio");
  if (is.peek() != std::istream::traits_type::eof()) {
    throw util::IoError("trailing bytes after RoutingEnv state");
  }

  if (scenario_idx >= scenarios_.size()) {
    throw util::IoError("RoutingEnv scenario index " +
                        std::to_string(scenario_idx) + " out of range (" +
                        std::to_string(scenarios_.size()) + " scenarios)");
  }
  const Scenario& scenario = scenarios_[static_cast<std::size_t>(scenario_idx)];
  const auto& sequences = mode == Mode::kTrain ? scenario.train_sequences
                                               : scenario.test_sequences;
  if (sequence_idx >= sequences.size()) {
    throw util::IoError("RoutingEnv sequence index " +
                        std::to_string(sequence_idx) + " out of range");
  }
  const auto seq_len =
      static_cast<std::int32_t>(sequences[sequence_idx].size());
  if (t < 0 || t > seq_len) {
    throw util::IoError("RoutingEnv t " + std::to_string(t) +
                        " out of range [0, " + std::to_string(seq_len) + "]");
  }
  if (episode_steps < 0) {
    throw util::IoError("negative value in field 'RoutingEnv episode steps'");
  }

  rng_ = rng;
  mode_ = mode;
  scenario_idx_ = static_cast<std::size_t>(scenario_idx);
  sequence_idx_ = static_cast<std::size_t>(sequence_idx);
  test_cursor_ = static_cast<std::size_t>(test_cursor);
  t_ = t;
  episode_steps_ = episode_steps;
  last_ratio_ = last_ratio;
}

std::vector<std::unique_ptr<RoutingEnv>> make_vec_envs(
    const std::vector<Scenario>& scenarios, const EnvConfig& config,
    std::uint64_t seed, int n) {
  if (n <= 0) throw std::invalid_argument("make_vec_envs: n <= 0");
  std::vector<std::unique_ptr<RoutingEnv>> envs;
  envs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    envs.push_back(std::make_unique<RoutingEnv>(
        scenarios, config, seed + static_cast<std::uint64_t>(i)));
    if (i > 0) envs.back()->set_shared_cache(envs.front()->shared_cache());
  }
  return envs;
}

}  // namespace gddr::core
