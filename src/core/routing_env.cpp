#include "core/routing_env.hpp"

#include <sstream>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "routing/routing.hpp"
#include "util/error.hpp"

namespace gddr::core {

using rl::Observation;

RoutingEnv::RoutingEnv(std::vector<Scenario> scenarios, EnvConfig config,
                       std::uint64_t seed)
    : cursor_(std::move(scenarios), config.memory, seed, "RoutingEnv"),
      config_(config),
      cache_(std::make_shared<mcf::OptimalCache>()) {}

void RoutingEnv::set_shared_cache(std::shared_ptr<mcf::OptimalCache> cache) {
  if (!cache) {
    throw std::invalid_argument("RoutingEnv::set_shared_cache: null cache");
  }
  cache_ = std::move(cache);
}

int RoutingEnv::episode_length() const {
  return static_cast<int>(cursor_.sequence().size()) - config_.memory;
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
  cursor_.advance();
  t_ = config_.memory;
  return build_observation(current_scenario(), cursor_.sequence(), t_,
                           config_.memory, config_.node_features);
}

rl::Env::StepResult RoutingEnv::step(std::span<const double> action) {
  const graph::DiGraph& g = current_graph();
  if (static_cast<int>(action.size()) != action_dim()) {
    throw std::invalid_argument("RoutingEnv::step: action size mismatch");
  }
  const auto& seq = cursor_.sequence();
  if (t_ < config_.memory || t_ >= static_cast<int>(seq.size())) {
    throw std::logic_error(
        "RoutingEnv::step: no episode in progress — call reset() first");
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

  const double optimal = cache_->u_max(g, dm);
  StepResult result;
  last_ratio_ = optimal > 0.0 ? sim.u_max / optimal : 1.0;
  result.reward = -last_ratio_;  // paper Eq. 2
  ++t_;
  // The episode ending here is a *truncation*: the demand process does
  // not terminate, we merely ran out of sequence.  The terminal
  // observation is still well-defined (its history window ends at the
  // final routed DM) and is returned so the collector can bootstrap
  // V(s_T) instead of zeroing it.
  result.done = t_ >= static_cast<int>(seq.size());
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

// The blob format carries the steps taken in the current episode, which
// t determines: t - memory once an episode has started, 0 before.
int RoutingEnv::steps_into_episode(int t) const {
  return t == 0 ? 0 : t - config_.memory;
}

std::vector<std::uint8_t> RoutingEnv::save_state() const {
  std::ostringstream os;
  nn::write_pod(os, kEnvStateVersion);
  cursor_.write_state(os);
  nn::write_pod(os, static_cast<std::int32_t>(t_));
  nn::write_pod(os, static_cast<std::int32_t>(steps_into_episode(t_)));
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
  const EpisodeCursor::State cursor = cursor_.read_state(is);
  const auto t = nn::read_pod<std::int32_t>(is, "RoutingEnv t");
  const auto episode_steps =
      nn::read_pod<std::int32_t>(is, "RoutingEnv episode steps");
  const auto last_ratio = nn::read_pod<double>(is, "RoutingEnv last ratio");
  if (is.peek() != std::istream::traits_type::eof()) {
    throw util::IoError("trailing bytes after RoutingEnv state");
  }
  cursor_.check_position(cursor, t);
  if (episode_steps != steps_into_episode(t)) {
    throw util::IoError("RoutingEnv episode steps " +
                        std::to_string(episode_steps) +
                        " disagree with t " + std::to_string(t));
  }

  cursor_.restore(cursor);
  t_ = t;
  last_ratio_ = last_ratio;
}

}  // namespace gddr::core
