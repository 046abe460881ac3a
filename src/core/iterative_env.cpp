#include "core/iterative_env.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "routing/routing.hpp"
#include "util/error.hpp"

namespace gddr::core {

using rl::Observation;

IterativeRoutingEnv::IterativeRoutingEnv(std::vector<Scenario> scenarios,
                                         IterativeEnvConfig config,
                                         std::uint64_t seed)
    : cursor_(std::move(scenarios), config.memory, seed,
              "IterativeRoutingEnv"),
      config_(config),
      cache_(std::make_shared<mcf::OptimalCache>()) {
  if (!(config_.min_gamma > 0.0) || !(config_.max_gamma > config_.min_gamma)) {
    throw std::invalid_argument("IterativeRoutingEnv: bad gamma range");
  }
}

void IterativeRoutingEnv::set_mode(Mode mode) {
  cursor_.set_mode(mode);
  in_sequence_ = false;  // next reset starts a fresh sequence
}

void IterativeRoutingEnv::set_shared_cache(
    std::shared_ptr<mcf::OptimalCache> cache) {
  if (!cache) {
    throw std::invalid_argument(
        "IterativeRoutingEnv::set_shared_cache: null cache");
  }
  cache_ = std::move(cache);
}

int IterativeRoutingEnv::episodes_in_unit(std::size_t unit) const {
  return static_cast<int>(cursor_.test_unit(unit).size()) - config_.memory;
}

void IterativeRoutingEnv::seek_test_unit(std::size_t unit) {
  cursor_.seek_test_unit(unit);
  in_sequence_ = false;  // next reset() starts the sought unit afresh
}

double IterativeRoutingEnv::map_gamma(double a) const {
  const double x = std::clamp(a, -1.0, 1.0);
  const double log_lo = std::log(config_.min_gamma);
  const double log_hi = std::log(config_.max_gamma);
  return std::exp(log_lo + (x + 1.0) * 0.5 * (log_hi - log_lo));
}

Observation IterativeRoutingEnv::build_iterative_observation() const {
  // Base observation: demand history for the DM about to be routed.
  Observation obs = RoutingEnv::build_observation(
      current_scenario(), cursor_.sequence(), t_, config_.memory);
  // Edge attributes per Eq. 6 — (weight_i, set_i, target_i) — plus the
  // normalised link capacity carried over from the base observation (see
  // RoutingEnv::build_observation for why capacity must be visible).
  const int ne = current_graph().num_edges();
  nn::Tensor capacity_feature = obs.edges;  // ne x 1
  obs.edges = nn::Tensor(ne, 4);
  for (int e = 0; e < ne; ++e) {
    const bool set = e < edge_cursor_;
    obs.edges.at(e, 0) =
        set ? static_cast<float>(pending_weights_[static_cast<size_t>(e)])
            : 0.0F;
    obs.edges.at(e, 1) = set ? 1.0F : 0.0F;
    obs.edges.at(e, 2) = (e == edge_cursor_) ? 1.0F : 0.0F;
    obs.edges.at(e, 3) = capacity_feature.at(e, 0);
  }
  return obs;
}

Observation IterativeRoutingEnv::reset() {
  // Episodes are per demand matrix; only pick a new (scenario, sequence)
  // once the current sequence has been exhausted.
  if (!in_sequence_) {
    cursor_.advance();
    t_ = config_.memory;
    in_sequence_ = true;
  }
  edge_cursor_ = 0;
  pending_weights_.assign(static_cast<size_t>(edges_per_step()), 0.0);
  return build_iterative_observation();
}

rl::Env::StepResult IterativeRoutingEnv::step(std::span<const double> action) {
  if (action.size() != 2) {
    throw std::invalid_argument(
        "IterativeRoutingEnv::step: action must be (weight, gamma)");
  }
  const graph::DiGraph& g = current_graph();
  const auto& seq = cursor_.sequence();
  if (t_ < config_.memory || t_ >= static_cast<int>(seq.size()) ||
      edge_cursor_ >= g.num_edges()) {
    throw std::logic_error(
        "IterativeRoutingEnv::step: no episode in progress — call reset() "
        "first");
  }
  pending_weights_[static_cast<size_t>(edge_cursor_)] =
      std::clamp(action[0], -1.0, 1.0);
  ++edge_cursor_;

  StepResult result;
  if (edge_cursor_ < g.num_edges()) {
    // More edges to set for this DM; no reward yet.
    result.reward = 0.0;
    result.done = false;
    result.obs = build_iterative_observation();
    return result;
  }

  // Final iteration for this DM: translate and score (gamma read here,
  // paper Eq. 7).
  const auto& dm = seq[static_cast<size_t>(t_)];
  const std::vector<double> weights = routing::weights_from_actions(
      pending_weights_, config_.min_weight, config_.max_weight);
  routing::SoftminOptions softmin = config_.softmin;
  softmin.gamma = map_gamma(action[1]);
  const auto sim = routing::softmin_simulate(g, weights, softmin, dm).sim;
  const double u_opt = cache_->u_max(g, dm);
  last_ratio_ = u_opt > 0.0 ? sim.u_max / u_opt : 1.0;
  result.reward = -last_ratio_;

  // The demand matrix is fully routed: the episode ends here.  reset()
  // continues with the sequence's next DM (or a new sequence when this
  // one is exhausted).
  ++t_;
  result.done = true;
  if (t_ >= static_cast<int>(seq.size())) in_sequence_ = false;
  return result;
}

namespace {
constexpr std::uint32_t kIterativeEnvStateVersion = 1;
}  // namespace

std::vector<std::uint8_t> IterativeRoutingEnv::save_state() const {
  std::ostringstream os;
  nn::write_pod(os, kIterativeEnvStateVersion);
  cursor_.write_state(os);
  nn::write_pod(os, static_cast<std::uint8_t>(in_sequence_ ? 1 : 0));
  nn::write_pod(os, static_cast<std::int32_t>(t_));
  nn::write_pod(os, static_cast<std::int32_t>(edge_cursor_));
  nn::write_pod(os, static_cast<std::uint64_t>(pending_weights_.size()));
  for (const double w : pending_weights_) nn::write_pod(os, w);
  nn::write_pod(os, last_ratio_);
  const std::string bytes = std::move(os).str();
  return {bytes.begin(), bytes.end()};
}

void IterativeRoutingEnv::restore_state(std::span<const std::uint8_t> blob) {
  std::istringstream is(std::string(blob.begin(), blob.end()));

  const auto version =
      nn::read_pod<std::uint32_t>(is, "IterativeRoutingEnv state version");
  if (version != kIterativeEnvStateVersion) {
    throw util::IoError("unsupported IterativeRoutingEnv state version " +
                        std::to_string(version));
  }
  const EpisodeCursor::State cursor = cursor_.read_state(is);
  const auto in_sequence_flag =
      nn::read_pod<std::uint8_t>(is, "IterativeRoutingEnv in_sequence");
  if (in_sequence_flag > 1) {
    throw util::IoError(
        "corrupt value in field 'IterativeRoutingEnv in_sequence'");
  }
  const auto t = nn::read_pod<std::int32_t>(is, "IterativeRoutingEnv t");
  const auto edge_cursor =
      nn::read_pod<std::int32_t>(is, "IterativeRoutingEnv edge cursor");
  const auto pending_count = nn::read_pod<std::uint64_t>(
      is, "IterativeRoutingEnv pending weight count");
  cursor_.check_position(cursor, t);
  // Every DM step from the first reset() on holds one weight per edge.
  const auto edges =
      t == 0 ? 0
             : static_cast<std::uint64_t>(
                   cursor_.scenario(cursor).graph.num_edges());
  if (pending_count != edges) {
    throw util::IoError("IterativeRoutingEnv pending weight count " +
                        std::to_string(pending_count) + " does not match " +
                        std::to_string(edges) + " at t " + std::to_string(t));
  }
  std::vector<double> pending(static_cast<std::size_t>(pending_count));
  for (double& w : pending) {
    w = nn::read_pod<double>(is, "IterativeRoutingEnv pending weights");
  }
  const auto last_ratio =
      nn::read_pod<double>(is, "IterativeRoutingEnv last ratio");
  if (is.peek() != std::istream::traits_type::eof()) {
    throw util::IoError("trailing bytes after IterativeRoutingEnv state");
  }
  if (edge_cursor < 0 ||
      static_cast<std::uint64_t>(edge_cursor) > pending_count) {
    throw util::IoError("IterativeRoutingEnv edge cursor " +
                        std::to_string(edge_cursor) + " out of range");
  }

  cursor_.restore(cursor);
  in_sequence_ = in_sequence_flag != 0;
  t_ = t;
  edge_cursor_ = edge_cursor;
  pending_weights_ = std::move(pending);
  last_ratio_ = last_ratio;
}

}  // namespace gddr::core
