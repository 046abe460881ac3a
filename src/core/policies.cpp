#include "core/policies.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace gddr::core {

using gnn::EncodeProcessDecodeConfig;
using gnn::GraphSpec;
using gnn::GraphVars;
using nn::Tape;
using nn::Tensor;

namespace {

nn::MlpConfig mlp_config(const std::vector<int>& hidden, double output_scale) {
  nn::MlpConfig cfg;
  cfg.hidden = hidden;
  cfg.hidden_activation = nn::Activation::kTanh;
  cfg.output_activation = nn::Activation::kIdentity;
  cfg.output_scale = output_scale;
  return cfg;
}

// Assembles the on-tape graph attributes from an observation.
GraphVars graph_vars_from(Tape& tape, const rl::Observation& obs) {
  return GraphVars{tape.constant(obs.nodes), tape.constant(obs.edges),
                   tape.constant(obs.globals)};
}

std::size_t spec_hash(const rl::Observation& obs) {
  // FNV-1a over the connectivity ints; collisions are resolved by the
  // full equality check in cached_spec.
  std::size_t h = 1469598103934665603ULL;
  auto mix = [&h](int v) {
    h ^= static_cast<std::size_t>(static_cast<unsigned>(v));
    h *= 1099511628211ULL;
  };
  mix(obs.num_nodes);
  for (int v : obs.senders) mix(v);
  for (int v : obs.receivers) mix(v);
  return h;
}

// Most runs train on a handful of topologies, each observed thousands of
// times; beyond this the cache resets rather than growing unboundedly.
constexpr std::size_t kSpecCacheCap = 64;

// Returns a GraphSpec (with gather/segment plans built) for the
// observation's connectivity, cached per topology.  Policies run
// concurrently on rollout-collector workers, so the cache is thread-local
// — no locks on the hot path.  The spec is shared, so a caller holding it
// is unaffected by a later eviction.
std::shared_ptr<const GraphSpec> cached_spec(const rl::Observation& obs) {
  struct Entry {
    std::size_t hash = 0;
    std::shared_ptr<const GraphSpec> spec;
  };
  thread_local std::vector<Entry> cache;
  const std::size_t h = spec_hash(obs);
  for (const Entry& e : cache) {
    if (e.hash == h && e.spec->num_nodes == obs.num_nodes &&
        e.spec->senders == obs.senders && e.spec->receivers == obs.receivers) {
      return e.spec;
    }
  }
  if (cache.size() >= kSpecCacheCap) cache.clear();
  auto spec = std::make_shared<GraphSpec>();
  spec->num_nodes = obs.num_nodes;
  spec->senders = obs.senders;
  spec->receivers = obs.receivers;
  spec->ensure_plans();
  cache.push_back(Entry{h, spec});
  return spec;
}

// The disjoint union of the observations' graphs, in order.
GraphSpec union_spec(const std::vector<const rl::Observation*>& obs) {
  std::vector<std::shared_ptr<const GraphSpec>> held;
  std::vector<const GraphSpec*> parts;
  held.reserve(obs.size());
  parts.reserve(obs.size());
  for (const rl::Observation* o : obs) {
    held.push_back(cached_spec(*o));
    parts.push_back(held.back().get());
  }
  return GraphSpec::disjoint_union(parts);
}

// Row-stacks one attribute tensor of every observation (observation b's
// rows follow observation b-1's), as a tape constant in arena storage.
Tape::Var stack_rows(Tape& tape, const std::vector<const rl::Observation*>& obs,
                     const Tensor rl::Observation::* member) {
  const int cols = ((*obs.front()).*member).cols();
  int rows = 0;
  for (const rl::Observation* o : obs) {
    const Tensor& t = o->*member;
    if (t.cols() != cols) {
      throw std::invalid_argument("stack_rows: attribute widths differ (" +
                                  t.shape_str() + ")");
    }
    rows += t.rows();
  }
  return tape.constant(rows, cols, [&](Tensor& stacked) {
    auto out = stacked.data().begin();
    for (const rl::Observation* o : obs) {
      const auto src = (o->*member).data();
      out = std::copy(src.begin(), src.end(), out);
    }
  });
}

GraphVars union_vars(Tape& tape,
                     const std::vector<const rl::Observation*>& obs) {
  return GraphVars{stack_rows(tape, obs, &rl::Observation::nodes),
                   stack_rows(tape, obs, &rl::Observation::edges),
                   stack_rows(tape, obs, &rl::Observation::globals)};
}

}  // namespace

// ---------------- MlpPolicy ----------------

MlpPolicy::MlpPolicy(int obs_dim, int action_dim,
                     const MlpPolicyConfig& config, util::Rng& rng)
    : obs_dim_(obs_dim),
      action_dim_(action_dim),
      pi_(obs_dim, action_dim, mlp_config(config.pi_hidden, 0.01), rng),
      vf_(obs_dim, 1, mlp_config(config.vf_hidden, 1.0), rng),
      log_std_(Tensor(1, action_dim,
                      static_cast<float>(config.init_log_std))) {}

int MlpPolicy::action_dim(const rl::Observation& obs) const {
  if (static_cast<int>(obs.flat.size()) != obs_dim_) {
    throw std::invalid_argument(
        "MlpPolicy: observation size " + std::to_string(obs.flat.size()) +
        " != configured " + std::to_string(obs_dim_) +
        " (MLP policies are fixed to one topology)");
  }
  return action_dim_;
}

Tape::Var MlpPolicy::flat_rows(Tape& tape,
                               const std::vector<const rl::Observation*>& obs) {
  for (const rl::Observation* o : obs) {
    (void)action_dim(*o);  // validates the observation size
  }
  const int batch = static_cast<int>(obs.size());
  return tape.constant(batch, obs_dim_, [&](Tensor& x) {
    for (int b = 0; b < batch; ++b) {
      const auto& flat = obs[static_cast<std::size_t>(b)]->flat;
      for (int j = 0; j < obs_dim_; ++j) {
        x.at(b, j) = static_cast<float>(flat[static_cast<std::size_t>(j)]);
      }
    }
  });
}

Tape::Var MlpPolicy::action_mean(Tape& tape, const rl::Observation& obs) {
  return pi_.forward(tape, flat_rows(tape, {&obs}));
}

Tape::Var MlpPolicy::value(Tape& tape, const rl::Observation& obs) {
  return vf_.forward(tape, flat_rows(tape, {&obs}));
}

Tape::Var MlpPolicy::log_std_row(Tape& tape, int adim) {
  if (adim != action_dim_) {
    throw std::invalid_argument("MlpPolicy: action dim mismatch");
  }
  return tape.leaf(log_std_);
}

rl::Policy::BatchEvaluation MlpPolicy::evaluate_batch(
    Tape& tape, const std::vector<const rl::Observation*>& obs) {
  const int batch = static_cast<int>(obs.size());
  const Tape::Var xs = flat_rows(tape, obs);
  const int rows = batch * action_dim_;
  return BatchEvaluation{
      tape.reshape(pi_.forward(tape, xs), rows, 1),
      tape.reshape(tape.broadcast_rows(tape.leaf(log_std_), batch), rows, 1),
      vf_.forward(tape, xs)};
}

std::vector<nn::Parameter*> MlpPolicy::parameters() {
  std::vector<nn::Parameter*> params = pi_.parameters();
  for (auto* p : vf_.parameters()) params.push_back(p);
  params.push_back(&log_std_);
  return params;
}

std::size_t MlpPolicy::num_parameters() const {
  return pi_.num_parameters() + vf_.num_parameters() + log_std_.size();
}

// ---------------- GnnPolicy ----------------

namespace {

EncodeProcessDecodeConfig gnn_pi_config(const GnnPolicyConfig& c) {
  EncodeProcessDecodeConfig cfg;
  cfg.node_in = c.node_feature_width > 0 ? c.node_feature_width
                                         : 2 * c.memory;
  cfg.edge_in = 1;
  cfg.global_in = 1;
  cfg.latent = c.latent;
  cfg.steps = c.steps;
  cfg.node_out = 1;
  cfg.edge_out = 1;  // one routing weight per edge (Eq. 5)
  cfg.global_out = 1;
  cfg.mlp_hidden = c.mlp_hidden;
  cfg.decoder_output_scale = c.output_scale;
  return cfg;
}

EncodeProcessDecodeConfig gnn_vf_config(const GnnPolicyConfig& c) {
  EncodeProcessDecodeConfig cfg = gnn_pi_config(c);
  cfg.global_out = 1;  // value read from the global attribute
  cfg.decoder_output_scale = 1.0;
  return cfg;
}

}  // namespace

GnnPolicy::GnnPolicy(const GnnPolicyConfig& config, util::Rng& rng)
    : config_(config),
      pi_(gnn_pi_config(config), rng),
      vf_(gnn_vf_config(config), rng),
      log_std_scalar_(Tensor(1, 1, static_cast<float>(config.init_log_std))) {}

int GnnPolicy::action_dim(const rl::Observation& obs) const {
  return static_cast<int>(obs.senders.size());
}

Tape::Var GnnPolicy::action_mean(Tape& tape, const rl::Observation& obs) {
  const auto spec = cached_spec(obs);
  const GraphVars out = pi_.forward(tape, *spec, graph_vars_from(tape, obs));
  // Decoded edge attributes (E x 1) -> action row (1 x E).
  return tape.reshape(out.edges, 1, spec->num_edges());
}

GnnPolicy::UnionPass GnnPolicy::pi_over_union(
    Tape& tape, const std::vector<const rl::Observation*>& obs) {
  UnionPass pass{union_spec(obs), {}, {}};
  pass.in = union_vars(tape, obs);
  pass.pi = pi_.forward(tape, pass.spec, pass.in);
  return pass;
}

bool GnnPolicy::action_means(Tape& tape,
                             const std::vector<const rl::Observation*>& obs,
                             Tape::Var& out) {
  if (obs.empty()) return false;
  const int edges = action_dim(*obs.front());
  for (const rl::Observation* o : obs) {
    if (action_dim(*o) != edges) return false;
  }
  // Decoded union edge attributes (B*E x 1) -> one action row per graph
  // (B x E): row-major reshape keeps graph b's E edges on row b.
  out = tape.reshape(pi_over_union(tape, obs).pi.edges,
                     static_cast<int>(obs.size()), edges);
  return true;
}

Tape::Var GnnPolicy::value(Tape& tape, const rl::Observation& obs) {
  const auto spec = cached_spec(obs);
  const GraphVars out = vf_.forward(tape, *spec, graph_vars_from(tape, obs));
  return out.globals;  // 1 x 1
}

Tape::Var GnnPolicy::log_std_row(Tape& tape, int adim) {
  return tape.broadcast_cols(tape.leaf(log_std_scalar_), adim);
}

rl::Policy::BatchEvaluation GnnPolicy::evaluate_batch(
    Tape& tape, const std::vector<const rl::Observation*>& obs) {
  const UnionPass pass = pi_over_union(tape, obs);
  const GraphVars vf = vf_.forward(tape, pass.spec, pass.in);
  // Union edge rows are sample-major already: one action element each.
  return BatchEvaluation{
      pass.pi.edges,
      tape.broadcast_rows(tape.leaf(log_std_scalar_), pass.spec.num_edges()),
      vf.globals};
}

std::vector<nn::Parameter*> GnnPolicy::parameters() {
  std::vector<nn::Parameter*> params = pi_.parameters();
  for (auto* p : vf_.parameters()) params.push_back(p);
  params.push_back(&log_std_scalar_);
  return params;
}

std::size_t GnnPolicy::num_parameters() const {
  return pi_.num_parameters() + vf_.num_parameters() + log_std_scalar_.size();
}

// ---------------- IterativeGnnPolicy ----------------

namespace {

EncodeProcessDecodeConfig iter_pi_config(const IterativeGnnPolicyConfig& c) {
  EncodeProcessDecodeConfig cfg;
  cfg.node_in = 2 * c.memory;
  cfg.edge_in = 4;  // Eq. 6's (weight, set, target) + normalised capacity
  cfg.global_in = 1;
  cfg.latent = c.latent;
  cfg.steps = c.steps;
  cfg.node_out = 1;
  cfg.edge_out = 1;
  cfg.global_out = 2;  // (weight, gamma) per Eq. 7
  cfg.mlp_hidden = c.mlp_hidden;
  cfg.decoder_output_scale = c.output_scale;
  return cfg;
}

EncodeProcessDecodeConfig iter_vf_config(const IterativeGnnPolicyConfig& c) {
  EncodeProcessDecodeConfig cfg = iter_pi_config(c);
  cfg.global_out = 1;
  cfg.decoder_output_scale = 1.0;
  return cfg;
}

}  // namespace

IterativeGnnPolicy::IterativeGnnPolicy(const IterativeGnnPolicyConfig& config,
                                       util::Rng& rng)
    : config_(config),
      pi_(iter_pi_config(config), rng),
      vf_(iter_vf_config(config), rng),
      log_std_(Tensor(1, 2, static_cast<float>(config.init_log_std))) {}

Tape::Var IterativeGnnPolicy::action_mean(Tape& tape,
                                          const rl::Observation& obs) {
  const auto spec = cached_spec(obs);
  const GraphVars out = pi_.forward(tape, *spec, graph_vars_from(tape, obs));
  return out.globals;
}

Tape::Var IterativeGnnPolicy::value(Tape& tape, const rl::Observation& obs) {
  const auto spec = cached_spec(obs);
  const GraphVars out = vf_.forward(tape, *spec, graph_vars_from(tape, obs));
  return out.globals;
}

Tape::Var IterativeGnnPolicy::log_std_row(Tape& tape, int adim) {
  if (adim != 2) {
    throw std::invalid_argument("IterativeGnnPolicy: action dim must be 2");
  }
  return tape.leaf(log_std_);
}

rl::Policy::BatchEvaluation IterativeGnnPolicy::evaluate_batch(
    Tape& tape, const std::vector<const rl::Observation*>& obs) {
  const GraphSpec spec = union_spec(obs);
  const GraphVars in = union_vars(tape, obs);
  const int batch = static_cast<int>(obs.size());
  // Decoded globals (B x 2) -> one (weight, gamma) element per row.
  const GraphVars pi = pi_.forward(tape, spec, in);
  const GraphVars vf = vf_.forward(tape, spec, in);
  return BatchEvaluation{
      tape.reshape(pi.globals, 2 * batch, 1),
      tape.reshape(tape.broadcast_rows(tape.leaf(log_std_), batch), 2 * batch,
                   1),
      vf.globals};
}

std::vector<nn::Parameter*> IterativeGnnPolicy::parameters() {
  std::vector<nn::Parameter*> params = pi_.parameters();
  for (auto* p : vf_.parameters()) params.push_back(p);
  params.push_back(&log_std_);
  return params;
}

std::size_t IterativeGnnPolicy::num_parameters() const {
  return pi_.num_parameters() + vf_.num_parameters() + log_std_.size();
}

}  // namespace gddr::core
