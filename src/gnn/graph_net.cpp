#include "gnn/graph_net.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace gddr::gnn {

using nn::Mlp;
using nn::MlpConfig;
using nn::Tape;

GraphSpec GraphSpec::from(const graph::DiGraph& g) {
  GraphSpec spec;
  spec.num_nodes = g.num_nodes();
  spec.senders.reserve(static_cast<size_t>(g.num_edges()));
  spec.receivers.reserve(static_cast<size_t>(g.num_edges()));
  for (const auto& e : g.edges()) {
    spec.senders.push_back(e.src);
    spec.receivers.push_back(e.dst);
  }
  spec.ensure_plans();
  return spec;
}

void GraphSpec::ensure_plans() {
  if (planned()) return;
  senders_shared = std::make_shared<const std::vector<int>>(senders);
  receivers_shared = std::make_shared<const std::vector<int>>(receivers);
  receiver_plan = std::make_shared<const nn::kernels::SegmentPlan>(
      nn::kernels::build_segment_plan(receivers, num_nodes));
  if (!node_graph || !edge_graph) {
    if (num_graphs != 1) {
      throw std::invalid_argument(
          "GraphSpec: a multi-graph spec needs node/edge graph ids");
    }
    node_graph = std::make_shared<const std::vector<int>>(
        static_cast<std::size_t>(num_nodes), 0);
    edge_graph = std::make_shared<const std::vector<int>>(senders.size(), 0);
  }
  node_pool_plan = std::make_shared<const nn::kernels::SegmentPlan>(
      nn::kernels::build_segment_plan(*node_graph, num_graphs));
  edge_pool_plan = std::make_shared<const nn::kernels::SegmentPlan>(
      nn::kernels::build_segment_plan(*edge_graph, num_graphs));
}

GraphSpec GraphSpec::disjoint_union(std::span<const GraphSpec* const> parts) {
  if (parts.empty()) {
    throw std::invalid_argument("GraphSpec::disjoint_union: no parts");
  }
  GraphSpec u;
  u.num_graphs = static_cast<int>(parts.size());
  std::size_t nodes = 0;
  std::size_t edges = 0;
  for (const GraphSpec* p : parts) {
    if (p->num_graphs != 1) {
      throw std::invalid_argument(
          "GraphSpec::disjoint_union: parts must be single graphs");
    }
    nodes += static_cast<std::size_t>(p->num_nodes);
    edges += p->senders.size();
  }
  u.senders.reserve(edges);
  u.receivers.reserve(edges);
  std::vector<int> node_ids;
  std::vector<int> edge_ids;
  node_ids.reserve(nodes);
  edge_ids.reserve(edges);
  for (int g = 0; g < u.num_graphs; ++g) {
    const GraphSpec& p = *parts[static_cast<std::size_t>(g)];
    const int offset = u.num_nodes;
    for (std::size_t e = 0; e < p.senders.size(); ++e) {
      u.senders.push_back(p.senders[e] + offset);
      u.receivers.push_back(p.receivers[e] + offset);
    }
    node_ids.insert(node_ids.end(), static_cast<std::size_t>(p.num_nodes), g);
    edge_ids.insert(edge_ids.end(), p.senders.size(), g);
    u.num_nodes += p.num_nodes;
  }
  u.node_graph = std::make_shared<const std::vector<int>>(std::move(node_ids));
  u.edge_graph = std::make_shared<const std::vector<int>>(std::move(edge_ids));
  u.ensure_plans();
  return u;
}

namespace {

MlpConfig make_mlp_config(const std::vector<int>& hidden, nn::Activation act,
                          double output_scale = 1.0) {
  MlpConfig cfg;
  cfg.hidden = hidden;
  cfg.hidden_activation = act;
  cfg.output_activation = nn::Activation::kIdentity;
  cfg.output_scale = output_scale;
  return cfg;
}

void check_graph_vars(nn::Tape& tape, const GraphSpec& spec,
                      const GraphVars& in, int node_dim, int edge_dim,
                      int global_dim, const char* who) {
  if (!spec.planned()) {
    throw std::invalid_argument(std::string(who) +
                                ": GraphSpec has no plans (ensure_plans)");
  }
  const auto& nv = tape.value(in.nodes);
  const auto& ev = tape.value(in.edges);
  const auto& gv = tape.value(in.globals);
  if (nv.rows() != spec.num_nodes || nv.cols() != node_dim ||
      ev.rows() != spec.num_edges() || ev.cols() != edge_dim ||
      gv.rows() != spec.num_graphs || gv.cols() != global_dim) {
    throw std::invalid_argument(
        std::string(who) + ": graph attribute shapes " + nv.shape_str() +
        "/" + ev.shape_str() + "/" + gv.shape_str() +
        " do not match the configured sizes");
  }
}

}  // namespace

GnBlock::GnBlock(const GnBlockConfig& config, util::Rng& rng)
    : config_(config),
      edge_mlp_(config.edge_in + 2 * config.node_in + config.global_in,
                config.edge_out, make_mlp_config(config.mlp_hidden,
                                                 config.activation),
                rng),
      node_mlp_(config.edge_out + config.node_in + config.global_in,
                config.node_out, make_mlp_config(config.mlp_hidden,
                                                 config.activation),
                rng),
      global_mlp_(config.edge_out + config.node_out + config.global_in,
                  config.global_out, make_mlp_config(config.mlp_hidden,
                                                     config.activation),
                  rng) {}

GraphVars GnBlock::forward(Tape& tape, const GraphSpec& spec,
                           const GraphVars& in) {
  check_graph_vars(tape, spec, in, config_.node_in, config_.edge_in,
                   config_.global_in, "GnBlock");

  // --- phi_e: update every edge from [e_k, v_sender, v_receiver, u] ---
  // Projected form: each row block of the first layer's weight multiplies
  // its own input at that input's granularity (edge, node, graph), and
  // the node and graph products are gathered onto edges.
  obs::ScopedTimer edge_timer("gnn/block/edge");
  const Mlp::Layer first = edge_mlp_.first_layer(tape);
  const int ei = config_.edge_in;
  const int ni = config_.node_in;
  const Tape::Var w_e = tape.slice_rows(first.weight, 0, ei);
  const Tape::Var w_s = tape.slice_rows(first.weight, ei, ni);
  const Tape::Var w_r = tape.slice_rows(first.weight, ei + ni, ni);
  const Tape::Var w_u =
      tape.slice_rows(first.weight, ei + 2 * ni, config_.global_in);
  Tape::Var edge_pre =
      tape.linear(in.edges, w_e, first.bias, nn::Activation::kIdentity);
  edge_pre = tape.add_gathered(edge_pre, tape.matmul(in.nodes, w_s),
                               spec.senders_shared);
  edge_pre = tape.add_gathered(edge_pre, tape.matmul(in.nodes, w_r),
                               spec.receivers_shared);
  edge_pre = tape.add_gathered(edge_pre, tape.matmul(in.globals, w_u),
                               spec.edge_graph);
  const Tape::Var edges_out = edge_mlp_.forward_from(tape, edge_pre);
  edge_timer.stop();

  // --- rho_{e->v}: aggregate updated edges at their receiver ---
  obs::ScopedTimer node_timer("gnn/block/node");
  const Tape::Var agg_edges = tape.segment_sum(edges_out, spec.receiver_plan);

  // --- phi_v: update every node from [agg_edges, v_i, u] ---
  // Same projection for the global block: u * W_u once per graph.
  const Mlp::Layer node_first = node_mlp_.first_layer(tape);
  const int per_node = config_.edge_out + ni;
  Tape::Var node_pre =
      tape.linear(tape.concat_cols(agg_edges, in.nodes),
                  tape.slice_rows(node_first.weight, 0, per_node),
                  node_first.bias, nn::Activation::kIdentity);
  node_pre = tape.add_gathered(
      node_pre,
      tape.matmul(in.globals, tape.slice_rows(node_first.weight, per_node,
                                              config_.global_in)),
      spec.node_graph);
  const Tape::Var nodes_out = node_mlp_.forward_from(tape, node_pre);
  node_timer.stop();

  // --- rho_{e->u}, rho_{v->u}: pool each graph for its global update ---
  obs::ScopedTimer global_timer("gnn/block/global");
  const Tape::Var all_edges = tape.segment_sum(edges_out, spec.edge_pool_plan);
  const Tape::Var all_nodes = tape.segment_sum(nodes_out, spec.node_pool_plan);

  // --- phi_u ---
  Tape::Var global_input = tape.concat_cols(all_edges, all_nodes);
  global_input = tape.concat_cols(global_input, in.globals);
  const Tape::Var globals_out = global_mlp_.forward(tape, global_input);
  global_timer.stop();

  return GraphVars{nodes_out, edges_out, globals_out};
}

std::vector<nn::Parameter*> GnBlock::parameters() {
  std::vector<nn::Parameter*> params = edge_mlp_.parameters();
  for (auto* p : node_mlp_.parameters()) params.push_back(p);
  for (auto* p : global_mlp_.parameters()) params.push_back(p);
  return params;
}

std::size_t GnBlock::num_parameters() const {
  return edge_mlp_.num_parameters() + node_mlp_.num_parameters() +
         global_mlp_.num_parameters();
}

IndependentBlock::IndependentBlock(const IndependentConfig& config,
                                   util::Rng& rng)
    : config_(config),
      node_mlp_(config.node_in, config.node_out,
                make_mlp_config(config.mlp_hidden, config.activation,
                                config.output_scale),
                rng),
      edge_mlp_(config.edge_in, config.edge_out,
                make_mlp_config(config.mlp_hidden, config.activation,
                                config.output_scale),
                rng),
      global_mlp_(config.global_in, config.global_out,
                  make_mlp_config(config.mlp_hidden, config.activation,
                                  config.output_scale),
                  rng) {}

GraphVars IndependentBlock::forward(Tape& tape, const GraphVars& in) {
  return GraphVars{node_mlp_.forward(tape, in.nodes),
                   edge_mlp_.forward(tape, in.edges),
                   global_mlp_.forward(tape, in.globals)};
}

std::vector<nn::Parameter*> IndependentBlock::parameters() {
  std::vector<nn::Parameter*> params = node_mlp_.parameters();
  for (auto* p : edge_mlp_.parameters()) params.push_back(p);
  for (auto* p : global_mlp_.parameters()) params.push_back(p);
  return params;
}

std::size_t IndependentBlock::num_parameters() const {
  return node_mlp_.num_parameters() + edge_mlp_.num_parameters() +
         global_mlp_.num_parameters();
}

namespace {

IndependentConfig encoder_config(const EncodeProcessDecodeConfig& c) {
  IndependentConfig cfg;
  cfg.node_in = c.node_in;
  cfg.edge_in = c.edge_in;
  cfg.global_in = c.global_in;
  cfg.node_out = cfg.edge_out = cfg.global_out = c.latent;
  cfg.mlp_hidden = c.mlp_hidden;
  cfg.activation = c.activation;
  return cfg;
}

GnBlockConfig core_config(const EncodeProcessDecodeConfig& c) {
  GnBlockConfig cfg;
  // The core consumes [encoded || previous latent] (the recurrent loop of
  // Figure 5), hence doubled input widths.
  cfg.node_in = cfg.edge_in = cfg.global_in = 2 * c.latent;
  cfg.node_out = cfg.edge_out = cfg.global_out = c.latent;
  cfg.mlp_hidden = c.mlp_hidden;
  cfg.activation = c.activation;
  return cfg;
}

IndependentConfig decoder_config(const EncodeProcessDecodeConfig& c) {
  IndependentConfig cfg;
  cfg.node_in = cfg.edge_in = cfg.global_in = c.latent;
  cfg.node_out = c.node_out;
  cfg.edge_out = c.edge_out;
  cfg.global_out = c.global_out;
  cfg.mlp_hidden = c.mlp_hidden;
  cfg.activation = c.activation;
  cfg.output_scale = c.decoder_output_scale;
  return cfg;
}

}  // namespace

EncodeProcessDecode::EncodeProcessDecode(
    const EncodeProcessDecodeConfig& config, util::Rng& rng)
    : config_(config),
      encoder_(encoder_config(config), rng),
      core_(core_config(config), rng),
      decoder_(decoder_config(config), rng) {
  if (config.steps < 1) {
    throw std::invalid_argument("EncodeProcessDecode: steps < 1");
  }
}

GraphVars EncodeProcessDecode::forward(Tape& tape, const GraphSpec& spec,
                                       const GraphVars& in) {
  obs::ScopedTimer forward_timer("gnn/forward");
  const GraphVars encoded = encoder_.forward(tape, in);
  GraphVars latent = encoded;
  for (int step = 0; step < config_.steps; ++step) {
    const GraphVars core_in{
        tape.concat_cols(encoded.nodes, latent.nodes),
        tape.concat_cols(encoded.edges, latent.edges),
        tape.concat_cols(encoded.globals, latent.globals)};
    latent = core_.forward(tape, spec, core_in);
  }
  return decoder_.forward(tape, latent);
}

std::vector<nn::Parameter*> EncodeProcessDecode::parameters() {
  std::vector<nn::Parameter*> params = encoder_.parameters();
  for (auto* p : core_.parameters()) params.push_back(p);
  for (auto* p : decoder_.parameters()) params.push_back(p);
  return params;
}

std::size_t EncodeProcessDecode::num_parameters() const {
  return encoder_.num_parameters() + core_.num_parameters() +
         decoder_.num_parameters();
}

}  // namespace gddr::gnn
