#include "gnn/graph_net.hpp"

#include <algorithm>
#include <initializer_list>
#include <stdexcept>
#include <string>

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

void check_planned(const GraphSpec& spec, const char* who) {
  if (!spec.planned()) {
    throw std::invalid_argument(std::string(who) +
                                ": GraphSpec has no plans (ensure_plans)");
  }
}

void check_graph_vars(nn::Tape& tape, const GraphSpec& spec,
                      const GraphVars& in, int node_dim, int edge_dim,
                      int global_dim, const char* who) {
  check_planned(spec, who);
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

std::size_t elements(int rows, int cols) {
  return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
}

// out[i] += m[indices[i]] for every row i: Tape::add_gathered's forward,
// in place, with its index check.
void add_gathered(const std::vector<int>& indices, int m_rows, int cols,
                  const float* m, float* out) {
  const auto width = static_cast<std::size_t>(cols);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const int idx = indices[i];
    if (idx < 0 || idx >= m_rows) {
      throw std::invalid_argument("add_gathered: index out of range");
    }
    const float* row = m + static_cast<std::size_t>(idx) * width;
    float* orow = out + i * width;
    for (std::size_t j = 0; j < width; ++j) orow[j] += row[j];
  }
}

struct ColumnBlock {
  int cols;
  const float* data;
};

// out = the row-wise concatenation of `blocks` (Tape::concat_cols).
void concat_cols(int rows, std::initializer_list<ColumnBlock> blocks,
                 std::vector<float>& out) {
  int width = 0;
  for (const ColumnBlock& b : blocks) width += b.cols;
  out.resize(elements(rows, width));
  float* dst = out.data();
  for (int i = 0; i < rows; ++i) {
    for (const ColumnBlock& b : blocks) {
      const float* src = b.data + elements(i, b.cols);
      dst = std::copy(src, src + b.cols, dst);
    }
  }
}

// y (rows x w.cols()) = x * W[first_row:] + bias, where x is rows x k and
// the product reads rows [first_row, first_row + k) of w in place: the
// identity-activation Tape::linear over a slice_rows block.
void linear_block(int rows, int k, const float* x, const nn::Tensor& w,
                  int first_row, const float* bias, std::vector<float>& y) {
  const float* block = w.data().data() + elements(first_row, w.cols());
  y.resize(elements(rows, w.cols()));
  nn::kernels::matmul_nn(rows, k, w.cols(), x, block, y.data());
  if (bias != nullptr) {
    nn::kernels::bias_act(rows, w.cols(), y.data(), bias, y.data(),
                          nn::Activation::kIdentity);
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

void GnBlock::infer(const GraphSpec& spec, const GraphBuffers& in,
                    GraphBuffers& out) const {
  check_planned(spec, "GnBlock");
  const int n = spec.num_nodes;
  const int e = spec.num_edges();
  const int g = spec.num_graphs;
  const int ei = config_.edge_in;
  const int ni = config_.node_in;
  const int gi = config_.global_in;
  if (in.nodes.size() != elements(n, ni) ||
      in.edges.size() != elements(e, ei) ||
      in.globals.size() != elements(g, gi)) {
    throw std::invalid_argument(
        "GnBlock: graph attribute buffers do not match the configured "
        "sizes");
  }
  struct Scratch {
    std::vector<float> pre;   // an MLP's layer-0 pre-activation
    std::vector<float> proj;  // a node or graph block's projection
    std::vector<float> cat;   // a concatenated MLP input
    std::vector<float> pooled_edges;
    std::vector<float> pooled_nodes;
  };
  thread_local Scratch ws;

  // --- phi_e, projected: E*W_e + b, then the sender, receiver and graph
  // projections gathered onto edges, in forward()'s order ---
  const nn::Tensor& we = edge_mlp_.first_weight();
  const int he = we.cols();
  linear_block(e, ei, in.edges.data(), we, 0,
               edge_mlp_.first_bias().data().data(), ws.pre);
  linear_block(n, ni, in.nodes.data(), we, ei, nullptr, ws.proj);
  add_gathered(spec.senders, n, he, ws.proj.data(), ws.pre.data());
  linear_block(n, ni, in.nodes.data(), we, ei + ni, nullptr, ws.proj);
  add_gathered(spec.receivers, n, he, ws.proj.data(), ws.pre.data());
  linear_block(g, gi, in.globals.data(), we, ei + 2 * ni, nullptr, ws.proj);
  add_gathered(*spec.edge_graph, g, he, ws.proj.data(), ws.pre.data());
  edge_mlp_.infer_from(e, ws.pre.data(), out.edges);

  // --- rho_{e->v}, then phi_v: [agg_edges, v_i] * W + b plus the
  // gathered graph projection ---
  const int eo = config_.edge_out;
  ws.pooled_edges.resize(elements(n, eo));
  nn::kernels::segment_sum(*spec.receiver_plan, eo, out.edges.data(),
                           ws.pooled_edges.data());
  concat_cols(n, {{eo, ws.pooled_edges.data()}, {ni, in.nodes.data()}},
              ws.cat);
  const nn::Tensor& wn = node_mlp_.first_weight();
  const int per_node = eo + ni;
  linear_block(n, per_node, ws.cat.data(), wn, 0,
               node_mlp_.first_bias().data().data(), ws.pre);
  linear_block(g, gi, in.globals.data(), wn, per_node, nullptr, ws.proj);
  add_gathered(*spec.node_graph, g, wn.cols(), ws.proj.data(),
               ws.pre.data());
  node_mlp_.infer_from(n, ws.pre.data(), out.nodes);

  // --- rho_{e->u}, rho_{v->u}, then phi_u ---
  const int no = config_.node_out;
  ws.pooled_edges.resize(elements(g, eo));
  nn::kernels::segment_sum(*spec.edge_pool_plan, eo, out.edges.data(),
                           ws.pooled_edges.data());
  ws.pooled_nodes.resize(elements(g, no));
  nn::kernels::segment_sum(*spec.node_pool_plan, no, out.nodes.data(),
                           ws.pooled_nodes.data());
  concat_cols(g,
              {{eo, ws.pooled_edges.data()},
               {no, ws.pooled_nodes.data()},
               {gi, in.globals.data()}},
              ws.cat);
  global_mlp_.infer(g, ws.cat.data(), out.globals);
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

void IndependentBlock::infer(Head head, int rows, const float* in,
                             std::vector<float>& out) const {
  switch (head) {
    case Head::kNodes:
      node_mlp_.infer(rows, in, out);
      return;
    case Head::kEdges:
      edge_mlp_.infer(rows, in, out);
      return;
    case Head::kGlobals:
      global_mlp_.infer(rows, in, out);
      return;
  }
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

void EncodeProcessDecode::infer(const GraphSpec& spec, const nn::Tensor& nodes,
                                const nn::Tensor& edges,
                                const nn::Tensor& globals, Head head,
                                std::vector<float>& out) const {
  obs::ScopedTimer infer_timer("gnn/infer");
  check_planned(spec, "EncodeProcessDecode");
  const int n = spec.num_nodes;
  const int e = spec.num_edges();
  const int g = spec.num_graphs;
  if (nodes.rows() != n || nodes.cols() != config_.node_in ||
      edges.rows() != e || edges.cols() != config_.edge_in ||
      globals.rows() != g || globals.cols() != config_.global_in) {
    throw std::invalid_argument(
        "EncodeProcessDecode: graph attribute shapes " + nodes.shape_str() +
        "/" + edges.shape_str() + "/" + globals.shape_str() +
        " do not match the configured sizes");
  }
  struct Scratch {
    GraphBuffers encoded;
    GraphBuffers core_in;
    GraphBuffers latent;
  };
  thread_local Scratch ws;
  encoder_.infer(Head::kNodes, n, nodes.data().data(), ws.encoded.nodes);
  encoder_.infer(Head::kEdges, e, edges.data().data(), ws.encoded.edges);
  encoder_.infer(Head::kGlobals, g, globals.data().data(),
                 ws.encoded.globals);
  const int l = config_.latent;
  const GraphBuffers* latent = &ws.encoded;
  for (int step = 0; step < config_.steps; ++step) {
    concat_cols(n, {{l, ws.encoded.nodes.data()}, {l, latent->nodes.data()}},
                ws.core_in.nodes);
    concat_cols(e, {{l, ws.encoded.edges.data()}, {l, latent->edges.data()}},
                ws.core_in.edges);
    concat_cols(g,
                {{l, ws.encoded.globals.data()},
                 {l, latent->globals.data()}},
                ws.core_in.globals);
    core_.infer(spec, ws.core_in, ws.latent);
    latent = &ws.latent;
  }
  switch (head) {
    case Head::kNodes:
      decoder_.infer(head, n, latent->nodes.data(), out);
      return;
    case Head::kEdges:
      decoder_.infer(head, e, latent->edges.data(), out);
      return;
    case Head::kGlobals:
      decoder_.infer(head, g, latent->globals.data(), out);
      return;
  }
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
