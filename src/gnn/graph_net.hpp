// Graph-network blocks (Battaglia et al. 2018), the GNN substrate of the
// GDDR policies (paper §IV, §VII-A, Figure 5).
//
// A graph here is the 3-tuple (u, V, E): a global attribute row vector, a
// node-attribute matrix (one row per vertex) and an edge-attribute matrix
// (one row per directed edge) plus the fixed sender/receiver connectivity.
//
// The full GN block implements the paper's six functions:
//   phi_e (edge update), phi_v (node update), phi_u (global update) as
//   MLPs, and the three rho pooling functions as unsorted segment sums —
//   exactly TensorFlow's tf.unsorted_segment_sum, as stated in §VII-A.
//
// phi_e's input is the concatenation [e_k, v_sender, v_receiver, u], so
// its first layer splits into row blocks of one weight matrix:
//   E*W_e + (V*W_s)[senders] + (V*W_r)[receivers] + (u*W_u)[graph] + b.
// The node and global blocks are projected once per node / graph and
// then gathered onto edges, which is less than half the multiply-adds of
// the concatenated form on the catalogue topologies (E is ~2.5x N).
// phi_v's global block is projected once per graph the same way.
//
// Every forward runs over a disjoint union of graphs (GraphSpec), so one
// pass can evaluate a whole PPO minibatch, even a mixed-topology one.
//
// EncodeProcessDecode composes an independent encoder (per-element MLPs,
// no message passing), a recurrent full GN core applied `steps` times on
// the concatenation of the encoded input and the previous latent (the
// "extra loop" in the paper's Figure 5), and an independent decoder.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "nn/kernels.hpp"
#include "nn/mlp.hpp"
#include "nn/tape.hpp"
#include "util/rng.hpp"

namespace gddr::gnn {

// Immutable connectivity of a disjoint union of one or more graphs:
// which node each directed edge leaves (sender) and enters (receiver),
// plus the graph each node and edge row belongs to.  Graph g's rows are
// contiguous and ascending (node_graph = 0,...,0,1,...,1,...), and each
// graph may have its own topology.  A single graph is the union of one.
//
// The shared_ptr members are per-spec kernel plans, built once by
// ensure_plans() and then reused by every GnBlock::forward on this spec —
// the tape retains them by pointer, so repeated forwards copy no index
// data and each bucketed segment sum sorts its ids exactly once.
struct GraphSpec {
  int num_nodes = 0;   // summed over the union
  int num_graphs = 1;
  std::vector<int> senders;
  std::vector<int> receivers;

  // Built by ensure_plans(); null until then.  GnBlock::forward requires
  // them (a spec from from() or disjoint_union() is always planned).
  std::shared_ptr<const std::vector<int>> senders_shared;
  std::shared_ptr<const std::vector<int>> receivers_shared;
  std::shared_ptr<const nn::kernels::SegmentPlan> receiver_plan;
  // Graph id per node / edge row.  ensure_plans() fills them for a single
  // graph when unset; disjoint_union() sets them from its parts.
  std::shared_ptr<const std::vector<int>> node_graph;
  std::shared_ptr<const std::vector<int>> edge_graph;
  // Pool rows per graph (rho_{v->u}, rho_{e->u}).
  std::shared_ptr<const nn::kernels::SegmentPlan> node_pool_plan;
  std::shared_ptr<const nn::kernels::SegmentPlan> edge_pool_plan;

  static GraphSpec from(const graph::DiGraph& g);
  // Disjoint union of `parts` in order: part g's node i becomes node
  // (nodes of parts 0..g-1) + i, and its edges keep their order.
  static GraphSpec disjoint_union(std::span<const GraphSpec* const> parts);
  // Idempotently builds the shared index vectors, graph ids and bucketed
  // segment plans from senders/receivers/num_nodes.
  void ensure_plans();
  bool planned() const { return receiver_plan && edge_pool_plan; }
  int num_edges() const { return static_cast<int>(senders.size()); }
};

// On-tape attribute set for a graph union, one row per node, edge and
// graph.
struct GraphVars {
  nn::Tape::Var nodes;    // N x node_dim
  nn::Tape::Var edges;    // E x edge_dim
  nn::Tape::Var globals;  // num_graphs x global_dim
};

struct GnBlockConfig {
  int node_in = 1;
  int edge_in = 1;
  int global_in = 1;
  int node_out = 16;
  int edge_out = 16;
  int global_out = 16;
  std::vector<int> mlp_hidden{32};
  nn::Activation activation = nn::Activation::kRelu;
};

// Full graph-network block with edge, node and global updates.
class GnBlock {
 public:
  GnBlock(const GnBlockConfig& config, util::Rng& rng);

  // Forward over any union `spec` describes.  Every kernel touched is
  // row-local or accumulates each output element over one graph's rows in
  // ascending order, so each output row is bit-identical to the same row
  // of a forward over that graph alone.
  GraphVars forward(nn::Tape& tape, const GraphSpec& spec,
                    const GraphVars& in);

  std::vector<nn::Parameter*> parameters();
  std::size_t num_parameters() const;
  const GnBlockConfig& config() const { return config_; }

 private:
  GnBlockConfig config_;
  nn::Mlp edge_mlp_;    // phi_e
  nn::Mlp node_mlp_;    // phi_v
  nn::Mlp global_mlp_;  // phi_u
};

// Element-wise block: independent MLPs on nodes, edges and globals with no
// message passing (the encoder / decoder of encode-process-decode).
struct IndependentConfig {
  int node_in = 1, edge_in = 1, global_in = 1;
  int node_out = 16, edge_out = 16, global_out = 16;
  std::vector<int> mlp_hidden{32};
  nn::Activation activation = nn::Activation::kRelu;
  // Initial scale of each MLP's output layer (see
  // EncodeProcessDecodeConfig::decoder_output_scale).
  double output_scale = 1.0;
};

class IndependentBlock {
 public:
  IndependentBlock(const IndependentConfig& config, util::Rng& rng);

  GraphVars forward(nn::Tape& tape, const GraphVars& in);

  std::vector<nn::Parameter*> parameters();
  std::size_t num_parameters() const;

 private:
  IndependentConfig config_;
  nn::Mlp node_mlp_;
  nn::Mlp edge_mlp_;
  nn::Mlp global_mlp_;
};

struct EncodeProcessDecodeConfig {
  int node_in = 2;   // (sum outgoing, sum incoming) demand per vertex
  int edge_in = 1;
  int global_in = 1;
  int latent = 16;
  int steps = 3;  // message-passing iterations of the core
  int node_out = 1;
  int edge_out = 1;   // routing weight per edge (paper Eq. 5)
  int global_out = 1;
  std::vector<int> mlp_hidden{32};
  nn::Activation activation = nn::Activation::kRelu;
  // Initial scale of the decoder MLPs' output layers; policy heads use a
  // small value (e.g. 0.01) so initial actions start near zero.
  double decoder_output_scale = 1.0;
};

class EncodeProcessDecode {
 public:
  EncodeProcessDecode(const EncodeProcessDecodeConfig& config, util::Rng& rng);

  // Forward over any union `spec` describes (see GnBlock::forward); the
  // encoder and decoder are row-independent MLPs.
  GraphVars forward(nn::Tape& tape, const GraphSpec& spec,
                    const GraphVars& in);

  std::vector<nn::Parameter*> parameters();
  std::size_t num_parameters() const;
  const EncodeProcessDecodeConfig& config() const { return config_; }

 private:
  EncodeProcessDecodeConfig config_;
  IndependentBlock encoder_;
  GnBlock core_;
  IndependentBlock decoder_;
};

}  // namespace gddr::gnn
