#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "gnn/graph_net.hpp"
#include "nn/optimizer.hpp"
#include "topo/generators.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"

namespace gddr::gnn {
namespace {

using nn::Tape;
using nn::Tensor;
using Var = Tape::Var;

GraphSpec line_graph() {
  // 0 -> 1 -> 2
  GraphSpec spec;
  spec.num_nodes = 3;
  spec.senders = {0, 1};
  spec.receivers = {1, 2};
  spec.ensure_plans();
  return spec;
}

GraphVars make_vars(Tape& tape, const GraphSpec& spec, int node_dim,
                    int edge_dim, int global_dim, util::Rng& rng) {
  Tensor nodes(spec.num_nodes, node_dim);
  Tensor edges(spec.num_edges(), edge_dim);
  Tensor globals(1, global_dim);
  for (float& v : nodes.data()) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : edges.data()) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : globals.data()) v = static_cast<float>(rng.uniform(-1, 1));
  return GraphVars{tape.constant(nodes), tape.constant(edges),
                   tape.constant(globals)};
}

TEST(GraphSpec, FromDiGraph) {
  const auto g = topo::abilene();
  const GraphSpec spec = GraphSpec::from(g);
  EXPECT_EQ(spec.num_nodes, 11);
  EXPECT_EQ(spec.num_edges(), 28);
  for (int e = 0; e < spec.num_edges(); ++e) {
    EXPECT_EQ(spec.senders[static_cast<size_t>(e)], g.edge(e).src);
    EXPECT_EQ(spec.receivers[static_cast<size_t>(e)], g.edge(e).dst);
  }
}

TEST(GnBlock, OutputShapes) {
  util::Rng rng(1);
  GnBlockConfig cfg;
  cfg.node_in = 2;
  cfg.edge_in = 1;
  cfg.global_in = 1;
  cfg.node_out = 5;
  cfg.edge_out = 4;
  cfg.global_out = 3;
  GnBlock block(cfg, rng);
  Tape tape;
  const GraphSpec spec = line_graph();
  const GraphVars in = make_vars(tape, spec, 2, 1, 1, rng);
  const GraphVars out = block.forward(tape, spec, in);
  EXPECT_EQ(tape.value(out.nodes).rows(), 3);
  EXPECT_EQ(tape.value(out.nodes).cols(), 5);
  EXPECT_EQ(tape.value(out.edges).rows(), 2);
  EXPECT_EQ(tape.value(out.edges).cols(), 4);
  EXPECT_EQ(tape.value(out.globals).rows(), 1);
  EXPECT_EQ(tape.value(out.globals).cols(), 3);
}

TEST(GnBlock, ShapeMismatchThrows) {
  util::Rng rng(2);
  GnBlockConfig cfg;
  cfg.node_in = 2;
  GnBlock block(cfg, rng);
  Tape tape;
  const GraphSpec spec = line_graph();
  const GraphVars bad = make_vars(tape, spec, 3, 1, 1, rng);  // node_dim 3
  EXPECT_THROW(block.forward(tape, spec, bad), std::invalid_argument);
}

TEST(GnBlock, ParameterCountIndependentOfGraphSize) {
  util::Rng rng(3);
  GnBlockConfig cfg;
  GnBlock block(cfg, rng);
  const std::size_t count = block.num_parameters();
  // Forward on two very different graphs uses the same parameters — the
  // central generalisation claim of the paper (§IX).
  for (const auto& name : {"SmallRing", "GeantLike"}) {
    Tape tape;
    const GraphSpec spec = GraphSpec::from(topo::by_name(name));
    const GraphVars in = make_vars(tape, spec, cfg.node_in, cfg.edge_in,
                                   cfg.global_in, rng);
    const GraphVars out = block.forward(tape, spec, in);
    EXPECT_EQ(tape.value(out.nodes).rows(), spec.num_nodes);
  }
  EXPECT_EQ(block.num_parameters(), count);
}

TEST(GnBlock, MessagePassingPropagatesInformation) {
  // Changing node 0's input must change node 1's output (0 -> 1 edge) in a
  // single block, and node 2's only after two applications.
  util::Rng rng(4);
  GnBlockConfig cfg;
  cfg.node_in = 1;
  cfg.edge_in = 1;
  cfg.global_in = 1;
  cfg.node_out = 1;
  cfg.edge_out = 1;
  cfg.global_out = 1;
  GnBlock block(cfg, rng);
  const GraphSpec spec = line_graph();

  auto run = [&](float node0_feat) {
    Tape tape;
    Tensor nodes(3, 1);
    nodes.at(0, 0) = node0_feat;
    nodes.at(1, 0) = 0.3F;
    nodes.at(2, 0) = -0.2F;
    const GraphVars in{tape.constant(nodes), tape.constant(Tensor(2, 1)),
                       tape.constant(Tensor(1, 1))};
    const GraphVars out = block.forward(tape, spec, in);
    return std::pair<float, float>{tape.value(out.nodes).at(1, 0),
                                   tape.value(out.nodes).at(2, 0)};
  };
  const auto [n1_a, n2_a] = run(0.9F);
  const auto [n1_b, n2_b] = run(-0.9F);
  EXPECT_NE(n1_a, n1_b) << "neighbour must see the change";
  // Node 2 sees node 0 only through the global attribute path in one step;
  // with the global update included the value may change, so we don't
  // assert equality here — only that the direct neighbour changed.
}

TEST(GnBlock, PermutationEquivariance) {
  // Relabelling the nodes (and renumbering senders/receivers accordingly)
  // must permute node outputs and leave edge outputs unchanged.
  util::Rng rng(5);
  GnBlockConfig cfg;
  cfg.node_in = 2;
  cfg.edge_in = 1;
  cfg.global_in = 1;
  cfg.node_out = 3;
  cfg.edge_out = 3;
  cfg.global_out = 3;
  GnBlock block(cfg, rng);

  GraphSpec spec;
  spec.num_nodes = 4;
  spec.senders = {0, 1, 2, 3};
  spec.receivers = {1, 2, 3, 0};
  spec.ensure_plans();

  util::Rng frng(6);
  Tensor nodes(4, 2);
  for (float& v : nodes.data()) v = static_cast<float>(frng.uniform(-1, 1));
  Tensor edges(4, 1);
  for (float& v : edges.data()) v = static_cast<float>(frng.uniform(-1, 1));
  Tensor globals(1, 1, 0.5F);

  // Permutation pi: old -> new.
  const std::vector<int> pi{2, 0, 3, 1};
  GraphSpec pspec;
  pspec.num_nodes = 4;
  for (int e = 0; e < 4; ++e) {
    pspec.senders.push_back(pi[static_cast<size_t>(spec.senders[static_cast<size_t>(e)])]);
    pspec.receivers.push_back(
        pi[static_cast<size_t>(spec.receivers[static_cast<size_t>(e)])]);
  }
  pspec.ensure_plans();
  Tensor pnodes(4, 2);
  for (int v = 0; v < 4; ++v) {
    for (int c = 0; c < 2; ++c) {
      pnodes.at(pi[static_cast<size_t>(v)], c) = nodes.at(v, c);
    }
  }

  Tape t1;
  const GraphVars out1 = block.forward(
      t1, spec,
      GraphVars{t1.constant(nodes), t1.constant(edges),
                t1.constant(globals)});
  Tape t2;
  const GraphVars out2 = block.forward(
      t2, pspec,
      GraphVars{t2.constant(pnodes), t2.constant(edges),
                t2.constant(globals)});

  for (int e = 0; e < 4; ++e) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(t1.value(out1.edges).at(e, c),
                  t2.value(out2.edges).at(e, c), 1e-5);
    }
  }
  for (int v = 0; v < 4; ++v) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(t1.value(out1.nodes).at(v, c),
                  t2.value(out2.nodes).at(pi[static_cast<size_t>(v)], c),
                  1e-5);
    }
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(t1.value(out1.globals).at(0, c),
                t2.value(out2.globals).at(0, c), 1e-5);
  }
}

TEST(IndependentBlock, NoCrossNodeMixing) {
  util::Rng rng(7);
  IndependentConfig cfg;
  cfg.node_in = 1;
  cfg.edge_in = 1;
  cfg.global_in = 1;
  cfg.node_out = 2;
  cfg.edge_out = 2;
  cfg.global_out = 2;
  IndependentBlock block(cfg, rng);
  auto run = [&](float node0) {
    Tape tape;
    Tensor nodes(2, 1);
    nodes.at(0, 0) = node0;
    nodes.at(1, 0) = 0.4F;
    const GraphVars out = block.forward(
        tape, GraphVars{tape.constant(nodes), tape.constant(Tensor(1, 1)),
                        tape.constant(Tensor(1, 1))});
    return tape.value(out.nodes).at(1, 0);
  };
  EXPECT_FLOAT_EQ(run(1.0F), run(-1.0F));
}

TEST(EncodeProcessDecode, OutputShapesMatchConfig) {
  util::Rng rng(8);
  EncodeProcessDecodeConfig cfg;
  cfg.node_in = 10;
  cfg.edge_in = 3;
  cfg.global_in = 1;
  cfg.node_out = 1;
  cfg.edge_out = 1;
  cfg.global_out = 2;
  EncodeProcessDecode net(cfg, rng);
  Tape tape;
  const GraphSpec spec = GraphSpec::from(topo::abilene());
  const GraphVars in = make_vars(tape, spec, 10, 3, 1, rng);
  const GraphVars out = net.forward(tape, spec, in);
  EXPECT_EQ(tape.value(out.edges).rows(), 28);
  EXPECT_EQ(tape.value(out.edges).cols(), 1);
  EXPECT_EQ(tape.value(out.globals).cols(), 2);
}

TEST(EncodeProcessDecode, MoreStepsReachFurther) {
  // On a 5-node path graph, information from node 0 reaches node 4 only
  // with enough message-passing steps.
  util::Rng rng(9);
  EncodeProcessDecodeConfig cfg;
  cfg.node_in = 1;
  cfg.edge_in = 1;
  cfg.global_in = 1;
  cfg.node_out = 1;
  cfg.steps = 1;
  // Use a graph with NO global shortcut: impossible — the GN global
  // aggregates everything in one step.  Instead verify steps change the
  // function: different step counts give different outputs.
  EncodeProcessDecode one(cfg, rng);
  util::Rng rng2(9);
  cfg.steps = 4;
  EncodeProcessDecode four(cfg, rng2);  // same init sequence
  const GraphSpec spec = line_graph();
  util::Rng frng(10);
  Tape t1;
  const GraphVars in1 = make_vars(t1, spec, 1, 1, 1, frng);
  const GraphVars o1 = one.forward(t1, spec, in1);
  util::Rng frng2(10);
  Tape t2;
  const GraphVars in2 = make_vars(t2, spec, 1, 1, 1, frng2);
  const GraphVars o2 = four.forward(t2, spec, in2);
  EXPECT_NE(t1.value(o1.nodes).at(2, 0), t2.value(o2.nodes).at(2, 0));
}

TEST(EncodeProcessDecode, BadStepsThrows) {
  util::Rng rng(11);
  EncodeProcessDecodeConfig cfg;
  cfg.steps = 0;
  EXPECT_THROW(EncodeProcessDecode(cfg, rng), std::invalid_argument);
}

TEST(EncodeProcessDecode, GradientsReachAllParameters) {
  util::Rng rng(12);
  EncodeProcessDecodeConfig cfg;
  cfg.node_in = 2;
  cfg.edge_in = 1;
  cfg.global_in = 1;
  cfg.latent = 8;
  cfg.steps = 2;
  EncodeProcessDecode net(cfg, rng);
  const auto params = net.parameters();
  Tape tape;
  const GraphSpec spec = GraphSpec::from(topo::abilene());
  const GraphVars in = make_vars(tape, spec, 2, 1, 1, rng);
  const GraphVars out = net.forward(tape, spec, in);
  const Var loss = tape.add(
      tape.sum_all(tape.square(out.edges)),
      tape.add(tape.sum_all(tape.square(out.nodes)),
               tape.sum_all(tape.square(out.globals))));
  nn::zero_grads(params);
  tape.backward(loss);
  int zero_grad_params = 0;
  for (const auto* p : params) {
    if (p->grad.squared_norm() == 0.0) ++zero_grad_params;
  }
  // Every MLP weight matrix should receive gradient (biases of dead relu
  // units can be zero, so allow a small number of zero-grad tensors).
  EXPECT_LE(zero_grad_params, static_cast<int>(params.size()) / 4);
}

TEST(EncodeProcessDecode, LearnsEdgeSumTask) {
  // Supervised toy task: edge target = sum of endpoint node features.
  // The GNN must drive the loss down by an order of magnitude.
  util::Rng rng(13);
  EncodeProcessDecodeConfig cfg;
  cfg.node_in = 1;
  cfg.edge_in = 1;
  cfg.global_in = 1;
  cfg.latent = 16;
  cfg.steps = 2;
  EncodeProcessDecode net(cfg, rng);
  nn::Adam adam(0.01);
  const auto params = net.parameters();
  const GraphSpec spec = GraphSpec::from(topo::abilene());

  util::Rng data_rng(14);
  double first = 0.0;
  double last = 0.0;
  for (int iter = 0; iter < 300; ++iter) {
    Tensor nodes(spec.num_nodes, 1);
    for (float& v : nodes.data()) {
      v = static_cast<float>(data_rng.uniform(-1, 1));
    }
    Tensor target(spec.num_edges(), 1);
    for (int e = 0; e < spec.num_edges(); ++e) {
      target.at(e, 0) =
          nodes.at(spec.senders[static_cast<size_t>(e)], 0) +
          nodes.at(spec.receivers[static_cast<size_t>(e)], 0);
    }
    Tape tape;
    const GraphVars out = net.forward(
        tape, spec,
        GraphVars{tape.constant(nodes),
                  tape.constant(Tensor(spec.num_edges(), 1)),
                  tape.constant(Tensor(1, 1))});
    const Var loss = tape.mean_all(
        tape.square(tape.sub(out.edges, tape.constant(target))));
    nn::zero_grads(params);
    tape.backward(loss);
    adam.step(params);
    const double l = tape.value(loss).at(0, 0);
    if (iter == 0) first = l;
    last = l;
  }
  EXPECT_LT(last, first / 10.0);
}

TEST(EncodeProcessDecode, SameModelRunsOnDifferentTopologies) {
  // The paper's transfer property: one parameter set, many graphs.
  util::Rng rng(15);
  EncodeProcessDecodeConfig cfg;
  cfg.node_in = 2;
  EncodeProcessDecode net(cfg, rng);
  for (const auto& name : topo::catalogue_names()) {
    const GraphSpec spec = GraphSpec::from(topo::by_name(name));
    Tape tape;
    util::Rng frng(16);
    const GraphVars in = make_vars(tape, spec, 2, 1, 1, frng);
    const GraphVars out = net.forward(tape, spec, in);
    EXPECT_EQ(tape.value(out.edges).rows(), spec.num_edges()) << name;
  }
}

TEST(GnBlock, UnplannedSpecThrows) {
  util::Rng rng(20);
  GnBlock block(GnBlockConfig{}, rng);
  GraphSpec spec;
  spec.num_nodes = 3;
  spec.senders = {0, 1};
  spec.receivers = {1, 2};
  Tape tape;
  const GraphVars in = make_vars(tape, spec, 1, 1, 1, rng);
  EXPECT_THROW(block.forward(tape, spec, in), std::invalid_argument);
}

// Row-stacks per-graph inputs into the layout a disjoint union expects
// (graph g's rows follow graph g-1's), with different values per graph so
// the test can tell the graphs apart.  per_graph[g] holds the same values
// on copy_tapes[g].
GraphVars make_union_vars(Tape& tape, const std::vector<GraphSpec>& parts,
                          int node_dim, int edge_dim, int global_dim,
                          std::vector<GraphVars>& per_graph,
                          std::deque<Tape>& copy_tapes, util::Rng& rng) {
  int nodes = 0;
  int edges = 0;
  for (const GraphSpec& p : parts) {
    nodes += p.num_nodes;
    edges += p.num_edges();
  }
  Tensor un(nodes, node_dim);
  Tensor ue(edges, edge_dim);
  Tensor ug(static_cast<int>(parts.size()), global_dim);
  copy_tapes.resize(parts.size());
  per_graph.clear();
  int node_row = 0;
  int edge_row = 0;
  for (std::size_t g = 0; g < parts.size(); ++g) {
    Tensor n(parts[g].num_nodes, node_dim);
    Tensor e(parts[g].num_edges(), edge_dim);
    Tensor u(1, global_dim);
    for (Tensor* t : {&n, &e, &u}) {
      for (float& v : t->data()) v = static_cast<float>(rng.uniform(-1, 1));
    }
    for (int r = 0; r < n.rows(); ++r) {
      for (int c = 0; c < node_dim; ++c) un.at(node_row + r, c) = n.at(r, c);
    }
    for (int r = 0; r < e.rows(); ++r) {
      for (int c = 0; c < edge_dim; ++c) ue.at(edge_row + r, c) = e.at(r, c);
    }
    for (int c = 0; c < global_dim; ++c) {
      ug.at(static_cast<int>(g), c) = u.at(0, c);
    }
    node_row += n.rows();
    edge_row += e.rows();
    Tape& t = copy_tapes[g];
    per_graph.push_back(
        GraphVars{t.constant(n), t.constant(e), t.constant(u)});
  }
  return GraphVars{tape.constant(un), tape.constant(ue), tape.constant(ug)};
}

void expect_rows_bit_identical(const Tensor& stacked, const Tensor& solo,
                               int row_offset, const char* what) {
  ASSERT_EQ(stacked.cols(), solo.cols());
  for (int r = 0; r < solo.rows(); ++r) {
    for (int c = 0; c < solo.cols(); ++c) {
      // EXPECT_EQ on float demands exact bit-level agreement (NaN aside);
      // approximate closeness would hide a reordered accumulation.
      EXPECT_EQ(stacked.at(row_offset + r, c), solo.at(r, c))
          << what << " row " << r << " col " << c;
    }
  }
}

// Different topologies, one repeated, so the union mixes sizes.
std::vector<GraphSpec> mixed_parts() {
  return {GraphSpec::from(topo::abilene()), GraphSpec::from(topo::nsfnet()),
          GraphSpec::from(topo::by_name("SmallRing")),
          GraphSpec::from(topo::abilene())};
}

std::vector<const GraphSpec*> pointers(const std::vector<GraphSpec>& parts) {
  std::vector<const GraphSpec*> out;
  for (const GraphSpec& p : parts) out.push_back(&p);
  return out;
}

TEST(GraphSpec, DisjointUnionOffsetsPartsAndTagsGraphs) {
  const std::vector<GraphSpec> parts = mixed_parts();
  const GraphSpec u = GraphSpec::disjoint_union(pointers(parts));
  ASSERT_TRUE(u.planned());
  EXPECT_EQ(u.num_graphs, 4);
  int node_offset = 0;
  int edge_offset = 0;
  for (int g = 0; g < 4; ++g) {
    const GraphSpec& p = parts[static_cast<std::size_t>(g)];
    for (int e = 0; e < p.num_edges(); ++e) {
      const auto idx = static_cast<std::size_t>(edge_offset + e);
      EXPECT_EQ(u.senders[idx],
                p.senders[static_cast<std::size_t>(e)] + node_offset);
      EXPECT_EQ(u.receivers[idx],
                p.receivers[static_cast<std::size_t>(e)] + node_offset);
      EXPECT_EQ((*u.edge_graph)[idx], g);
    }
    for (int n = 0; n < p.num_nodes; ++n) {
      EXPECT_EQ((*u.node_graph)[static_cast<std::size_t>(node_offset + n)],
                g);
    }
    node_offset += p.num_nodes;
    edge_offset += p.num_edges();
  }
  EXPECT_EQ(u.num_nodes, node_offset);
  EXPECT_EQ(u.num_edges(), edge_offset);
  EXPECT_THROW(GraphSpec::disjoint_union({}), std::invalid_argument);
  const GraphSpec* nested[] = {&u};
  EXPECT_THROW(GraphSpec::disjoint_union(nested), std::invalid_argument);
}

// The PPO update evaluates a whole minibatch, and the serving engine a
// micro-batch, as one union; both are only admissible because the union
// forward is *bit-identical* per graph — a result must not depend on
// which graphs it shared the pass with.
TEST(GnBlock, UnionForwardBitIdenticalToPerGraphForwards) {
  util::Rng rng(21);
  GnBlockConfig cfg;
  cfg.node_in = 3;
  cfg.edge_in = 2;
  cfg.global_in = 2;
  cfg.node_out = 7;
  cfg.edge_out = 5;
  cfg.global_out = 4;
  GnBlock block(cfg, rng);

  const std::vector<GraphSpec> parts = mixed_parts();
  const GraphSpec u = GraphSpec::disjoint_union(pointers(parts));
  Tape union_tape;
  std::vector<GraphVars> per_graph;
  std::deque<Tape> copy_tapes;
  util::Rng frng(22);
  const GraphVars in = make_union_vars(union_tape, parts, 3, 2, 2, per_graph,
                                       copy_tapes, frng);
  const GraphVars out = block.forward(union_tape, u, in);
  const Tensor& nodes = union_tape.value(out.nodes);
  const Tensor& edges = union_tape.value(out.edges);
  const Tensor& globals = union_tape.value(out.globals);
  ASSERT_EQ(globals.rows(), 4);

  int node_offset = 0;
  int edge_offset = 0;
  for (std::size_t g = 0; g < parts.size(); ++g) {
    Tape& t = copy_tapes[g];
    const GraphVars solo = block.forward(t, parts[g], per_graph[g]);
    expect_rows_bit_identical(nodes, t.value(solo.nodes), node_offset,
                              "nodes");
    expect_rows_bit_identical(edges, t.value(solo.edges), edge_offset,
                              "edges");
    expect_rows_bit_identical(globals, t.value(solo.globals),
                              static_cast<int>(g), "globals");
    node_offset += parts[g].num_nodes;
    edge_offset += parts[g].num_edges();
  }
}

TEST(EncodeProcessDecode, UnionForwardBitIdenticalToPerGraphForwards) {
  util::Rng rng(23);
  EncodeProcessDecodeConfig cfg;
  cfg.node_in = 2;
  cfg.steps = 3;
  cfg.global_out = 2;
  EncodeProcessDecode net(cfg, rng);

  const std::vector<GraphSpec> parts = mixed_parts();
  const GraphSpec u = GraphSpec::disjoint_union(pointers(parts));
  Tape union_tape;
  std::vector<GraphVars> per_graph;
  std::deque<Tape> copy_tapes;
  util::Rng frng(24);
  const GraphVars in = make_union_vars(union_tape, parts, 2, 1, 1, per_graph,
                                       copy_tapes, frng);
  const GraphVars out = net.forward(union_tape, u, in);
  const Tensor& edges = union_tape.value(out.edges);
  const Tensor& globals = union_tape.value(out.globals);

  int edge_offset = 0;
  for (std::size_t g = 0; g < parts.size(); ++g) {
    Tape& t = copy_tapes[g];
    const GraphVars solo = net.forward(t, parts[g], per_graph[g]);
    expect_rows_bit_identical(edges, t.value(solo.edges), edge_offset,
                              "decoded edges");
    expect_rows_bit_identical(globals, t.value(solo.globals),
                              static_cast<int>(g), "decoded globals");
    edge_offset += parts[g].num_edges();
  }
}

// Test-only reference for GnBlock::forward: phi_e and phi_v evaluated on
// their explicit input concatenations [e_k, v_sender, v_receiver, u] and
// [agg, v_i, u] (the form the projected updates replace), reading the
// block's own parameters in parameters() order — edge MLP, node MLP,
// global MLP, each (W, b) per layer.  Single graph only.
GraphVars concat_reference_forward(Tape& tape, GnBlock& block,
                                   const GraphSpec& spec, const GraphVars& in) {
  const std::vector<nn::Parameter*> params = block.parameters();
  const std::size_t layers = block.config().mlp_hidden.size() + 1;
  const auto mlp = [&](std::size_t first, Var x) {
    for (std::size_t l = 0; l < layers; ++l) {
      x = tape.linear(x, tape.leaf(*params[first + 2 * l]),
                      tape.leaf(*params[first + 2 * l + 1]),
                      l + 1 == layers ? nn::Activation::kIdentity
                                      : block.config().activation);
    }
    return x;
  };
  Var edge_in = tape.concat_cols(in.edges, tape.gather_rows(in.nodes,
                                                            spec.senders));
  edge_in = tape.concat_cols(edge_in, tape.gather_rows(in.nodes,
                                                       spec.receivers));
  edge_in = tape.concat_cols(edge_in,
                             tape.broadcast_rows(in.globals, spec.num_edges()));
  const Var edges = mlp(0, edge_in);
  Var node_in = tape.concat_cols(
      tape.segment_sum(edges, spec.receivers, spec.num_nodes), in.nodes);
  node_in = tape.concat_cols(node_in,
                             tape.broadcast_rows(in.globals, spec.num_nodes));
  const Var nodes = mlp(2 * layers, node_in);
  Var global_in = tape.concat_cols(tape.sum_rows(edges), tape.sum_rows(nodes));
  global_in = tape.concat_cols(global_in, in.globals);
  return GraphVars{nodes, edges, mlp(4 * layers, global_in)};
}

double max_abs(const Tensor& t) {
  double m = 0.0;
  for (float v : t.data()) m = std::max(m, static_cast<double>(std::abs(v)));
  return m;
}

// Differential check of the projected edge update: values and parameter
// gradients of GnBlock::forward against the concat reference on a seeded
// random-topology family at 5-100 nodes.
TEST(GnBlock, ProjectedEdgeUpdateMatchesConcatReference) {
  util::Rng topo_rng(31);
  std::vector<std::pair<std::string, graph::DiGraph>> cases;
  cases.emplace_back("er5", topo::erdos_renyi(5, 0.4, topo_rng));
  cases.emplace_back("er30", topo::erdos_renyi(30, 0.12, topo_rng));
  cases.emplace_back("ws24", topo::watts_strogatz(24, 4, 0.3, topo_rng));
  cases.emplace_back("ws60", topo::watts_strogatz(60, 4, 0.2, topo_rng));
  cases.emplace_back("ba6", topo::barabasi_albert(6, 2, topo_rng));
  cases.emplace_back("ba100", topo::barabasi_albert(100, 2, topo_rng));

  util::Rng rng(32);
  GnBlockConfig cfg;
  cfg.node_in = 6;
  cfg.edge_in = 3;
  cfg.global_in = 4;
  cfg.node_out = 5;
  cfg.edge_out = 7;
  cfg.global_out = 2;
  GnBlock block(cfg, rng);
  const std::vector<nn::Parameter*> params = block.parameters();

  for (const auto& [name, g] : cases) {
    const GraphSpec spec = GraphSpec::from(g);
    std::vector<Tensor> values;
    std::vector<std::vector<Tensor>> grads;
    for (int variant = 0; variant < 2; ++variant) {
      Tape tape;
      util::Rng vrng(34);
      const GraphVars in = make_vars(tape, spec, cfg.node_in, cfg.edge_in,
                                     cfg.global_in, vrng);
      const GraphVars out = variant == 0
                                ? block.forward(tape, spec, in)
                                : concat_reference_forward(tape, block, spec,
                                                           in);
      const Var loss = tape.add(
          tape.sum_all(tape.square(out.edges)),
          tape.add(tape.sum_all(tape.square(out.nodes)),
                   tape.sum_all(tape.square(out.globals))));
      nn::zero_grads(params);
      tape.backward(loss);
      values.push_back(tape.value(out.edges));
      values.push_back(tape.value(out.nodes));
      values.push_back(tape.value(out.globals));
      grads.emplace_back();
      for (const nn::Parameter* p : params) grads.back().push_back(p->grad);
    }
    for (std::size_t k = 0; k < 3; ++k) {
      const Tensor& got = values[k];
      const Tensor& want = values[k + 3];
      ASSERT_TRUE(got.same_shape(want)) << name;
      const double tol = 1e-5 * std::max(1.0, max_abs(want));
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got.data()[i], want.data()[i], tol)
            << name << " output " << k << " element " << i;
      }
    }
    double grad_scale = 0.0;
    for (const Tensor& want : grads[1]) {
      grad_scale = std::max(grad_scale, max_abs(want));
    }
    const double tol = 1e-5 * grad_scale;
    for (std::size_t p = 0; p < params.size(); ++p) {
      const Tensor& got = grads[0][p];
      const Tensor& want = grads[1][p];
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got.data()[i], want.data()[i], tol)
            << name << " param " << p << " element " << i;
      }
    }
  }
}

}  // namespace
}  // namespace gddr::gnn
