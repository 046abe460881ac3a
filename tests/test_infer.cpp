// Differential slice for the tape-free policy forward (rl::Policy::infer).
//
// infer() must reproduce the tape forward bit for bit: every head of every
// policy family is compared with memcmp against a one-observation
// Policy::evaluate_batch on the seeded ER/WS/BA family (5-100 nodes,
// including disconnected graphs) plus Abilene, from several threads at
// once, and against the rows of multi-observation batches (mixed
// topologies for the GNN policies), the PPO update's forward.  On
// malformed input both paths must throw std::invalid_argument.  The
// GDDRPARM reader is mutation-tested here too: infer() trusts parameter
// shapes, so a load must either throw util::IoError or yield a policy
// that infers exactly like a fresh load of the same bytes.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/experiment.hpp"
#include "core/iterative_env.hpp"
#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "core/scenario.hpp"
#include "gnn/graph_net.hpp"
#include "nn/serialize.hpp"
#include "nn/tape.hpp"
#include "rl/forward.hpp"
#include "support/routing_family.hpp"
#include "topo/zoo.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace gddr {
namespace {

using rl::Heads;
using rl::Observation;
using rl::PolicyForward;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// Moves every parameter off its initial value (biases start at zero), so
// a bias or weight read from the wrong place cannot go unnoticed.
void perturb(rl::Policy& policy, std::uint64_t seed) {
  util::Rng rng(seed);
  for (nn::Parameter* p : policy.parameters()) {
    for (float& v : p->value.data()) {
      v += static_cast<float>(rng.uniform(-0.2, 0.2));
    }
  }
}

nn::Tensor random_tensor(int rows, int cols, util::Rng& rng) {
  nn::Tensor t(rows, cols);
  for (float& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 2.0));
  return t;
}

// A graph observation of `g` with random attributes of the given widths.
Observation random_graph_observation(const graph::DiGraph& g, int node_width,
                                     int edge_width, util::Rng& rng) {
  Observation obs;
  obs.num_nodes = g.num_nodes();
  for (const auto& e : g.edges()) {
    obs.senders.push_back(e.src);
    obs.receivers.push_back(e.dst);
  }
  obs.nodes = random_tensor(g.num_nodes(), node_width, rng);
  obs.edges = random_tensor(g.num_edges(), edge_width, rng);
  obs.globals = random_tensor(1, 1, rng);
  return obs;
}

std::vector<graph::DiGraph> graphs() {
  std::vector<graph::DiGraph> out;
  for (auto& c : routing::family::graph_family()) out.push_back(c.g);
  out.push_back(topo::abilene());
  return out;
}

// The tape's three heads for each observation, read from the rows of one
// evaluate_batch over all of them.
std::vector<PolicyForward> batch_rows(
    rl::Policy& policy, const std::vector<const Observation*>& obs) {
  nn::Tape tape;
  const rl::Policy::BatchEvaluation eval = policy.evaluate_batch(tape, obs);
  const nn::Tensor& means = tape.value(eval.means);
  const nn::Tensor& log_std = tape.value(eval.log_std);
  const nn::Tensor& values = tape.value(eval.values);
  std::vector<PolicyForward> out(obs.size());
  int row = 0;
  for (std::size_t b = 0; b < obs.size(); ++b) {
    for (int j = 0; j < policy.action_dim(*obs[b]); ++j, ++row) {
      out[b].mean.push_back(means.at(row, 0));
      out[b].log_std.push_back(log_std.at(row, 0));
    }
    out[b].value = values.at(static_cast<int>(b), 0);
  }
  EXPECT_EQ(row, means.rows());
  return out;
}

// A one-observation evaluate_batch: the reference for infer().
PolicyForward tape_forward(rl::Policy& policy, const Observation& obs) {
  return batch_rows(policy, {&obs}).front();
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Every head request against the tape reference.
void expect_heads_match(const rl::Policy& policy, const PolicyForward& ref,
                        const Observation& obs, const std::string& what) {
  const PolicyForward mean = policy.infer(obs, Heads::kMean);
  EXPECT_TRUE(same_bits(mean.mean, ref.mean)) << what << ": mean";
  EXPECT_TRUE(mean.log_std.empty()) << what;
  EXPECT_EQ(mean.value, 0.0) << what;

  const PolicyForward value = policy.infer(obs, Heads::kValue);
  EXPECT_TRUE(same_bits(value.value, ref.value)) << what << ": value";
  EXPECT_TRUE(value.mean.empty()) << what;
  EXPECT_TRUE(value.log_std.empty()) << what;

  const PolicyForward all = policy.infer(obs, Heads::kAll);
  EXPECT_TRUE(same_bits(all.mean, ref.mean)) << what << ": all.mean";
  EXPECT_TRUE(same_bits(all.value, ref.value)) << what << ": all.value";
  EXPECT_TRUE(same_bits(all.log_std, ref.log_std)) << what << ": log_std";

  const PolicyForward wrapped = rl::forward_policy(policy, obs);
  EXPECT_TRUE(same_bits(wrapped.mean, ref.mean)) << what;
  EXPECT_TRUE(same_bits(wrapped.value, ref.value)) << what;
  EXPECT_TRUE(same_bits(wrapped.log_std, ref.log_std)) << what;
}

// Every observation's infer() heads against its rows of one
// multi-observation evaluate_batch.
void expect_batch_rows_match(rl::Policy& policy,
                             const std::vector<Observation>& observations,
                             const std::string& what) {
  std::vector<const Observation*> obs;
  for (const Observation& o : observations) obs.push_back(&o);
  const std::vector<PolicyForward> rows = batch_rows(policy, obs);
  for (std::size_t b = 0; b < obs.size(); ++b) {
    expect_heads_match(policy, rows[b], *obs[b],
                       what + " batch row " + std::to_string(b));
  }
}

core::GnnPolicyConfig deep_gnn_config() {
  core::GnnPolicyConfig cfg;
  cfg.memory = 3;
  cfg.latent = 8;
  cfg.steps = 3;
  cfg.mlp_hidden = {24, 12};  // two hidden layers: ping-pong scratch
  cfg.init_log_std = -0.5;
  return cfg;
}

core::GnnPolicyConfig shallow_gnn_config() {
  core::GnnPolicyConfig cfg;
  cfg.memory = 2;
  cfg.latent = 6;
  cfg.steps = 1;
  cfg.mlp_hidden = {};  // single-layer MLPs: no hidden activation
  return cfg;
}

// ---------------------------------------------------------------------------
// GNN building blocks
// ---------------------------------------------------------------------------

gnn::GraphBuffers buffers_of(const nn::Tensor& nodes, const nn::Tensor& edges,
                             const nn::Tensor& globals) {
  const auto vec = [](const nn::Tensor& t) {
    return std::vector<float>(t.data().begin(), t.data().end());
  };
  return gnn::GraphBuffers{vec(nodes), vec(edges), vec(globals)};
}

bool same_floats(const std::vector<float>& a, const nn::Tensor& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data().data(), a.size() * sizeof(float)) ==
              0);
}

TEST(InferBlocks, GnBlockMatchesTapeOnFamilyAndUnion) {
  util::Rng rng(11);
  gnn::GnBlockConfig cfg;
  cfg.node_in = 5;
  cfg.edge_in = 3;
  cfg.global_in = 2;
  cfg.node_out = 7;
  cfg.edge_out = 6;
  cfg.global_out = 4;
  cfg.mlp_hidden = {9, 5};
  gnn::GnBlock block(cfg, rng);
  for (nn::Parameter* p : block.parameters()) {
    for (float& v : p->value.data()) {
      v += static_cast<float>(rng.uniform(-0.2, 0.2));
    }
  }
  std::vector<gnn::GraphSpec> parts;
  for (const auto& g : graphs()) parts.push_back(gnn::GraphSpec::from(g));
  std::vector<const gnn::GraphSpec*> pointers;
  for (const auto& p : parts) pointers.push_back(&p);
  std::vector<gnn::GraphSpec> specs = parts;
  specs.push_back(gnn::GraphSpec::disjoint_union(pointers));

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const gnn::GraphSpec& spec = specs[i];
    const nn::Tensor nodes = random_tensor(spec.num_nodes, 5, rng);
    const nn::Tensor edges = random_tensor(spec.num_edges(), 3, rng);
    const nn::Tensor globals = random_tensor(spec.num_graphs, 2, rng);
    nn::Tape tape;
    const gnn::GraphVars out = block.forward(
        tape, spec,
        gnn::GraphVars{tape.constant(nodes), tape.constant(edges),
                       tape.constant(globals)});
    gnn::GraphBuffers got;
    block.infer(spec, buffers_of(nodes, edges, globals), got);
    EXPECT_TRUE(same_floats(got.nodes, tape.value(out.nodes))) << i;
    EXPECT_TRUE(same_floats(got.edges, tape.value(out.edges))) << i;
    EXPECT_TRUE(same_floats(got.globals, tape.value(out.globals))) << i;
  }
}

TEST(InferBlocks, EncodeProcessDecodeEveryHeadMatchesTape) {
  util::Rng rng(12);
  gnn::EncodeProcessDecodeConfig cfg;
  cfg.node_in = 4;
  cfg.edge_in = 2;
  cfg.global_in = 3;
  cfg.latent = 6;
  cfg.steps = 2;
  cfg.node_out = 2;
  cfg.edge_out = 3;
  cfg.global_out = 2;
  gnn::EncodeProcessDecode net(cfg, rng);
  for (nn::Parameter* p : net.parameters()) {
    for (float& v : p->value.data()) {
      v += static_cast<float>(rng.uniform(-0.2, 0.2));
    }
  }
  for (const auto& g : graphs()) {
    const gnn::GraphSpec spec = gnn::GraphSpec::from(g);
    const nn::Tensor nodes = random_tensor(spec.num_nodes, 4, rng);
    const nn::Tensor edges = random_tensor(spec.num_edges(), 2, rng);
    const nn::Tensor globals = random_tensor(1, 3, rng);
    nn::Tape tape;
    const gnn::GraphVars out = net.forward(
        tape, spec,
        gnn::GraphVars{tape.constant(nodes), tape.constant(edges),
                       tape.constant(globals)});
    std::vector<float> got;
    net.infer(spec, nodes, edges, globals, gnn::Head::kNodes, got);
    EXPECT_TRUE(same_floats(got, tape.value(out.nodes)));
    net.infer(spec, nodes, edges, globals, gnn::Head::kEdges, got);
    EXPECT_TRUE(same_floats(got, tape.value(out.edges)));
    net.infer(spec, nodes, edges, globals, gnn::Head::kGlobals, got);
    EXPECT_TRUE(same_floats(got, tape.value(out.globals)));
  }
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

TEST(InferPolicy, GnnPolicyHeadsMatchTapeOnFamily) {
  const core::GnnPolicyConfig configs[] = {core::experiment_gnn_config(5),
                                           deep_gnn_config(),
                                           shallow_gnn_config()};
  for (std::size_t c = 0; c < std::size(configs); ++c) {
    util::Rng prng(21 + c);
    core::GnnPolicy policy(configs[c], prng);
    perturb(policy, 31 + c);
    util::Rng rng(41 + c);
    const int width = 2 * configs[c].memory;
    std::vector<Observation> batch;
    for (const auto& g : graphs()) {
      const Observation obs = random_graph_observation(g, width, 1, rng);
      expect_heads_match(policy, tape_forward(policy, obs), obs,
                         "config " + std::to_string(c) + " graph " +
                             std::to_string(g.num_nodes()));
      batch.push_back(obs);
    }
    // One minibatch of every topology of the family.
    expect_batch_rows_match(policy, batch, "config " + std::to_string(c));
  }
}

TEST(InferPolicy, GnnPolicyMatchesTapeOnAbileneObservations) {
  util::Rng srng(3);
  core::ScenarioParams params = core::experiment_scenario_params();
  params.train_sequences = 1;
  params.test_sequences = 0;
  const core::Scenario scenario =
      core::make_scenario(topo::abilene(), params, srng);
  util::Rng prng(7);
  core::GnnPolicy policy(core::experiment_gnn_config(5), prng);
  const auto& seq = scenario.train_sequences[0];
  for (int t = 5; t < 12; ++t) {
    const Observation obs =
        core::RoutingEnv::build_observation(scenario, seq, t, 5);
    expect_heads_match(policy, tape_forward(policy, obs), obs,
                       "step " + std::to_string(t));
  }
}

TEST(InferPolicy, IterativeGnnPolicyHeadsMatchTape) {
  util::Rng prng(51);
  core::IterativeGnnPolicy policy(core::experiment_iterative_gnn_config(3),
                                  prng);
  perturb(policy, 52);

  // Iterative observations: walk the micro-steps of a few demand
  // matrices on Abilene and a generated graph.
  util::Rng srng(53);
  core::ScenarioParams params;
  params.sequence_length = 8;
  params.cycle_length = 4;
  params.train_sequences = 1;
  params.test_sequences = 1;
  std::vector<core::Scenario> scenarios;
  scenarios.push_back(core::make_scenario(topo::abilene(), params, srng));
  util::Rng grng(54);
  scenarios.push_back(
      core::make_scenario(topo::barabasi_albert(14, 2, grng), params, srng));
  core::IterativeEnvConfig env_cfg;
  env_cfg.memory = 3;
  int checked = 0;
  std::vector<Observation> batch;  // every fifth micro-step, both graphs
  for (const auto& scenario : scenarios) {
    core::IterativeRoutingEnv env({scenario}, env_cfg, 55);
    Observation obs = env.reset();
    util::Rng arng(56);
    for (int step = 0; step < 40; ++step) {
      expect_heads_match(policy, tape_forward(policy, obs), obs,
                         "micro-step " + std::to_string(step));
      ++checked;
      if (step % 5 == 0) batch.push_back(obs);
      const std::vector<double> action{arng.uniform(-1.0, 1.0),
                                       arng.uniform(-1.0, 1.0)};
      auto result = env.step(action);
      obs = result.done ? env.reset() : std::move(result.obs);
    }
  }
  EXPECT_EQ(checked, 80);

  // Random iterative-shaped observations on the seeded family.
  util::Rng rng(57);
  for (const auto& g : graphs()) {
    const Observation obs = random_graph_observation(g, 6, 4, rng);
    expect_heads_match(policy, tape_forward(policy, obs), obs,
                       "family " + std::to_string(g.num_nodes()));
    batch.push_back(obs);
  }
  expect_batch_rows_match(policy, batch, "iterative");
}

TEST(InferPolicy, MlpPolicyHeadsMatchTape) {
  const graph::DiGraph g = topo::abilene();
  const int obs_dim = 3 * g.num_nodes() * g.num_nodes();
  core::MlpPolicyConfig cfg;
  cfg.pi_hidden = {48, 24};
  cfg.vf_hidden = {32};
  util::Rng prng(61);
  core::MlpPolicy policy(obs_dim, g.num_edges(), cfg, prng);
  perturb(policy, 62);
  util::Rng rng(63);
  std::vector<Observation> batch;
  for (int i = 0; i < 6; ++i) {
    Observation obs;
    obs.flat.resize(static_cast<std::size_t>(obs_dim));
    for (double& v : obs.flat) v = rng.uniform(0.0, 3.0);
    expect_heads_match(policy, tape_forward(policy, obs), obs,
                       "sample " + std::to_string(i));
    batch.push_back(obs);
  }
  expect_batch_rows_match(policy, batch, "MLP");
}

// True when every head `heads` asks for has the reference's bits.
bool heads_match(const PolicyForward& got, const PolicyForward& ref,
                 Heads heads) {
  return (heads == Heads::kValue || same_bits(got.mean, ref.mean)) &&
         (heads == Heads::kMean || same_bits(got.value, ref.value)) &&
         (heads != Heads::kAll || same_bits(got.log_std, ref.log_std));
}

// One policy, four threads, every thread checking every observation and
// every head against the one-observation evaluate_batch computed up front.
void expect_concurrent_infer_matches(
    rl::Policy& policy, const std::vector<Observation>& observations,
    const std::string& what) {
  std::vector<PolicyForward> expected;
  for (const Observation& obs : observations) {
    expected.push_back(tape_forward(policy, obs));
  }
  const rl::Policy& shared = policy;
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        const Heads heads = std::array{Heads::kMean, Heads::kValue,
                                       Heads::kAll}[(t + round) % 3];
        for (std::size_t i = 0; i < observations.size(); ++i) {
          // Threads walk the set in different orders so the per-thread
          // spec caches and scratch buffers see different histories.
          const std::size_t k = (i * (t + 1) + round) % observations.size();
          if (!heads_match(shared.infer(observations[k], heads), expected[k],
                           heads)) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0)
        << what << " thread " << t;
  }
}

TEST(InferPolicy, ConcurrentInferOnOnePolicyIsBitIdentical) {
  util::Rng rng(73);
  std::vector<Observation> gnn_obs;
  std::vector<Observation> iterative_obs;
  for (const auto& g : graphs()) {
    gnn_obs.push_back(random_graph_observation(g, 10, 1, rng));
    iterative_obs.push_back(random_graph_observation(g, 6, 4, rng));
  }
  util::Rng gnn_rng(71);
  core::GnnPolicy gnn(core::experiment_gnn_config(5), gnn_rng);
  perturb(gnn, 72);
  expect_concurrent_infer_matches(gnn, gnn_obs, "GNN");

  util::Rng iterative_rng(74);
  core::IterativeGnnPolicy iterative(core::experiment_iterative_gnn_config(3),
                                     iterative_rng);
  perturb(iterative, 75);
  expect_concurrent_infer_matches(iterative, iterative_obs, "iterative");

  const graph::DiGraph g = topo::abilene();
  const int obs_dim = 5 * g.num_nodes() * g.num_nodes();
  util::Rng mlp_rng(76);
  core::MlpPolicy mlp(obs_dim, g.num_edges(), core::MlpPolicyConfig{},
                      mlp_rng);
  perturb(mlp, 77);
  std::vector<Observation> mlp_obs(6);
  for (Observation& obs : mlp_obs) {
    obs.flat.resize(static_cast<std::size_t>(obs_dim));
    for (double& v : obs.flat) v = rng.uniform(0.0, 3.0);
  }
  expect_concurrent_infer_matches(mlp, mlp_obs, "MLP");
}

// ---------------------------------------------------------------------------
// Malformed input: infer throws where the tape throws
// ---------------------------------------------------------------------------

void expect_both_throw(rl::Policy& policy, const Observation& obs,
                       const std::string& what) {
  for (const Heads heads : {Heads::kMean, Heads::kValue, Heads::kAll}) {
    EXPECT_THROW(policy.infer(obs, heads), std::invalid_argument) << what;
  }
  nn::Tape tape;
  EXPECT_THROW(policy.evaluate_batch(tape, {&obs}), std::invalid_argument)
      << what;
}

TEST(InferPolicy, MalformedGraphObservationsThrowLikeTheTape) {
  util::Rng prng(81);
  core::GnnPolicy policy(core::experiment_gnn_config(5), prng);
  util::Rng rng(82);
  const graph::DiGraph g = topo::abilene();
  const Observation good = random_graph_observation(g, 10, 1, rng);

  Observation wide = good;
  wide.nodes = random_tensor(g.num_nodes(), 11, rng);
  expect_both_throw(policy, wide, "node width");

  Observation short_rows = good;
  short_rows.nodes = random_tensor(g.num_nodes() - 1, 10, rng);
  expect_both_throw(policy, short_rows, "node rows");

  Observation edge_rows = good;
  edge_rows.edges = random_tensor(g.num_edges() + 2, 1, rng);
  expect_both_throw(policy, edge_rows, "edge rows");

  Observation bad_sender = good;
  bad_sender.senders[3] = g.num_nodes() + 4;
  expect_both_throw(policy, bad_sender, "sender out of range");

  Observation negative_sender = good;
  negative_sender.senders[0] = -1;
  expect_both_throw(policy, negative_sender, "negative sender");

  Observation bad_receiver = good;
  bad_receiver.receivers[5] = g.num_nodes();
  expect_both_throw(policy, bad_receiver, "receiver out of range");

  util::Rng iprng(83);
  core::IterativeGnnPolicy iterative(core::experiment_iterative_gnn_config(3),
                                     iprng);
  Observation edge_width = random_graph_observation(g, 6, 3, rng);
  expect_both_throw(iterative, edge_width, "iterative edge width");
}

TEST(InferPolicy, WrongSizeMlpObservationThrowsLikeTheTape) {
  util::Rng prng(91);
  core::MlpPolicy policy(20, 6, core::MlpPolicyConfig{}, prng);
  Observation obs;
  obs.flat.assign(21, 0.5);
  expect_both_throw(policy, obs, "mlp size");
  obs.flat.assign(20, 0.5);
  EXPECT_NO_THROW(policy.infer(obs, Heads::kAll));
}

// ---------------------------------------------------------------------------
// GDDRPARM v2 reader: seeded mutation loop
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
T get(const std::string& bytes, std::size_t at) {
  T v;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return v;
}

template <typename T>
void put(std::string& bytes, std::size_t at, T v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
}

// Byte layout of a single-section parameter file (nn/serialize.hpp):
// magic(8) version(4) count(4) | id(4) size(8) payload | "CRCS"(4)
// count(4) crc(4).  The payload is u64 count, then {u32 rows, u32 cols,
// f32 data} per parameter.
struct ParameterFileLayout {
  std::size_t payload_begin = 28;
  std::size_t payload_size = 0;
  std::size_t crc_at = 0;
  std::vector<std::size_t> shape_fields;  // offsets of every rows/cols u32
  std::vector<std::size_t> data_bytes;    // offsets of every f32 data byte
};

ParameterFileLayout layout_of(const std::string& bytes) {
  ParameterFileLayout l;
  l.payload_size = static_cast<std::size_t>(get<std::uint64_t>(bytes, 20));
  l.crc_at = l.payload_begin + l.payload_size + 8;
  std::size_t at = l.payload_begin;
  const auto count = get<std::uint64_t>(bytes, at);
  at += 8;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto rows = get<std::uint32_t>(bytes, at);
    const auto cols = get<std::uint32_t>(bytes, at + 4);
    l.shape_fields.push_back(at);
    l.shape_fields.push_back(at + 4);
    at += 8;
    const std::size_t n = std::size_t{rows} * cols * sizeof(float);
    for (std::size_t b = 0; b < n; b += 97) l.data_bytes.push_back(at + b);
    at += n;
  }
  return l;
}

void reseal(std::string& bytes, const ParameterFileLayout& l) {
  put(bytes, l.crc_at,
      util::crc32(std::string_view(bytes).substr(l.payload_begin,
                                                 l.payload_size)));
}

std::size_t pick(util::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_index(n));
}

// Deterministic mutation `seed` of a saved parameter file.
std::string mutate(const std::string& original, const ParameterFileLayout& l,
                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::string bytes = original;
  switch (seed % 6) {
    case 0: {  // byte flips anywhere
      const int flips = rng.uniform_int(1, 3);
      for (int i = 0; i < flips; ++i) {
        bytes[pick(rng, bytes.size())] ^=
            static_cast<char>(rng.uniform_int(1, 255));
      }
      break;
    }
    case 1:  // truncation
      bytes.resize(pick(rng, bytes.size()));
      break;
    case 2: {  // inserted bytes
      std::string junk(static_cast<std::size_t>(rng.uniform_int(1, 8)), '\0');
      for (char& c : junk) c = static_cast<char>(rng.uniform_int(0, 255));
      bytes.insert(pick(rng, bytes.size() + 1), junk);
      break;
    }
    case 3: {  // header fields: version, section count, id or size
      const std::size_t fields[] = {8, 12, 16, 20, 24};
      bytes[fields[pick(rng, std::size(fields))] +
            pick(rng, 4)] ^= static_cast<char>(rng.uniform_int(1, 255));
      break;
    }
    case 4: {  // shape-field edit with a valid checksum
      const std::size_t at = l.shape_fields[pick(rng, l.shape_fields.size())];
      const std::uint32_t edits[] = {0U, 1U, get<std::uint32_t>(bytes, at) + 1,
                                     get<std::uint32_t>(bytes, at) - 1,
                                     0x7fffffffU, 0xffffffffU, 65536U};
      put(bytes, at, edits[pick(rng, std::size(edits))]);
      reseal(bytes, l);
      break;
    }
    default: {  // weight bytes with a valid checksum: loads, any values
      const std::size_t at = l.data_bytes[pick(rng, l.data_bytes.size())];
      bytes[at] ^= static_cast<char>(rng.uniform_int(1, 255));
      reseal(bytes, l);
      break;
    }
  }
  return bytes;
}

TEST(CheckpointMutation, EveryLoadThrowsIoErrorOrInfersLikeAFreshLoad) {
  const core::GnnPolicyConfig cfg = core::experiment_gnn_config(5);
  util::Rng prng(101);
  core::GnnPolicy saved(cfg, prng);
  perturb(saved, 102);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("gddr_infer_mutation_" + std::to_string(::getpid()) + ".bin"))
          .string();
  nn::save_parameters(path, saved.parameters());
  const std::string original = read_file(path);
  const ParameterFileLayout layout = layout_of(original);
  ASSERT_EQ(get<std::uint32_t>(original, 8), nn::kFormatVersionSectioned);
  ASSERT_EQ(layout.crc_at + 4, original.size());

  util::Rng orng(103);
  const Observation obs =
      random_graph_observation(topo::abilene(), 10, 1, orng);

  int rejected = 0;
  int loaded = 0;
  for (std::uint64_t seed = 0; seed < 360; ++seed) {
    const std::string bytes = mutate(original, layout, seed);
    write_file(path, bytes);
    util::Rng ra(seed + 1000);
    core::GnnPolicy a(cfg, ra);
    try {
      nn::load_parameters(path, a.parameters());
    } catch (const util::IoError&) {
      ++rejected;
      continue;
    } catch (const std::exception& ex) {
      ADD_FAILURE() << "seed " << seed << ": non-IoError " << ex.what();
      continue;
    }
    ++loaded;
    // A fresh load of the same bytes into a differently initialised
    // policy must infer identically, bit for bit (NaN weights included).
    util::Rng rb(seed + 2000);
    core::GnnPolicy b(cfg, rb);
    ASSERT_NO_THROW(nn::load_parameters(path, b.parameters())) << seed;
    const PolicyForward fa = a.infer(obs, Heads::kAll);
    const PolicyForward fb = b.infer(obs, Heads::kAll);
    EXPECT_TRUE(same_bits(fa.mean, fb.mean)) << seed;
    EXPECT_TRUE(same_bits(fa.value, fb.value)) << seed;
    EXPECT_TRUE(same_bits(fa.log_std, fb.log_std)) << seed;
  }
  std::filesystem::remove(path);
  // Both outcomes occur: the checksum and shape checks reject, and
  // resealed weight edits load.
  EXPECT_GT(rejected, 200);
  EXPECT_GE(loaded, 50);
}

}  // namespace
}  // namespace gddr
