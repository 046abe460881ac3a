// The three routing policies the paper evaluates (§VII, Figures 4-5):
//
//  * MlpPolicy          — Valadarsky et al.'s baseline: an MLP over the
//                         flattened demand history; input and output sizes
//                         are fixed to one topology.
//  * GnnPolicy          — GDDR's encode-process-decode graph network; node
//                         inputs are per-vertex demand sums (Eq. 4), the
//                         action is read from decoded edge attributes
//                         (Eq. 5).  Parameter count is independent of the
//                         topology, so a trained policy transfers.
//  * IterativeGnnPolicy — GDDR's iterative variant (§VII-B): edge inputs
//                         carry Eq. 6's (weight, set, target) tuple and the
//                         2-D action (weight, gamma) is read from the
//                         decoded global attribute (Eq. 7).
//
// Every policy owns a separate value network of the same family plus a
// state-independent log-std (scalar for variable-dimension actions).
#pragma once

#include <memory>
#include <string>

#include "gnn/graph_net.hpp"
#include "nn/mlp.hpp"
#include "rl/policy.hpp"
#include "util/rng.hpp"

namespace gddr::core {

struct MlpPolicyConfig {
  std::vector<int> pi_hidden{128, 128};
  std::vector<int> vf_hidden{128, 128};
  double init_log_std = -0.7;
};

class MlpPolicy final : public rl::Policy {
 public:
  // obs_dim = memory * |V|^2 (flattened demand history); action_dim = |E|.
  MlpPolicy(int obs_dim, int action_dim, const MlpPolicyConfig& config,
            util::Rng& rng);

  int action_dim(const rl::Observation& obs) const override;
  nn::Tape::Var action_mean(nn::Tape& tape,
                            const rl::Observation& obs) override;
  nn::Tape::Var value(nn::Tape& tape, const rl::Observation& obs) override;
  nn::Tape::Var log_std_row(nn::Tape& tape, int action_dim) override;
  BatchEvaluation evaluate_batch(
      nn::Tape& tape, const std::vector<const rl::Observation*>& obs) override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override { return "MLP"; }

  std::size_t num_parameters() const;

 private:
  // The observations' flat vectors as one B x obs_dim constant (validated).
  nn::Tape::Var flat_rows(nn::Tape& tape,
                          const std::vector<const rl::Observation*>& obs);

  int obs_dim_;
  int action_dim_;
  nn::Mlp pi_;
  nn::Mlp vf_;
  nn::Parameter log_std_;
};

struct GnnPolicyConfig {
  int memory = 5;  // node features are 2 * memory wide by default
  // Overrides the node-feature width when non-zero (used by the
  // NodeFeatureMode::kFullDemandRows ablation, where the width is
  // 2 * |V| * memory and the policy is tied to one topology).
  int node_feature_width = 0;
  int latent = 16;
  int steps = 3;
  std::vector<int> mlp_hidden{32};
  double init_log_std = -0.7;
  double output_scale = 0.01;  // applied to the decoded action head
};

class GnnPolicy final : public rl::Policy {
 public:
  GnnPolicy(const GnnPolicyConfig& config, util::Rng& rng);

  int action_dim(const rl::Observation& obs) const override;
  nn::Tape::Var action_mean(nn::Tape& tape,
                            const rl::Observation& obs) override;
  nn::Tape::Var value(nn::Tape& tape, const rl::Observation& obs) override;
  nn::Tape::Var log_std_row(nn::Tape& tape, int action_dim) override;
  BatchEvaluation evaluate_batch(
      nn::Tape& tape, const std::vector<const rl::Observation*>& obs) override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override { return "GNN"; }

  // Serving micro-batches: one encode-process-decode forward over the
  // union of the observations' graphs.  Row b of `out` is bit-identical
  // to action_mean(*obs[b]).  Returns false when the observations differ
  // in edge count (the rows of `out` would differ in length).
  bool action_means(nn::Tape& tape,
                    const std::vector<const rl::Observation*>& obs,
                    nn::Tape::Var& out) override;

  std::size_t num_parameters() const;

 private:
  // pi_ over the observations' disjoint-union graph: the one batched
  // policy forward behind action_means (serving) and evaluate_batch
  // (training).  Keeps the union and its inputs for vf_ to reuse.
  struct UnionPass {
    gnn::GraphSpec spec;
    gnn::GraphVars in;
    gnn::GraphVars pi;
  };
  UnionPass pi_over_union(nn::Tape& tape,
                          const std::vector<const rl::Observation*>& obs);

  GnnPolicyConfig config_;
  gnn::EncodeProcessDecode pi_;
  gnn::EncodeProcessDecode vf_;
  nn::Parameter log_std_scalar_;  // shared across edges
};

struct IterativeGnnPolicyConfig {
  int memory = 5;
  int latent = 16;
  int steps = 3;
  std::vector<int> mlp_hidden{32};
  double init_log_std = -0.7;
  double output_scale = 0.01;
};

class IterativeGnnPolicy final : public rl::Policy {
 public:
  IterativeGnnPolicy(const IterativeGnnPolicyConfig& config, util::Rng& rng);

  int action_dim(const rl::Observation& /*obs*/) const override { return 2; }
  nn::Tape::Var action_mean(nn::Tape& tape,
                            const rl::Observation& obs) override;
  nn::Tape::Var value(nn::Tape& tape, const rl::Observation& obs) override;
  nn::Tape::Var log_std_row(nn::Tape& tape, int action_dim) override;
  BatchEvaluation evaluate_batch(
      nn::Tape& tape, const std::vector<const rl::Observation*>& obs) override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override { return "GNN-Iterative"; }

  std::size_t num_parameters() const;

 private:
  IterativeGnnPolicyConfig config_;
  gnn::EncodeProcessDecode pi_;
  gnn::EncodeProcessDecode vf_;
  nn::Parameter log_std_;  // 1 x 2
};

}  // namespace gddr::core
