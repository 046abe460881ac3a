// Multilayer perceptron module (paper Fig. 4; also the phi update
// functions inside every graph-network block, §VII-A).
#pragma once

#include <vector>

#include "nn/kernels.hpp"
#include "nn/tape.hpp"
#include "util/rng.hpp"

namespace gddr::nn {
// Activation is defined in nn/kernels.hpp (the fused linear kernel
// consumes it); re-exported here for existing includers.

struct MlpConfig {
  std::vector<int> hidden{64, 64};
  Activation hidden_activation = Activation::kTanh;
  Activation output_activation = Activation::kIdentity;
  // Final layer weights are multiplied by this after init; PPO policy
  // heads conventionally use a small value (e.g. 0.01) so initial actions
  // stay near zero.
  double output_scale = 1.0;
};

class Mlp {
 public:
  // Xavier-uniform initialised MLP mapping R^{in} -> R^{out} per row.
  Mlp(int in, int out, const MlpConfig& config, util::Rng& rng);

  // Applies the network to every row of x (N x in -> N x out).
  Tape::Var forward(Tape& tape, Tape::Var x);

  // Split form of forward() for callers that assemble layer 0's
  // pre-activation x * W0 + b0 themselves (gnn::GnBlock projects row
  // blocks of W0 per node and per graph, then gathers them onto edges).
  // first_layer() records layer 0's weight (in x width) and bias leaves;
  // forward_from() applies layer 0's activation to `pre` and runs the
  // remaining layers, so forward_from(x * W0 + b0) == forward(x).
  struct Layer {
    Tape::Var weight;
    Tape::Var bias;
  };
  Layer first_layer(Tape& tape);
  Tape::Var forward_from(Tape& tape, Tape::Var pre);

  // Tape-free forward of `rows` input rows (x is rows x in, row-major,
  // and must not alias `out`): per layer kernels::matmul_nn then
  // kernels::bias_act, as Tape::linear computes it, so `out` (resized to
  // rows x out) is bit-identical to forward().  Weights are read in
  // place; intermediate layers use thread-local scratch.
  void infer(int rows, const float* x, std::vector<float>& out) const;
  // No-grad forward_from(): `pre` (rows x layer 0's width) is layer 0's
  // pre-activation, overwritten in place by its activation.
  void infer_from(int rows, float* pre, std::vector<float>& out) const;
  // Layer 0's weight (in x width) and bias, read in place by callers
  // that assemble the pre-activation themselves (the no-grad
  // first_layer()).
  const Tensor& first_weight() const { return weights_.front().value; }
  const Tensor& first_bias() const { return biases_.front().value; }

  std::vector<Parameter*> parameters();
  std::size_t num_parameters() const;

 private:
  Activation activation(std::size_t layer) const;
  // Layers [first, end) of the tape-free forward from h.
  void infer_layers(std::size_t first, int rows, const float* h,
                    std::vector<float>& out) const;

  int in_;
  MlpConfig config_;
  std::vector<Parameter> weights_;
  std::vector<Parameter> biases_;
};

}  // namespace gddr::nn
