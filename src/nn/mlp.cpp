#include "nn/mlp.hpp"

#include <cmath>
#include <stdexcept>

namespace gddr::nn {

Mlp::Mlp(int in, int out, const MlpConfig& config, util::Rng& rng)
    : in_(in), out_(out), config_(config) {
  if (in <= 0 || out <= 0) throw std::invalid_argument("Mlp: bad sizes");
  for (int h : config.hidden) {
    if (h <= 0) throw std::invalid_argument("Mlp: bad hidden size");
  }
  std::vector<int> sizes;
  sizes.push_back(in);
  for (int h : config.hidden) sizes.push_back(h);
  sizes.push_back(out);
  for (size_t l = 0; l + 1 < sizes.size(); ++l) {
    const int fan_in = sizes[l];
    const int fan_out = sizes[l + 1];
    Tensor w(fan_in, fan_out);
    const double bound = std::sqrt(6.0 / (fan_in + fan_out));
    w.fill_uniform(rng, bound);
    if (l + 2 == sizes.size() && config_.output_scale != 1.0) {
      w.scale_in_place(static_cast<float>(config_.output_scale));
    }
    weights_.emplace_back(std::move(w));
    biases_.emplace_back(Tensor(1, fan_out));
  }
}

Tape::Var Mlp::forward(Tape& tape, Tape::Var x) {
  if (tape.value(x).cols() != in_) {
    throw std::invalid_argument("Mlp::forward: input has " +
                                tape.value(x).shape_str() + ", expected cols " +
                                std::to_string(in_));
  }
  Tape::Var h = x;
  for (size_t l = 0; l < weights_.size(); ++l) {
    const bool last = (l + 1 == weights_.size());
    // One fused node per layer: matmul + bias + activation forward, and a
    // transpose-free backward that touches each buffer once.
    h = tape.linear(h, tape.leaf(weights_[l]), tape.leaf(biases_[l]),
                    last ? config_.output_activation
                         : config_.hidden_activation);
  }
  return h;
}

Mlp::Layer Mlp::first_layer(Tape& tape) {
  return Layer{tape.leaf(weights_.front()), tape.leaf(biases_.front())};
}

Tape::Var Mlp::forward_from(Tape& tape, Tape::Var pre) {
  if (tape.value(pre).cols() != weights_.front().value.cols()) {
    throw std::invalid_argument("Mlp::forward_from: pre-activation has " +
                                tape.value(pre).shape_str() +
                                ", expected cols " +
                                std::to_string(weights_.front().value.cols()));
  }
  const auto activation = [&](size_t l) {
    return l + 1 == weights_.size() ? config_.output_activation
                                    : config_.hidden_activation;
  };
  Tape::Var h = pre;
  switch (activation(0)) {
    case Activation::kIdentity:
      break;
    case Activation::kRelu:
      h = tape.relu(h);
      break;
    case Activation::kTanh:
      h = tape.tanh(h);
      break;
  }
  for (size_t l = 1; l < weights_.size(); ++l) {
    h = tape.linear(h, tape.leaf(weights_[l]), tape.leaf(biases_[l]),
                    activation(l));
  }
  return h;
}

std::vector<Parameter*> Mlp::parameters() {
  std::vector<Parameter*> params;
  params.reserve(weights_.size() * 2);
  for (size_t l = 0; l < weights_.size(); ++l) {
    params.push_back(&weights_[l]);
    params.push_back(&biases_[l]);
  }
  return params;
}

std::size_t Mlp::num_parameters() const {
  std::size_t total = 0;
  for (const auto& w : weights_) total += w.size();
  for (const auto& b : biases_) total += b.size();
  return total;
}

}  // namespace gddr::nn
