#include "nn/mlp.hpp"

#include <cmath>
#include <stdexcept>

namespace gddr::nn {

Mlp::Mlp(int in, int out, const MlpConfig& config, util::Rng& rng)
    : in_(in), config_(config) {
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

Activation Mlp::activation(std::size_t layer) const {
  return layer + 1 == weights_.size() ? config_.output_activation
                                      : config_.hidden_activation;
}

Tape::Var Mlp::forward_from(Tape& tape, Tape::Var pre) {
  if (tape.value(pre).cols() != weights_.front().value.cols()) {
    throw std::invalid_argument("Mlp::forward_from: pre-activation has " +
                                tape.value(pre).shape_str() +
                                ", expected cols " +
                                std::to_string(weights_.front().value.cols()));
  }
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

void Mlp::infer_layers(std::size_t first, int rows, const float* h,
                       std::vector<float>& out) const {
  // Ping-pong buffers for the hidden layers; the last layer writes `out`.
  thread_local std::vector<float> ping;
  thread_local std::vector<float> pong;
  for (std::size_t l = first; l < weights_.size(); ++l) {
    const Tensor& w = weights_[l].value;
    std::vector<float>& y = l + 1 == weights_.size() ? out
                            : (l - first) % 2 == 0   ? ping
                                                     : pong;
    y.resize(static_cast<std::size_t>(rows) *
             static_cast<std::size_t>(w.cols()));
    kernels::matmul_nn(rows, w.rows(), w.cols(), h, w.data().data(),
                       y.data());
    kernels::bias_act(rows, w.cols(), y.data(), biases_[l].value.data().data(),
                      y.data(), activation(l));
    h = y.data();
  }
}

void Mlp::infer(int rows, const float* x, std::vector<float>& out) const {
  infer_layers(0, rows, x, out);
}

void Mlp::infer_from(int rows, float* pre, std::vector<float>& out) const {
  // Tape::relu / Tape::tanh, element for element.
  const std::size_t n = static_cast<std::size_t>(rows) *
                        static_cast<std::size_t>(weights_.front().value.cols());
  switch (activation(0)) {
    case Activation::kIdentity:
      break;
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i) {
        pre[i] = pre[i] > 0.0F ? pre[i] : 0.0F;
      }
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) pre[i] = std::tanh(pre[i]);
      break;
  }
  if (weights_.size() == 1) {
    out.assign(pre, pre + n);
    return;
  }
  infer_layers(1, rows, pre, out);
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
