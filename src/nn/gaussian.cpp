#include "nn/gaussian.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gddr::nn {

namespace {
constexpr double kLogSqrt2Pi = 0.9189385332046727;  // 0.5 * log(2*pi)
}

std::vector<double> sample_diag_gaussian(std::span<const double> mean,
                                         std::span<const double> log_std,
                                         util::Rng& rng) {
  if (mean.size() != log_std.size()) {
    throw std::invalid_argument("sample_diag_gaussian: size mismatch");
  }
  std::vector<double> out(mean.size());
  for (size_t i = 0; i < mean.size(); ++i) {
    const double ls = std::clamp(log_std[i], kLogStdMin, kLogStdMax);
    out[i] = mean[i] + std::exp(ls) * rng.normal();
  }
  return out;
}

Tape::Var diag_gaussian_log_prob(Tape& tape, Tape::Var mean,
                                 Tape::Var log_std, const Tensor& actions) {
  if (!tape.value(mean).same_shape(actions) ||
      !tape.value(log_std).same_shape(actions)) {
    throw std::invalid_argument("diag_gaussian_log_prob: shape mismatch");
  }
  const Tape::Var a = tape.constant(actions);
  const Tape::Var ls = tape.clip(log_std, static_cast<float>(kLogStdMin),
                                 static_cast<float>(kLogStdMax));
  const Tape::Var sigma = tape.exp(ls);
  const Tape::Var z = tape.div(tape.sub(a, mean), sigma);
  // per-element: -0.5 z^2 - log_std - 0.5 log(2 pi)
  Tape::Var elem = tape.scale(tape.square(z), -0.5F);
  elem = tape.sub(elem, ls);
  elem = tape.add_scalar(elem, static_cast<float>(-kLogSqrt2Pi));
  return tape.sum_cols(elem);
}

Tape::Var diag_gaussian_entropy_elements(Tape& tape, Tape::Var log_std) {
  return tape.add_scalar(log_std, static_cast<float>(kLogSqrt2Pi + 0.5));
}

Tape::Var diag_gaussian_entropy(Tape& tape, Tape::Var log_std) {
  // Sum over action dims, mean over batch rows.
  return tape.mean_all(
      tape.sum_cols(diag_gaussian_entropy_elements(tape, log_std)));
}

}  // namespace gddr::nn
