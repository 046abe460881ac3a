#include "rl/forward.hpp"

#include <algorithm>
#include <cmath>

#include "nn/gaussian.hpp"

namespace gddr::rl {

PolicyForward forward_policy(const Policy& policy, const Observation& obs) {
  return policy.infer(obs, Heads::kAll);
}

double action_log_prob(const std::vector<double>& action,
                       const std::vector<double>& mean,
                       const std::vector<double>& log_std) {
  constexpr double kLogSqrt2Pi = 0.9189385332046727;
  double lp = 0.0;
  for (size_t i = 0; i < action.size(); ++i) {
    // Same clamp as nn::diag_gaussian_log_prob, or the PPO importance
    // ratio exp(logpi - logpi_old) would mix clamped and unclamped
    // densities for the same action.
    const double ls = std::clamp(log_std[i], nn::kLogStdMin, nn::kLogStdMax);
    const double sigma = std::exp(ls);
    const double z = (action[i] - mean[i]) / sigma;
    lp += -0.5 * z * z - ls - kLogSqrt2Pi;
  }
  return lp;
}

}  // namespace gddr::rl
