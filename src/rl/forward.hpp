// One-off (no-gradient) policy forward passes, shared by the PPO trainer
// and the vectorised collector.  forward_policy is a thin wrapper over the
// policy's const, tape-free Policy::infer, so concurrent calls on one
// policy from different threads are safe.
#pragma once

#include <vector>

#include "rl/policy.hpp"

namespace gddr::rl {

// Evaluates action mean, log-std row and state value for one observation
// (Policy::infer with Heads::kAll); each is bit-identical to the rows of a
// one-observation Policy::evaluate_batch.
PolicyForward forward_policy(const Policy& policy, const Observation& obs);

// Log-density of `action` under the diagonal Gaussian (mean, exp(log_std)).
double action_log_prob(const std::vector<double>& action,
                       const std::vector<double>& mean,
                       const std::vector<double>& log_std);

}  // namespace gddr::rl
