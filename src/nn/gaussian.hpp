// Diagonal-Gaussian action distribution for continuous-control PPO.
//
// The policy networks output per-dimension means; a state-independent
// learnable log-standard-deviation parameter provides exploration noise
// (the stable-baselines PPO2 convention the paper trained with).
#pragma once

#include <vector>

#include "nn/tape.hpp"
#include "util/rng.hpp"

namespace gddr::nn {

// log_std is clamped to [kLogStdMin, kLogStdMax] everywhere a density or
// a sample is computed: below the floor sigma = exp(log_std) underflows
// towards 0 and z = (a - mean)/sigma turns log-probs (and their
// gradients) into inf/NaN that the training watchdog only catches after
// the fact.  exp(-10) ~ 4.5e-5 keeps the smallest sigma harmless at
// float precision, exp(2) ~ 7.4 bounds exploration noise.  The sampler,
// the on-tape log-prob and rl::action_log_prob share the same clamp so
// PPO's importance ratios stay consistent; the entropy bonus is left
// unclamped so its gradient can still pull an out-of-range log_std back.
constexpr double kLogStdMin = -10.0;
constexpr double kLogStdMax = 2.0;

// Samples a ~ N(mean, diag(exp(log_std))^2).  mean and log_std must have
// the same length; log_std is clamped to [kLogStdMin, kLogStdMax].
std::vector<double> sample_diag_gaussian(std::span<const double> mean,
                                         std::span<const double> log_std,
                                         util::Rng& rng);

// Log-density of `actions` (N x A constant) under N(mean, exp(log_std)),
// where `mean` is an on-tape N x A Var and `log_std` an on-tape N x A Var
// (broadcast the 1 x A parameter with Tape::broadcast_rows).  Returns an
// N x 1 Var of per-row log-probabilities (summed over action dims).
// log_std enters through clip(log_std, kLogStdMin, kLogStdMax), so the
// result is finite for any finite inputs (zero gradient to log_std at the
// clamped extremes, matching the clamped density).
Tape::Var diag_gaussian_log_prob(Tape& tape, Tape::Var mean,
                                 Tape::Var log_std, const Tensor& actions);

// Per-element entropy log sigma_j + 0.5 log(2 pi e), shaped like log_std
// (the PPO update segment-sums it per sample).
Tape::Var diag_gaussian_entropy_elements(Tape& tape, Tape::Var log_std);

// Mean (over batch rows) entropy of the distribution, a 1x1 Var:
// H = sum_j (log sigma_j + 0.5 log(2 pi e)).
Tape::Var diag_gaussian_entropy(Tape& tape, Tape::Var log_std);

}  // namespace gddr::nn
