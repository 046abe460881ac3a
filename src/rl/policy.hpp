// Stochastic policy interface for PPO.
//
// A policy supplies, for one observation, the on-tape action mean
// (1 x action_dim), the on-tape state-value estimate (1 x 1), and a
// log-standard-deviation row for exploration, and the same three for a
// whole minibatch on one tape (evaluate_batch).  PPO treats the policy as a
// black box, which is what lets the MLP baseline, the GNN policy and the
// iterative GNN policy train under the identical algorithm (paper §VIII-C
// trains all of them with the same PPO2).
#pragma once

#include <vector>

#include "nn/tape.hpp"
#include "rl/env.hpp"

namespace gddr::rl {

class Policy {
 public:
  virtual ~Policy() = default;

  // Action dimensionality for this observation.
  virtual int action_dim(const Observation& obs) const = 0;

  // Mean of the Gaussian action distribution, a 1 x action_dim Var.
  virtual nn::Tape::Var action_mean(nn::Tape& tape,
                                    const Observation& obs) = 0;

  // State-value estimate, a 1 x 1 Var.
  virtual nn::Tape::Var value(nn::Tape& tape, const Observation& obs) = 0;

  // Log-std row (1 x action_dim) for the exploration Gaussian.  Policies
  // with a variable action dimension share a single scalar log-std across
  // dimensions so the parameter count stays topology-independent.
  virtual nn::Tape::Var log_std_row(nn::Tape& tape, int action_dim) = 0;

  // Stacked evaluation of a non-empty minibatch on one tape (the PPO
  // update's forward).  Action elements are laid out one per row,
  // sample-major: sample b's action_dim(*obs[b]) elements are contiguous
  // rows, in order, so observations of different topologies and action
  // sizes batch together.  Each row is bit-identical to the matching entry of the
  // per-observation action_mean / log_std_row / value.
  struct BatchEvaluation {
    nn::Tape::Var means;    // R x 1, R = sum of the samples' action dims
    nn::Tape::Var log_std;  // R x 1, the log-std entry of each element
    nn::Tape::Var values;   // B x 1
  };
  virtual BatchEvaluation evaluate_batch(
      nn::Tape& tape, const std::vector<const Observation*>& obs) = 0;

  // Every learnable parameter (policy + value networks + log-std).
  virtual std::vector<nn::Parameter*> parameters() = 0;

  // Human-readable identifier used in bench output.
  virtual std::string name() const = 0;

  // Batched action means for observations with one action size (the
  // serving engine's micro-batches): on success fills `out` with a
  // B x action_dim Var whose row b is bit-identical to
  // action_mean(tape, *obs[b]).  The default has no batched path and
  // returns false; callers then fall back to per-observation forwards.
  virtual bool action_means(nn::Tape& /*tape*/,
                            const std::vector<const Observation*>& /*obs*/,
                            nn::Tape::Var& /*out*/) {
    return false;
  }
};

}  // namespace gddr::rl
