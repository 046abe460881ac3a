// Stochastic policy interface for PPO.
//
// A policy has two forward paths over the same parameters:
//
//  * evaluate_batch(), for training: the action mean, log-std and state
//    value of a whole minibatch on one tape (the PPO update's forward).
//    PPO treats the policy as a black box, which is what lets the MLP
//    baseline, the GNN policy and the iterative GNN policy train under the
//    identical algorithm (paper §VIII-C trains all of them with the same
//    PPO2);
//  * infer(), for everything that needs no gradient (serving, rollout
//    collection, evaluation): a const, tape-free forward of one
//    observation that computes only the heads asked for.  It calls the
//    same nn::kernels in the same order as the tape path, so each output
//    is bit-identical to the matching rows of evaluate_batch (a
//    one-observation batch is the reference), and it makes the same input
//    checks (std::invalid_argument on a malformed observation).  It reads
//    the parameters in place and writes only thread-local scratch, so
//    concurrent calls on one policy are safe while nobody writes the
//    parameters.
#pragma once

#include <string>
#include <vector>

#include "nn/tape.hpp"
#include "rl/env.hpp"

namespace gddr::rl {

// Output of a no-gradient forward.  Heads that were not asked for stay
// empty (mean, log_std) or zero (value).
struct PolicyForward {
  std::vector<double> mean;
  std::vector<double> log_std;
  double value = 0.0;
};

// Which heads Policy::infer computes: the action mean alone (serving,
// deterministic evaluation), the state value alone (bootstrap values), or
// mean, log-std and value (rollout collection).
enum class Heads { kMean, kValue, kAll };

class Policy {
 public:
  virtual ~Policy() = default;

  // Action dimensionality for this observation.
  virtual int action_dim(const Observation& obs) const = 0;

  // Stacked evaluation of a non-empty minibatch on one tape (the PPO
  // update's forward).  Action elements are laid out one per row,
  // sample-major: sample b's action_dim(*obs[b]) elements are contiguous
  // rows, in order, so observations of different topologies and action
  // sizes batch together.  Policies with a variable action dimension share
  // one scalar log-std across elements, so the parameter count stays
  // topology-independent.
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

  // Tape-free forward of `heads` for one observation; see the file
  // comment.  kAll checks the action size as evaluate_batch does.
  virtual PolicyForward infer(const Observation& obs, Heads heads) const = 0;
};

}  // namespace gddr::rl
