#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "nn/gaussian.hpp"
#include "obs/metrics.hpp"
#include "rl/forward.hpp"
#include "rl/rl_invariants.hpp"
#include "util/contract.hpp"
#include "util/fault.hpp"
#include "util/stats.hpp"

namespace gddr::rl {

using nn::Tape;
using nn::Tensor;

PpoTrainer::PpoTrainer(Policy& policy, Env& env, const PpoConfig& config,
                       std::uint64_t seed)
    : PpoTrainer(policy, std::vector<Env*>{&env}, config, seed, nullptr) {}

PpoTrainer::PpoTrainer(Policy& policy, std::vector<Env*> envs,
                       const PpoConfig& config, std::uint64_t seed,
                       util::ThreadPool* pool)
    : policy_(policy),
      config_(config),
      rng_(seed),
      optimizer_(config.learning_rate),
      params_(policy.parameters()),
      pool_(pool),
      collector_(policy, std::move(envs), seed, pool),
      steps_per_env_((config.rollout_steps + collector_.num_envs() - 1) /
                     collector_.num_envs()),
      health_(params_, config.health, optimizer_) {}

std::vector<double> PpoTrainer::act_deterministic(const Observation& obs) {
  return forward_policy(policy_, obs).mean;
}

PpoIterationStats PpoTrainer::train_iteration() {
  obs::ScopedTimer iteration_timer("train/iteration");
  RolloutBuffer buffer;

  obs::ScopedTimer collect_timer("train/collect");
  const VecEnvCollector::CollectStats collected =
      collector_.collect(steps_per_env_, config_.reward_scale, buffer);
  const double collect_s = collect_timer.stop();
  if (collect_s > 0.0) {
    obs::gauge("train/collect/steps_per_s",
               static_cast<double>(collected.steps) / collect_s);
  }
  obs::count("train/env_steps", static_cast<std::uint64_t>(collected.steps));
  total_env_steps_ += collected.steps;

  // Bootstrap flags must be coherent *before* GAE runs — a zeroed
  // truncation bootstrap or an open segment tail is exactly the class of
  // bug PR 1 fixed, and it corrupts advantages silently.
  GDDR_VALIDATE(check_rollout_flags(buffer.samples(), "rl/collect/flags"));

  // Every env segment's tail carries its own bootstrap (truncated /
  // bootstrap_value, set by the collector), so no trailing last_value is
  // needed here.
  {
    obs::ScopedTimer gae_timer("train/gae");
    buffer.compute_gae(config_.gamma, config_.gae_lambda, /*last_value=*/0.0,
                       config_.normalize_advantages);
  }
  GDDR_VALIDATE(check_gae_outputs(buffer.samples(), "rl/gae/finite"));

  obs::ScopedTimer update_timer("train/update");
  PpoIterationStats stats = update(buffer);
  update_timer.stop();
  obs::count("train/iterations");
  stats.steps = collected.steps;
  stats.episodes = collected.episodes;
  stats.mean_episode_reward =
      collected.episodes > 0
          ? collected.episode_reward_sum / collected.episodes
          : 0.0;
  ++iterations_;
  return stats;
}

MinibatchLoss ppo_minibatch_loss(Tape& tape, Policy& policy,
                                 const std::vector<const StepSample*>& batch,
                                 const PpoConfig& config) {
  const int b_size = static_cast<int>(batch.size());
  if (b_size == 0) {
    throw std::invalid_argument("ppo_minibatch_loss: empty minibatch");
  }
  std::vector<const Observation*> obs;
  obs.reserve(batch.size());
  std::vector<int> sample_of_element;  // sample id per action-element row
  for (int b = 0; b < b_size; ++b) {
    const StepSample& s = *batch[static_cast<std::size_t>(b)];
    obs.push_back(&s.obs);
    sample_of_element.insert(sample_of_element.end(), s.action.size(), b);
  }
  Tensor actions(static_cast<int>(sample_of_element.size()), 1);
  {
    int row = 0;
    for (const StepSample* s : batch) {
      for (double a : s->action) actions.at(row++, 0) = static_cast<float>(a);
    }
  }

  const Policy::BatchEvaluation eval = policy.evaluate_batch(tape, obs);
  if (tape.value(eval.means).rows() != actions.rows()) {
    throw std::invalid_argument(
        "ppo_minibatch_loss: policy returned " +
        tape.value(eval.means).shape_str() + " action elements for " +
        std::to_string(actions.rows()) + " sampled ones");
  }
  const auto per_sample = std::make_shared<const nn::kernels::SegmentPlan>(
      nn::kernels::build_segment_plan(std::move(sample_of_element), b_size));

  // log pi(a|s) per sample: per-element densities summed over each
  // sample's contiguous rows.
  const Tape::Var log_prob = tape.segment_sum(
      nn::diag_gaussian_log_prob(tape, eval.means, eval.log_std, actions),
      per_sample);

  // One B x 1 constant per rollout field, built in the tape's arena (the
  // update tape is long-lived, so these must not allocate per minibatch).
  const auto column = [&](auto field) {
    return tape.constant(b_size, 1, [&](Tensor& t) {
      for (int b = 0; b < b_size; ++b) {
        t.at(b, 0) = field(*batch[static_cast<std::size_t>(b)]);
      }
    });
  };

  // ratio = exp(logpi - logpi_old); clipped surrogate.
  const auto clip = static_cast<float>(config.clip_epsilon);
  const Tape::Var ratio = tape.exp(tape.sub(
      log_prob, column([](const StepSample& s) {
        return static_cast<float>(s.log_prob);
      })));
  const Tape::Var adv = column([](const StepSample& s) {
    return static_cast<float>(s.advantage);
  });
  const Tape::Var surr1 = tape.mul(ratio, adv);
  const Tape::Var surr2 =
      tape.mul(tape.clip(ratio, 1.0F - clip, 1.0F + clip), adv);
  const Tape::Var policy_loss = tape.neg(tape.minimum(surr1, surr2));

  // Clipped value loss (PPO2 style).
  const Tape::Var v = eval.values;
  const Tape::Var v_err = tape.square(tape.sub(
      v, column([](const StepSample& s) {
        return static_cast<float>(s.return_);
      })));
  const Tape::Var v_clipped = tape.add(
      tape.clip(tape.sub(v, column([](const StepSample& s) {
                  return static_cast<float>(s.value);
                })),
                -clip, clip),
      column([](const StepSample& s) {
        return static_cast<float>(s.value) - static_cast<float>(s.return_);
      }));
  const Tape::Var value_loss =
      tape.scale(tape.maximum(v_err, tape.square(v_clipped)), 0.5F);

  const Tape::Var entropy = tape.segment_sum(
      nn::diag_gaussian_entropy_elements(tape, eval.log_std), per_sample);

  Tape::Var loss = tape.add(
      policy_loss,
      tape.scale(value_loss, static_cast<float>(config.value_coef)));
  loss = tape.sub(
      loss, tape.scale(entropy, static_cast<float>(config.entropy_coef)));

  MinibatchLoss out;
  out.total =
      tape.scale(tape.sum_all(loss), 1.0F / static_cast<float>(b_size));

  // Diagnostics, accumulated per sample in double.
  const Tensor& lp = tape.value(log_prob);
  const Tensor& pl = tape.value(policy_loss);
  const Tensor& vl = tape.value(value_loss);
  const Tensor& ent = tape.value(entropy);
  for (int b = 0; b < b_size; ++b) {
    const StepSample& s = *batch[static_cast<std::size_t>(b)];
    const double lp_new = lp.at(b, 0);
    out.approx_kl += s.log_prob - lp_new;
    if (std::abs(std::exp(lp_new - s.log_prob) - 1.0) > config.clip_epsilon) {
      out.clip_fraction += 1.0;
    }
    out.policy_loss += pl.at(b, 0);
    out.value_loss += vl.at(b, 0);
    out.entropy += ent.at(b, 0);
  }
  const auto n = static_cast<double>(b_size);
  out.policy_loss /= n;
  out.value_loss /= n;
  out.entropy /= n;
  out.approx_kl /= n;
  out.clip_fraction /= n;
  return out;
}

PpoIterationStats PpoTrainer::update(RolloutBuffer& buffer) {
  PpoIterationStats stats;
  auto& samples = buffer.samples();
  std::vector<size_t> order(samples.size());
  std::iota(order.begin(), order.end(), 0);

  double policy_loss_acc = 0.0;
  double value_loss_acc = 0.0;
  double entropy_acc = 0.0;
  double kl_acc = 0.0;
  double clip_acc = 0.0;
  long batches = 0;
  util::RunningStat minibatch_loss;  // per-minibatch mean total loss
  std::vector<const StepSample*> batch;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.shuffle(order);
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(config_.minibatch_size)) {
      const size_t end = std::min(
          order.size(), start + static_cast<size_t>(config_.minibatch_size));
      batch.clear();
      for (size_t k = start; k < end; ++k) batch.push_back(&samples[order[k]]);

      // Member tape, reset per minibatch: the arena recycles every
      // value/grad buffer, so steady-state updates allocate nothing.
      // Only this main-thread tape gets the pool — collector workers run
      // their own tapes, and handing them the same pool would deadlock.
      Tape& tape = update_tape_;
      tape.reset();
      tape.set_thread_pool(pool_);
      const MinibatchLoss loss =
          ppo_minibatch_loss(tape, policy_, batch, config_);
      const double loss_value = tape.value(loss.total).at(0, 0);
      nn::zero_grads(params_);
      {
        obs::ScopedTimer backward_timer("train/update/backward");
        tape.backward(loss.total);
      }
      nn::clip_grad_norm(params_, config_.max_grad_norm);

      if (health_.enabled()) {
        // Deterministic fault injection: poison one gradient entry so
        // tests can prove the recovery path below actually fires.
        if (util::inject(util::FaultSite::kNanGradient) && !params_.empty()) {
          params_.front()->grad.data()[0] =
              std::numeric_limits<float>::quiet_NaN();
        }
        if (!std::isfinite(loss_value) || !health_.gradients_finite()) {
          // NaN/Inf before the step: skip it, restore last-good weights
          // and optimiser moments, shrink the lr, keep training.
          health_.note_nonfinite();
          ++stats.nonfinite_events;
          health_.rollback(optimizer_);
          ++stats.health_rollbacks;
          continue;
        }
        optimizer_.step(params_);
        if (!health_.parameters_finite()) {
          // The step itself overflowed (e.g. astronomically scaled
          // moments): undo it the same way.
          health_.note_nonfinite();
          ++stats.nonfinite_events;
          health_.rollback(optimizer_);
          ++stats.health_rollbacks;
          continue;
        }
        health_.capture(optimizer_);
      } else {
        optimizer_.step(params_);
      }

      // Only minibatches that stepped feed the statistics: a rolled-back
      // one's NaN would poison every mean below.
      minibatch_loss.add(loss_value);
      policy_loss_acc += loss.policy_loss;
      value_loss_acc += loss.value_loss;
      entropy_acc += loss.entropy;
      kl_acc += loss.approx_kl;
      clip_acc += loss.clip_fraction;
      ++batches;
    }
  }

  if (batches > 0) {
    stats.policy_loss = policy_loss_acc / static_cast<double>(batches);
    stats.value_loss = value_loss_acc / static_cast<double>(batches);
    stats.entropy = entropy_acc / static_cast<double>(batches);
    stats.approx_kl = kl_acc / static_cast<double>(batches);
    stats.clip_fraction = clip_acc / static_cast<double>(batches);
  }
  stats.learning_rate = optimizer_.learning_rate();
  // With the watchdog active every non-finite batch was rolled back above,
  // so the reported means must be finite; without it they still are unless
  // the optimisation itself diverged, which this surfaces immediately.
  GDDR_VALIDATE(check_finite_losses(stats, "rl/update/losses"));
  if (obs::enabled()) {
    obs::count("train/minibatches", static_cast<std::uint64_t>(batches));
    obs::gauge("train/loss/minibatch_mean", minibatch_loss.mean());
    obs::gauge("train/loss/minibatch_stddev", minibatch_loss.stddev());
    obs::gauge("train/loss/policy", stats.policy_loss);
    obs::gauge("train/loss/value", stats.value_loss);
    obs::gauge("train/entropy", stats.entropy);
    obs::gauge("train/approx_kl", stats.approx_kl);
    obs::gauge("train/clip_fraction", stats.clip_fraction);
    obs::gauge("train/learning_rate", stats.learning_rate);
    if (stats.nonfinite_events > 0) {
      obs::count("train/health/nonfinite",
                 static_cast<std::uint64_t>(stats.nonfinite_events));
      obs::count("train/health/rollbacks",
                 static_cast<std::uint64_t>(stats.health_rollbacks));
    }
  }
  return stats;
}

void PpoTrainer::train(long total_steps, const Callback& callback) {
  const long target = total_env_steps_ + total_steps;
  while (total_env_steps_ < target) {
    const PpoIterationStats stats = train_iteration();
    if (callback) callback(stats);
  }
}

}  // namespace gddr::rl
