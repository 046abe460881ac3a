// Fault-tolerance tests: deterministic fault injection, crash-safe
// writes, the simplex→FPTAS fallback chain, the numerical-health
// watchdog, and bit-identical checkpoint/resume (the ISSUE acceptance
// criteria for the fault-tolerant training runtime).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/iterative_env.hpp"
#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "mcf/cache.hpp"
#include "mcf/optimal.hpp"
#include "rl/ppo.hpp"
#include "topo/zoo.hpp"
#include "traffic/generators.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace gddr {
namespace {

using util::FaultInjector;
using util::FaultSite;

// Every test disarms on exit so an assertion failure cannot leak an armed
// schedule into the next test.
struct FaultGuard {
  FaultGuard() { FaultInjector::instance().disarm(); }
  ~FaultGuard() { FaultInjector::instance().disarm(); }
};

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

// ---------------- FaultInjector ----------------

TEST(FaultInjector, NthFiresExactlyOnce) {
  FaultGuard guard;
  auto& injector = FaultInjector::instance();
  injector.arm("lp_solve@3");
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(util::inject(FaultSite::kLpSolve));
  const std::vector<bool> expected{false, false, true,  false,
                                   false, false, false, false};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(injector.hits(FaultSite::kLpSolve), 8);
  EXPECT_EQ(injector.fired(FaultSite::kLpSolve), 1);
}

TEST(FaultInjector, FromNthFiresOnward) {
  FaultGuard guard;
  FaultInjector::instance().arm("nan_grad@2+");
  std::vector<bool> fired;
  for (int i = 0; i < 5; ++i) {
    fired.push_back(util::inject(FaultSite::kNanGradient));
  }
  const std::vector<bool> expected{false, true, true, true, true};
  EXPECT_EQ(fired, expected);
}

TEST(FaultInjector, ProbabilityScheduleIsSeededAndReproducible) {
  FaultGuard guard;
  auto& injector = FaultInjector::instance();
  auto sample = [&] {
    std::vector<bool> fired;
    for (int i = 0; i < 32; ++i) {
      fired.push_back(util::inject(FaultSite::kCheckpointWrite));
    }
    return fired;
  };
  injector.arm("ckpt_write~0.5/42");
  const auto first = sample();
  injector.arm("ckpt_write~0.5/42");  // re-arm resets the stream
  EXPECT_EQ(sample(), first);
  // Not degenerate: some hits fire, some don't.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 32);
}

TEST(FaultInjector, DisarmedPathIsInert) {
  FaultGuard guard;
  auto& injector = FaultInjector::instance();
  EXPECT_FALSE(injector.enabled());
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(util::inject(FaultSite::kLpSolve));
  EXPECT_EQ(injector.hits(FaultSite::kLpSolve), 0);
}

TEST(FaultInjector, MalformedSpecRejectedAtomically) {
  FaultGuard guard;
  auto& injector = FaultInjector::instance();
  injector.arm("lp_solve@1");
  // Malformed specs are an I/O-layer failure (the spec arrives from the
  // GDDR_FAULTS environment), so they surface as util::IoError and the
  // CLI maps them to the I/O exit code.
  EXPECT_THROW(injector.arm("lp_solve@notanumber"), util::IoError);
  EXPECT_THROW(injector.arm("unknown_site@1"), util::IoError);
  // The previous valid schedule survives a failed arm.
  EXPECT_TRUE(injector.enabled());
  EXPECT_TRUE(util::inject(FaultSite::kLpSolve));
}

// Runs arm(spec), requires an IoError and returns its message.
std::string arm_error(const std::string& spec) {
  try {
    FaultInjector::instance().arm(spec);
  } catch (const util::IoError& e) {
    return e.what();
  }
  ADD_FAILURE() << "arm(\"" << spec << "\") did not throw util::IoError";
  return {};
}

TEST(FaultInjector, MalformedSpecErrorsNameTheOffendingToken) {
  FaultGuard guard;

  // Unknown site name.
  std::string msg = arm_error("bogus_site@3");
  EXPECT_NE(msg.find("unknown fault site"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'bogus_site'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bogus_site@3"), std::string::npos) << msg;

  // The unknown-site error enumerates the complete valid-site set, in
  // enum order, so the grammar is discoverable from the message alone.
  // This list is pinned on purpose: adding a FaultSite must extend it.
  EXPECT_NE(
      msg.find("valid sites: lp_solve, ckpt_write, nan_grad, train_abort, "
               "policy_nan, policy_slow, topo_change, request_garbage, "
               "registry_publish, shadow_diverge, candidate_nan"),
      std::string::npos)
      << msg;

  // Non-numeric count after '@'.
  msg = arm_error("lp_solve@abc");
  EXPECT_NE(msg.find("bad count/seed token 'abc'"), std::string::npos) << msg;

  // Missing '@n' / '~p/seed' entirely.
  msg = arm_error("lp_solve");
  EXPECT_NE(msg.find("entry needs '@n', '@n+' or '~p/seed'"),
            std::string::npos)
      << msg;

  // Probabilistic entry without an explicit seed.
  msg = arm_error("lp_solve~0.5");
  EXPECT_NE(msg.find("needs an explicit seed"), std::string::npos) << msg;

  // Probability with trailing garbage (stod would accept the prefix).
  msg = arm_error("lp_solve~0.5abc/7");
  EXPECT_NE(msg.find("bad probability token '0.5abc'"), std::string::npos)
      << msg;

  // Probability outside [0, 1].
  msg = arm_error("lp_solve~1.5/7");
  EXPECT_NE(msg.find("bad probability token '1.5'"), std::string::npos) << msg;

  // Empty clause from a stray comma.
  msg = arm_error("lp_solve@1,,ckpt_write@2");
  EXPECT_NE(msg.find("empty clause"), std::string::npos) << msg;

  // A failed arm never leaves a partial schedule armed.
  EXPECT_FALSE(FaultInjector::instance().enabled());
}

TEST(FaultInjector, RepeatedSiteRejectedAtomically) {
  FaultGuard guard;
  auto& injector = FaultInjector::instance();
  injector.arm("nan_grad@2");
  // Accepting it would let the second clause silently replace the first.
  const std::string msg = arm_error("lp_solve@1,lp_solve@5");
  EXPECT_NE(msg.find("'lp_solve'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("armed twice"), std::string::npos) << msg;
  EXPECT_THROW(injector.arm("lp_solve@1,nan_grad@3,lp_solve~0.5/7"),
               util::IoError);
  // The injector still holds the schedule armed before the failed calls.
  EXPECT_FALSE(util::inject(FaultSite::kLpSolve));
  EXPECT_FALSE(util::inject(FaultSite::kNanGradient));
  EXPECT_TRUE(util::inject(FaultSite::kNanGradient));
}

TEST(FaultInjector, TrailingCommaIsAnEmptyClause) {
  FaultGuard guard;
  const std::string msg = arm_error("lp_solve@1,");
  EXPECT_NE(msg.find("empty clause"), std::string::npos) << msg;
  EXPECT_FALSE(FaultInjector::instance().enabled());
}

TEST(FaultInjector, NanProbabilityRejected) {
  FaultGuard guard;
  const std::string msg = arm_error("policy_nan~nan/1");
  EXPECT_NE(msg.find("bad probability token 'nan'"), std::string::npos) << msg;
  EXPECT_FALSE(FaultInjector::instance().enabled());
}

TEST(FaultInjector, WhitespaceInsideATokenRejected) {
  FaultGuard guard;
  const std::string msg = arm_error("lp_solve@ 1");
  EXPECT_NE(msg.find("bad count/seed token ' 1'"), std::string::npos) << msg;
  for (const char* spec : {"lp_solve@1 ", "lp_solve@+1", "lp_solve~ 0.5/1",
                           "lp_solve~0.5/ 1", "lp_solve~0.5/+1"}) {
    EXPECT_THROW(FaultInjector::instance().arm(spec), util::IoError) << spec;
  }
  EXPECT_FALSE(FaultInjector::instance().enabled());
}

// Deterministic mutation `seed` of a valid spec: byte flips, truncations
// and inserted separators.
std::string mutate_spec(const std::string& original, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_index(n));
  };
  std::string text = original;
  switch (seed % 3) {
    case 0: {  // byte flips anywhere
      const auto flips = rng.uniform_int(1, 3);
      for (std::int64_t i = 0; i < flips; ++i) {
        text[pick(text.size())] ^= static_cast<char>(rng.uniform_int(1, 255));
      }
      break;
    }
    case 1:  // truncation
      text.resize(pick(text.size() + 1));
      break;
    default: {  // inserted separators and signs
      static const std::string separators = ",@~/+- .";
      const auto n = rng.uniform_int(1, 3);
      for (std::int64_t i = 0; i < n; ++i) {
        text.insert(pick(text.size() + 1), 1,
                    separators[pick(separators.size())]);
      }
      break;
    }
  }
  return text;
}

// Every mutated spec either arms or throws util::IoError; nothing else
// escapes, and an armed spec fires deterministically.
TEST(FaultInjector, MutatedSpecsArmOrThrowIoError) {
  FaultGuard guard;
  auto& injector = FaultInjector::instance();
  int armed = 0;
  int rejected = 0;
  for (const char* spec :
       {"lp_solve@3", "nan_grad@2+", "ckpt_write~0.25/42",
        "policy_nan@1,policy_slow@2,topo_change@1,request_garbage@1+",
        "lp_solve@1+,candidate_nan~1/7"}) {
    for (std::uint64_t seed = 0; seed < 600; ++seed) {
      const std::string mutated = mutate_spec(spec, seed);
      try {
        std::vector<bool> fired[2];
        for (std::vector<bool>& run : fired) {
          injector.arm(mutated);
          for (int i = 0; i < 4; ++i) {
            run.push_back(util::inject(FaultSite::kLpSolve));
          }
        }
        EXPECT_EQ(fired[0], fired[1]) << mutated;
        ++armed;
      } catch (const util::IoError&) {
        ++rejected;
      } catch (const std::exception& ex) {
        ADD_FAILURE() << "spec '" << mutated << "': non-IoError " << ex.what();
      }
    }
  }
  // Both outcomes occur: a flipped site letter or a torn token is
  // rejected, while some truncations ("lp_solve@3" -> "") and
  // digit-to-digit flips still arm.  The strict parser rejects 2828 of
  // the 3000 (the one before it, which let a trailing comma, a NaN
  // probability or a space inside a number through, rejected 2804).
  EXPECT_GT(armed, 100);
  EXPECT_GT(rejected, 2810);
}

TEST(FaultInjector, ServingSitesParseAndFire) {
  FaultGuard guard;
  auto& injector = FaultInjector::instance();
  injector.arm("policy_nan@1,policy_slow@2,topo_change@1,request_garbage@1+");
  EXPECT_TRUE(util::inject(FaultSite::kPolicyNan));
  EXPECT_FALSE(util::inject(FaultSite::kPolicyNan));
  EXPECT_FALSE(util::inject(FaultSite::kPolicySlow));
  EXPECT_TRUE(util::inject(FaultSite::kPolicySlow));
  EXPECT_TRUE(util::inject(FaultSite::kTopoChange));
  // '@1+' fires from the first occurrence onwards.
  EXPECT_TRUE(util::inject(FaultSite::kRequestGarbage));
  EXPECT_TRUE(util::inject(FaultSite::kRequestGarbage));
}

// ---------------- crash-safe writes ----------------

TEST(AtomicWrite, InjectedFaultKeepsPreviousFileIntact) {
  FaultGuard guard;
  const std::string path = temp_path("gddr_atomic.bin");
  util::write_file_atomic(path, "previous checkpoint");
  FaultInjector::instance().arm("ckpt_write@1");
  EXPECT_THROW(util::write_file_atomic(path, "half-written garbage"),
               util::IoError);
  EXPECT_EQ(read_file(path), "previous checkpoint");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Next write (schedule exhausted) succeeds and replaces the content.
  util::write_file_atomic(path, "new checkpoint");
  EXPECT_EQ(read_file(path), "new checkpoint");
  std::remove(path.c_str());
}

// ---------------- solver fallback chain ----------------

traffic::DemandMatrix small_demand(const graph::DiGraph& g,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  traffic::BimodalParams params;
  params.pair_density = 0.4;
  return traffic::bimodal_matrix(g.num_nodes(), params, rng);
}

TEST(SolverFallback, ApproximateResultWithinFptasBound) {
  FaultGuard guard;
  const auto g = topo::by_name("SmallRing");
  const auto dm = small_demand(g, 7);

  const mcf::OptimalResult exact = mcf::solve_optimal(g, dm);
  ASSERT_EQ(exact.provenance, mcf::SolveProvenance::kExact);
  ASSERT_GT(exact.u_max, 0.0);

  FaultInjector::instance().arm("lp_solve@1");
  mcf::SolveOptions options;  // default epsilon 0.05
  const mcf::OptimalResult approx = mcf::solve_optimal(g, dm, options);
  EXPECT_EQ(approx.provenance, mcf::SolveProvenance::kApproximate);
  EXPECT_TRUE(approx.feasible);
  for (const auto& row : approx.flow_by_dest) EXPECT_TRUE(row.empty());

  // FPTAS guarantee: u* <= u_approx <= u* / (1 - 3*eps); small slack for
  // floating-point noise.
  const double ratio = approx.u_max / exact.u_max;
  EXPECT_GE(ratio, 0.999);
  EXPECT_LE(ratio, 1.0 / (1.0 - 3.0 * options.fptas_epsilon) + 0.05);
}

TEST(SolverFallback, ExactOnlyModeReportsFailure) {
  FaultGuard guard;
  const auto g = topo::by_name("SmallRing");
  const auto dm = small_demand(g, 7);
  FaultInjector::instance().arm("lp_solve@1");
  mcf::SolveOptions options;
  options.allow_fptas_fallback = false;
  const mcf::OptimalResult result = mcf::solve_optimal(g, dm, options);
  EXPECT_EQ(result.provenance, mcf::SolveProvenance::kFailed);
  EXPECT_FALSE(result.feasible);
}

TEST(SolverFallback, CacheCompletesUnderInjectionAndCountsProvenance) {
  FaultGuard guard;
  const auto g = topo::by_name("SmallRing");
  mcf::OptimalCache cache;

  FaultInjector::instance().arm("lp_solve@1");
  const double u_approx = cache.u_max(g, small_demand(g, 7));
  EXPECT_GT(u_approx, 0.0);
  EXPECT_EQ(cache.approx_solves(), 1U);
  EXPECT_EQ(cache.exact_solves(), 0U);

  FaultInjector::instance().disarm();
  const double u_exact = cache.u_max(g, small_demand(g, 8));
  EXPECT_GT(u_exact, 0.0);
  EXPECT_EQ(cache.exact_solves(), 1U);
  // The approximate value was cached; re-querying it is a hit, not a solve.
  cache.u_max(g, small_demand(g, 7));
  EXPECT_EQ(cache.approx_solves(), 1U);
}

// ---------------- watchdog ----------------

// Minimal deterministic env with full checkpoint support (the Env
// contract needed for trainer round-trip tests).
class StatefulTargetEnv final : public rl::Env {
 public:
  explicit StatefulTargetEnv(double target, int episode_len = 8)
      : target_(target), episode_len_(episode_len) {}

  rl::Observation reset() override {
    t_ = 0;
    return make_obs();
  }

  StepResult step(std::span<const double> action) override {
    StepResult r;
    const double err = action[0] - target_;
    r.reward = -err * err;
    r.done = ++t_ >= episode_len_;
    r.obs = make_obs();  // also the bootstrap observation at truncation
    r.truncated = r.done;
    return r;
  }

  int action_dim() const override { return 1; }

  std::vector<std::uint8_t> save_state() const override {
    return {static_cast<std::uint8_t>(t_)};
  }
  void restore_state(std::span<const std::uint8_t> blob) override {
    if (blob.size() != 1) {
      throw util::IoError("StatefulTargetEnv: bad state blob");
    }
    t_ = blob[0];
  }

 private:
  rl::Observation make_obs() const {
    rl::Observation obs;
    obs.flat = {static_cast<double>(t_) / episode_len_};
    obs.num_nodes = 1;
    obs.nodes = nn::Tensor(1, 1, 1.0F);
    obs.edges = nn::Tensor(0, 1);
    obs.globals = nn::Tensor(1, 1);
    return obs;
  }
  double target_;
  int episode_len_;
  int t_ = 0;
};

rl::PpoConfig tiny_ppo_config() {
  rl::PpoConfig cfg;
  cfg.rollout_steps = 32;
  cfg.minibatch_size = 16;
  cfg.epochs = 2;
  cfg.learning_rate = 3e-3;
  return cfg;
}

core::MlpPolicyConfig tiny_mlp_config() {
  core::MlpPolicyConfig cfg;
  cfg.pi_hidden = {8};
  cfg.vf_hidden = {8};
  return cfg;
}

TEST(Watchdog, RollsBackOnInjectedNanGradient) {
  FaultGuard guard;
  util::Rng rng(11);
  core::MlpPolicy policy(1, 1, tiny_mlp_config(), rng);
  StatefulTargetEnv env(0.5);
  const rl::PpoConfig cfg = tiny_ppo_config();
  rl::PpoTrainer trainer(policy, env, cfg, 3);

  FaultInjector::instance().arm("nan_grad@1");
  const rl::PpoIterationStats stats = trainer.train_iteration();
  EXPECT_GE(stats.nonfinite_events, 1);
  EXPECT_GE(stats.health_rollbacks, 1);
  EXPECT_LT(stats.learning_rate, cfg.learning_rate);

  // The poisoned step was rolled back: every weight is still finite and
  // training continues cleanly.
  for (const nn::Parameter* p : policy.parameters()) {
    for (const float v : p->value.data()) ASSERT_TRUE(std::isfinite(v));
  }
  FaultInjector::instance().disarm();
  const rl::PpoIterationStats clean = trainer.train_iteration();
  EXPECT_EQ(clean.nonfinite_events, 0);
  EXPECT_EQ(clean.health_rollbacks, 0);
}

TEST(Watchdog, CleanRunReportsNoEvents) {
  FaultGuard guard;
  util::Rng rng(12);
  core::MlpPolicy policy(1, 1, tiny_mlp_config(), rng);
  StatefulTargetEnv env(0.5);
  const rl::PpoConfig cfg = tiny_ppo_config();
  rl::PpoTrainer trainer(policy, env, cfg, 3);
  const rl::PpoIterationStats stats = trainer.train_iteration();
  EXPECT_EQ(stats.nonfinite_events, 0);
  EXPECT_EQ(stats.health_rollbacks, 0);
  EXPECT_EQ(stats.learning_rate, cfg.learning_rate);
}

// ---------------- trainer checkpoint round-trip ----------------

void expect_params_bitwise_equal(const std::vector<nn::Parameter*>& a,
                                 const std::vector<nn::Parameter*>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto da = a[i]->value.data();
    const auto db = b[i]->value.data();
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t k = 0; k < da.size(); ++k) {
      ASSERT_EQ(da[k], db[k]) << "parameter " << i << " element " << k;
    }
  }
}

void expect_stats_identical(const rl::PpoIterationStats& a,
                            const rl::PpoIterationStats& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.mean_episode_reward, b.mean_episode_reward);
  EXPECT_EQ(a.policy_loss, b.policy_loss);
  EXPECT_EQ(a.value_loss, b.value_loss);
  EXPECT_EQ(a.entropy, b.entropy);
  EXPECT_EQ(a.approx_kl, b.approx_kl);
  EXPECT_EQ(a.clip_fraction, b.clip_fraction);
  EXPECT_EQ(a.nonfinite_events, b.nonfinite_events);
  EXPECT_EQ(a.health_rollbacks, b.health_rollbacks);
  EXPECT_EQ(a.learning_rate, b.learning_rate);
}

TEST(Checkpoint, TrainerResumeIsBitIdentical) {
  const std::string path = temp_path("gddr_trainer_resume.ckpt");
  const rl::PpoConfig cfg = tiny_ppo_config();

  // Reference: 4 uninterrupted iterations.
  util::Rng rng_a(31);
  core::MlpPolicy policy_a(1, 1, tiny_mlp_config(), rng_a);
  StatefulTargetEnv env_a0(0.5);
  StatefulTargetEnv env_a1(0.5);
  rl::PpoTrainer trainer_a(policy_a, {&env_a0, &env_a1}, cfg, 3);
  std::vector<rl::PpoIterationStats> full;
  for (int i = 0; i < 2; ++i) full.push_back(trainer_a.train_iteration());
  trainer_a.save_checkpoint(path);
  for (int i = 0; i < 2; ++i) full.push_back(trainer_a.train_iteration());

  // Resumed: fresh stack (different init seed — the checkpoint must
  // overwrite everything), load, 2 more iterations.
  util::Rng rng_b(99);
  core::MlpPolicy policy_b(1, 1, tiny_mlp_config(), rng_b);
  StatefulTargetEnv env_b0(0.5);
  StatefulTargetEnv env_b1(0.5);
  rl::PpoTrainer trainer_b(policy_b, {&env_b0, &env_b1}, cfg, 77);
  trainer_b.load_checkpoint(path);
  EXPECT_EQ(trainer_b.iterations(), 2);
  EXPECT_EQ(trainer_b.total_env_steps(), trainer_a.total_env_steps() - 64);
  std::vector<rl::PpoIterationStats> tail;
  for (int i = 0; i < 2; ++i) tail.push_back(trainer_b.train_iteration());

  expect_params_bitwise_equal(policy_a.parameters(), policy_b.parameters());
  ASSERT_EQ(tail.size(), 2U);
  expect_stats_identical(tail[0], full[2]);
  expect_stats_identical(tail[1], full[3]);
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptedCheckpointNamesFieldAndLeavesTrainerUsable) {
  const std::string path = temp_path("gddr_trainer_corrupt.ckpt");
  const rl::PpoConfig cfg = tiny_ppo_config();
  util::Rng rng(32);
  core::MlpPolicy policy(1, 1, tiny_mlp_config(), rng);
  StatefulTargetEnv env(0.5);
  rl::PpoTrainer trainer(policy, env, cfg, 3);
  trainer.train_iteration();
  trainer.save_checkpoint(path);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);

  try {
    trainer.load_checkpoint(path);
    FAIL() << "expected util::IoError for a truncated checkpoint";
  } catch (const util::IoError& ex) {
    EXPECT_NE(std::string(ex.what()).find("truncated"), std::string::npos)
        << ex.what();
  }
  // No half-load: the trainer keeps training normally.
  const rl::PpoIterationStats stats = trainer.train_iteration();
  EXPECT_EQ(stats.steps, cfg.rollout_steps);
  std::remove(path.c_str());
}

TEST(Checkpoint, EnvCountMismatchRejected) {
  const std::string path = temp_path("gddr_trainer_envcount.ckpt");
  const rl::PpoConfig cfg = tiny_ppo_config();
  util::Rng rng(33);
  core::MlpPolicy policy(1, 1, tiny_mlp_config(), rng);
  StatefulTargetEnv env0(0.5);
  StatefulTargetEnv env1(0.5);
  rl::PpoTrainer two_envs(policy, {&env0, &env1}, cfg, 3);
  two_envs.train_iteration();
  two_envs.save_checkpoint(path);

  util::Rng rng_b(34);
  core::MlpPolicy policy_b(1, 1, tiny_mlp_config(), rng_b);
  StatefulTargetEnv env_b(0.5);
  rl::PpoTrainer one_env(policy_b, env_b, cfg, 3);
  try {
    one_env.load_checkpoint(path);
    FAIL() << "expected util::IoError for an env count mismatch";
  } catch (const util::IoError& ex) {
    EXPECT_NE(std::string(ex.what()).find("count"), std::string::npos)
        << ex.what();
  }
  std::remove(path.c_str());
}

// ---------------- routing env state round-trip ----------------

core::ScenarioParams tiny_scenario_params() {
  core::ScenarioParams p;
  p.sequence_length = 12;
  p.cycle_length = 4;
  p.train_sequences = 2;
  p.test_sequences = 1;
  return p;
}

TEST(EnvState, RoutingEnvRoundTripContinuesBitIdentically) {
  util::Rng srng(41);
  const std::vector<core::Scenario> scenarios{
      core::make_scenario(topo::by_name("SmallRing"), tiny_scenario_params(),
                          srng)};
  core::EnvConfig cfg;
  cfg.memory = 3;

  core::RoutingEnv a(scenarios, cfg, 5);
  a.reset();
  const std::vector<double> action(
      static_cast<std::size_t>(a.action_dim()), 0.25);
  a.step(action);

  core::RoutingEnv b(scenarios, cfg, 999);  // different seed/state
  b.restore_state(a.save_state());

  // Identical continuation: same rewards and observations step by step,
  // across episode boundaries (reset uses the restored RNG stream).
  for (int i = 0; i < 20; ++i) {
    const auto ra = a.step(action);
    const auto rb = b.step(action);
    ASSERT_EQ(ra.reward, rb.reward) << "step " << i;
    ASSERT_EQ(ra.done, rb.done) << "step " << i;
    ASSERT_EQ(ra.obs.flat, rb.obs.flat) << "step " << i;
    if (ra.done) {
      ASSERT_EQ(a.reset().flat, b.reset().flat) << "step " << i;
    }
  }
}

TEST(EnvState, CorruptBlobRejectedWithoutStateChange) {
  util::Rng srng(42);
  const std::vector<core::Scenario> scenarios{
      core::make_scenario(topo::by_name("SmallRing"), tiny_scenario_params(),
                          srng)};
  core::EnvConfig cfg;
  cfg.memory = 3;
  core::RoutingEnv env(scenarios, cfg, 5);
  env.reset();
  const auto good = env.save_state();

  auto truncated = good;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(env.restore_state(truncated), util::IoError);

  auto oob = good;
  // Scenario index field sits right after the version (u32) + RNG state
  // (4*u64 + f64 + u8) + mode byte; stomp it with an enormous value.
  const std::size_t scenario_off = 4 + 8 * 4 + 8 + 1 + 1;
  for (std::size_t i = 0; i < 8; ++i) oob[scenario_off + i] = 0xFF;
  EXPECT_THROW(env.restore_state(oob), util::IoError);

  // The failed restores left the env where it was.
  EXPECT_EQ(env.save_state(), good);
}

TEST(EnvState, IterativeEnvRoundTripMidMicroStep) {
  util::Rng srng(43);
  const std::vector<core::Scenario> scenarios{
      core::make_scenario(topo::by_name("SmallRing"), tiny_scenario_params(),
                          srng)};
  core::IterativeEnvConfig cfg;
  cfg.memory = 3;

  core::IterativeRoutingEnv a(scenarios, cfg, 5);
  a.reset();
  const std::vector<double> action{0.3, -0.2};
  a.step(action);  // mid-DM: edge cursor advanced, weights pending
  a.step(action);

  core::IterativeRoutingEnv b(scenarios, cfg, 999);
  b.restore_state(a.save_state());
  for (int i = 0; i < 30; ++i) {
    const auto ra = a.step(action);
    const auto rb = b.step(action);
    ASSERT_EQ(ra.reward, rb.reward) << "micro-step " << i;
    ASSERT_EQ(ra.done, rb.done) << "micro-step " << i;
    if (ra.done) {
      ASSERT_EQ(a.reset().flat, b.reset().flat) << "micro-step " << i;
    }
  }
}

// ---------------- golden env state blobs ----------------
//
// save_state() bytes of seeded envs, pinned so the blob format (the
// version word, the episode cursor's fields, then the env's own) cannot
// change silently and existing checkpoints keep loading.

core::ScenarioParams golden_scenario_params() {
  core::ScenarioParams p = tiny_scenario_params();
  p.test_sequences = 3;
  return p;
}

std::vector<core::Scenario> golden_scenarios() {
  util::Rng srng(47);
  return {core::make_scenario(topo::by_name("SmallRing"),
                              golden_scenario_params(), srng)};
}

core::EnvConfig golden_env_config() {
  core::EnvConfig cfg;
  cfg.memory = 3;
  return cfg;
}

core::IterativeEnvConfig golden_iterative_config() {
  core::IterativeEnvConfig cfg;
  cfg.memory = 3;
  return cfg;
}

std::vector<double> golden_action(int dim) {
  std::vector<double> action(static_cast<std::size_t>(dim));
  for (int e = 0; e < dim; ++e) {
    action[static_cast<std::size_t>(e)] = 0.1 * (e % 5) - 0.2;
  }
  return action;
}

std::vector<double> golden_micro_action(int i) {
  return {0.1 * (i % 3) - 0.1, 0.4};
}

// Seed 5, never reset.
const std::vector<std::uint8_t> kRoutingEnvFreshBlob = {
    0x01, 0x00, 0x00, 0x00, 0x5a, 0xc3, 0x89, 0xa3, 0x0c, 0x3b, 0x03, 0x63,
    0xf8, 0x36, 0x97, 0x93, 0x4d, 0x31, 0x97, 0xc0, 0x47, 0xc1, 0x6b, 0x10,
    0xf0, 0xd3, 0x92, 0x3b, 0x45, 0xb9, 0x05, 0xda, 0xc2, 0x4e, 0x6e, 0x19,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00,
};
// Seed 5, train mode: one full episode, a reset and two steps.
const std::vector<std::uint8_t> kRoutingEnvMidEpisodeBlob = {
    0x01, 0x00, 0x00, 0x00, 0x0f, 0x48, 0xe9, 0xe4, 0xec, 0xc2, 0x55, 0x1f,
    0xc0, 0x50, 0xf0, 0x3d, 0xcb, 0xf7, 0x71, 0x4d, 0x15, 0xf5, 0x7a, 0xda,
    0xdc, 0x10, 0xb3, 0x6b, 0x2b, 0xe7, 0xe7, 0x49, 0xe2, 0x1d, 0x5a, 0x6c,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00,
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0xf1, 0xb3, 0xd4, 0x7f, 0x54, 0x88,
    0xf3, 0x3f,
};
// Seed 7, test mode: the nine DMs of test unit 0, then three micro-steps
// into the first DM of unit 1.
const std::vector<std::uint8_t> kIterativeEnvMidDmBlob = {
    0x01, 0x00, 0x00, 0x00, 0xd7, 0x0d, 0x32, 0x59, 0xe4, 0xe1, 0xcb, 0x63,
    0x1c, 0x66, 0x3c, 0xf4, 0xd7, 0x3c, 0x4c, 0x04, 0x02, 0x2a, 0xb1, 0xba,
    0x80, 0x40, 0x98, 0xe6, 0xcb, 0x29, 0x3e, 0x67, 0x70, 0xeb, 0x3a, 0x95,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x03,
    0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0xbf, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x9a, 0x99, 0x99, 0x99, 0x99,
    0x99, 0xb9, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xfa,
    0x66, 0x73, 0x5b, 0xef, 0xf1, 0xf5, 0x3f,
};
// Bits of the reward of the step after kRoutingEnvMidEpisodeBlob, and of
// the step that completes the DM of kIterativeEnvMidDmBlob.
constexpr std::uint64_t kRoutingEnvNextReward = 0xbff58d429a613f51ULL;
constexpr std::uint64_t kIterativeEnvNextDmReward = 0xbff9b23e7e1840fcULL;

TEST(EnvState, RoutingEnvBlobsMatchGolden) {
  const core::RoutingEnv fresh(golden_scenarios(), golden_env_config(), 5);
  EXPECT_EQ(fresh.save_state(), kRoutingEnvFreshBlob);

  core::RoutingEnv live(golden_scenarios(), golden_env_config(), 5);
  live.reset();
  const std::vector<double> action = golden_action(live.action_dim());
  while (!live.step(action).done) {
  }
  live.reset();
  live.step(action);
  live.step(action);
  ASSERT_EQ(live.save_state(), kRoutingEnvMidEpisodeBlob);

  core::RoutingEnv restored(golden_scenarios(), golden_env_config(), 99);
  restored.restore_state(kRoutingEnvMidEpisodeBlob);
  EXPECT_EQ(restored.save_state(), kRoutingEnvMidEpisodeBlob);
  const auto expected = live.step(action);
  const auto got = restored.step(action);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.reward), kRoutingEnvNextReward);
  EXPECT_EQ(got.reward, expected.reward);
  EXPECT_EQ(got.obs.flat, expected.obs.flat);
  EXPECT_EQ(got.done, expected.done);
}

TEST(EnvState, IterativeEnvBlobMatchesGolden) {
  core::IterativeRoutingEnv live(golden_scenarios(),
                                 golden_iterative_config(), 7);
  live.set_mode(core::IterativeRoutingEnv::Mode::kTest);
  for (int dm = 0; dm < 9; ++dm) {
    live.reset();
    for (int i = 0; !live.step(golden_micro_action(i)).done; ++i) {
    }
  }
  live.reset();
  for (int i = 0; i < 3; ++i) live.step(golden_micro_action(i));
  ASSERT_EQ(live.save_state(), kIterativeEnvMidDmBlob);

  core::IterativeRoutingEnv restored(golden_scenarios(),
                                     golden_iterative_config(), 99);
  restored.restore_state(kIterativeEnvMidDmBlob);
  EXPECT_EQ(restored.save_state(), kIterativeEnvMidDmBlob);
  for (int i = 3;; ++i) {
    const auto expected = live.step(golden_micro_action(i));
    const auto got = restored.step(golden_micro_action(i));
    ASSERT_EQ(got.reward, expected.reward) << "micro-step " << i;
    ASSERT_EQ(got.done, expected.done) << "micro-step " << i;
    if (got.done) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.reward),
                kIterativeEnvNextDmReward);
      break;
    }
    ASSERT_TRUE(std::ranges::equal(got.obs.edges.data(),
                                   expected.obs.edges.data()))
        << "micro-step " << i;
  }
}

TEST(EnvState, RoutingEnvStepSlotMustAgreeWithPosition) {
  core::RoutingEnv env(golden_scenarios(), golden_env_config(), 5);
  // The step-count slot follows t (i32) after the version, the RNG, the
  // mode byte and the three u64 cursor fields.
  const std::size_t steps_off = 4 + 8 * 4 + 8 + 1 + 1 + 3 * 8 + 4;
  auto blob = kRoutingEnvMidEpisodeBlob;
  ASSERT_EQ(blob[steps_off], 2);  // t 5 with memory 3: two steps in
  blob[steps_off] = 3;
  EXPECT_THROW(env.restore_state(blob), util::IoError);
  EXPECT_EQ(env.save_state(), kRoutingEnvFreshBlob);
}

// ---------------- kill-and-resume acceptance test ----------------

core::ExperimentConfig experiment_config(const std::string& ckpt_path) {
  util::Rng srng(51);
  core::ExperimentConfig cfg;
  cfg.scenarios = {core::make_scenario(topo::by_name("SmallRing"),
                                       tiny_scenario_params(), srng)};
  cfg.env.memory = 3;
  cfg.ppo = tiny_ppo_config();
  cfg.policy.memory = 3;
  cfg.policy.latent = 8;
  cfg.policy.steps = 2;
  cfg.policy.mlp_hidden = {16};
  cfg.num_envs = 2;
  cfg.policy_seed = 61;
  cfg.train_seed = 62;
  cfg.checkpoint_path = ckpt_path;
  cfg.checkpoint_every_iterations = 1;
  return cfg;
}

TEST(Experiment, KilledRunResumesBitIdentically) {
  FaultGuard guard;
  const std::string path = temp_path("gddr_experiment.ckpt");
  // One iteration = rollout_steps env steps; 4 iterations total.
  const long total = 4L * tiny_ppo_config().rollout_steps;

  // Reference: uninterrupted run.
  core::Experiment reference(experiment_config(path + ".ref"));
  const auto full = reference.train(total);
  ASSERT_EQ(full.size(), 4U);

  // Victim: killed by the injector at the start of iteration 3 (two
  // iterations and two checkpoints have landed by then).
  core::Experiment victim(experiment_config(path));
  FaultInjector::instance().arm("train_abort@3");
  EXPECT_THROW(victim.train(total), std::runtime_error);
  FaultInjector::instance().disarm();

  // Recovery: a fresh process image resumes from the last checkpoint and
  // finishes the remaining iterations.
  core::Experiment recovered(experiment_config(path));
  recovered.resume_from(path);
  EXPECT_EQ(recovered.trainer().iterations(), 2);
  const auto tail =
      recovered.train(total - recovered.trainer().total_env_steps());
  ASSERT_EQ(tail.size(), 2U);

  expect_params_bitwise_equal(reference.policy().parameters(),
                              recovered.policy().parameters());
  expect_stats_identical(tail[0], full[2]);
  expect_stats_identical(tail[1], full[3]);

  std::remove(path.c_str());
  std::remove((path + ".ref").c_str());
}

}  // namespace
}  // namespace gddr
