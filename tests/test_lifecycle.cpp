// Policy lifecycle tests: the versioned on-disk model registry (atomic
// publish, CRC-checked load, orphan adoption, retention pruning, the
// registry_publish fault site), the RCU-style PolicySlot, the shadow
// evaluator's win/loss/NaN accounting, and the Promoter state machine
// (full walk to kLive, gate rejection, instant NaN rollback, staging
// discipline).
//
// Promoter tests drive a real inline serve::Engine with per-request
// micro-batches so canary attribution is deterministic; traffic is tiny
// (Abilene, a handful of requests) to keep the walk fast.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/policies.hpp"
#include "lifecycle/promoter.hpp"
#include "lifecycle/registry.hpp"
#include "lifecycle/shadow.hpp"
#include "nn/serialize.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "topo/zoo.hpp"
#include "traffic/demand.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace gddr {
namespace {

namespace fs = std::filesystem;

using lifecycle::ModelRegistry;
using lifecycle::PolicySlot;
using lifecycle::Promoter;
using lifecycle::PromoterConfig;
using lifecycle::PromoteState;
using lifecycle::RegistryConfig;
using lifecycle::RegistryEntry;
using lifecycle::ShadowConfig;
using lifecycle::ShadowEvaluator;
using lifecycle::ShadowStats;

// Every test disarms on exit so an assertion failure cannot leak an
// armed fault schedule into the next test.
struct FaultGuard {
  FaultGuard() { util::FaultInjector::instance().disarm(); }
  ~FaultGuard() { util::FaultInjector::instance().disarm(); }
};

// Fresh directory under the test temp root, wiped before use.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "gddr_lifecycle_" + name;
  fs::remove_all(dir);
  return dir;
}

RegistryConfig registry_config(int retention = 8) {
  RegistryConfig config;
  config.retention = retention;
  config.policy = core::experiment_gnn_config(5);
  return config;
}

std::shared_ptr<const core::GnnPolicy> make_policy(std::uint64_t seed) {
  util::Rng rng(seed);
  return std::make_shared<core::GnnPolicy>(core::experiment_gnn_config(5),
                                           rng);
}

// Saves a random-init policy's parameters as a publishable checkpoint.
std::string write_checkpoint(const std::string& dir, std::uint64_t seed) {
  fs::create_directories(dir);
  util::Rng rng(seed);
  core::GnnPolicy policy(core::experiment_gnn_config(5), rng);
  const std::string path = dir + "/ckpt.gddrparm";
  nn::save_parameters(path, policy.parameters());
  return path;
}

serve::RouteRequest make_request(const graph::DiGraph& g,
                                 double demand = 1.0) {
  serve::RouteRequest request;
  request.graph = &g;
  request.demand = traffic::DemandMatrix(g.num_nodes());
  request.demand.set(0, 1, demand);
  request.demand.set(2, 0, demand * 0.5);
  return request;
}

serve::RouterConfig test_router_config() {
  serve::RouterConfig config;
  config.deadline = std::chrono::seconds(2);
  config.memory = 5;
  return config;
}

// ---------------- ModelRegistry ----------------

TEST(ModelRegistry, PublishAssignsMonotonicVersionsAndIndexesThem) {
  const std::string dir = fresh_dir("publish");
  const std::string ckpt = write_checkpoint(dir + "_src", 1);
  ModelRegistry registry(dir, registry_config());

  EXPECT_EQ(registry.latest(), 0U);
  EXPECT_EQ(registry.publish_file(ckpt), 1U);
  EXPECT_EQ(registry.publish_file(ckpt), 2U);
  EXPECT_EQ(registry.latest(), 2U);

  const std::vector<RegistryEntry> entries = registry.entries();
  ASSERT_EQ(entries.size(), 2U);
  EXPECT_EQ(entries[0].version, 1U);
  EXPECT_EQ(entries[1].version, 2U);
  for (const RegistryEntry& entry : entries) {
    EXPECT_GT(entry.bytes, 0U);
    EXPECT_TRUE(fs::exists(dir + "/" + entry.filename));
  }
  EXPECT_TRUE(fs::exists(dir + "/MANIFEST"));
  // Identical bytes published twice -> identical checksums.
  EXPECT_EQ(entries[0].crc, entries[1].crc);
}

TEST(ModelRegistry, LoadReturnsThePublishedWeights) {
  const std::string dir = fresh_dir("load");
  const std::string ckpt = write_checkpoint(dir + "_src", 42);
  ModelRegistry registry(dir, registry_config());
  registry.publish_file(ckpt);

  const auto loaded = registry.load(1);
  ASSERT_NE(loaded, nullptr);

  // The loaded policy must route exactly like the source weights.
  util::Rng rng(42);
  core::GnnPolicy original(core::experiment_gnn_config(5), rng);
  const auto g = topo::abilene();
  serve::RobustRouter ref(&original, test_router_config());
  serve::RobustRouter out(loaded.get(), test_router_config());
  const auto a = ref.decide(make_request(g));
  const auto b = out.decide(make_request(g));
  EXPECT_EQ(a.rung, serve::Rung::kGnnPolicy);
  EXPECT_EQ(a.rung, b.rung);
  EXPECT_EQ(a.sim.u_max, b.sim.u_max);
  EXPECT_EQ(a.routed_demand, b.routed_demand);
}

TEST(ModelRegistry, LoadRefusesUnknownVersionAndCorruptFile) {
  const std::string dir = fresh_dir("corrupt");
  const std::string ckpt = write_checkpoint(dir + "_src", 3);
  ModelRegistry registry(dir, registry_config());
  registry.publish_file(ckpt);

  EXPECT_THROW((void)registry.load(99), util::IoError);

  // Flip one byte in the middle of the stored version file: the
  // manifest CRC check must refuse the load.
  const std::string file = dir + "/" + registry.entries()[0].filename;
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(fs::file_size(file) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x5a);
    f.write(&byte, 1);
  }
  EXPECT_THROW((void)registry.load(1), util::IoError);
}

TEST(ModelRegistry, ReopenAdoptsOrphanedVersionFiles) {
  const std::string dir = fresh_dir("orphan");
  const std::string ckpt = write_checkpoint(dir + "_src", 4);
  std::uint32_t crc = 0;
  {
    ModelRegistry registry(dir, registry_config());
    registry.publish_file(ckpt);
    registry.publish_file(ckpt);
    crc = registry.entries()[1].crc;
  }
  // Simulate a crash between version-file rename and manifest rewrite:
  // the manifest vanishes but the version files survive.
  fs::remove(dir + "/MANIFEST");

  ModelRegistry reopened(dir, registry_config());
  const std::vector<RegistryEntry> entries = reopened.entries();
  ASSERT_EQ(entries.size(), 2U);
  EXPECT_EQ(entries[0].version, 1U);
  EXPECT_EQ(entries[1].version, 2U);
  EXPECT_EQ(entries[1].crc, crc);
  // Adoption rewrote the manifest, and ids stay monotonic past it.
  EXPECT_TRUE(fs::exists(dir + "/MANIFEST"));
  EXPECT_EQ(reopened.publish_file(ckpt), 3U);
}

TEST(ModelRegistry, RetentionPrunesOldFilesButNeverReusesIds) {
  const std::string dir = fresh_dir("retention");
  const std::string ckpt = write_checkpoint(dir + "_src", 5);
  ModelRegistry registry(dir, registry_config(/*retention=*/2));
  registry.publish_file(ckpt);
  registry.publish_file(ckpt);
  const std::string v1_file = dir + "/" + registry.entries()[0].filename;
  registry.publish_file(ckpt);

  const std::vector<RegistryEntry> entries = registry.entries();
  ASSERT_EQ(entries.size(), 2U);
  EXPECT_EQ(entries[0].version, 2U);
  EXPECT_EQ(entries[1].version, 3U);
  EXPECT_FALSE(fs::exists(v1_file));
  EXPECT_THROW((void)registry.load(1), util::IoError);
  // The pruned id is burned: the next publish continues past it.
  EXPECT_EQ(registry.publish_file(ckpt), 4U);
}

TEST(ModelRegistry, PublishFaultLeavesRegistryUntouched) {
  FaultGuard guard;
  const std::string dir = fresh_dir("fault");
  const std::string ckpt = write_checkpoint(dir + "_src", 6);
  ModelRegistry registry(dir, registry_config());
  registry.publish_file(ckpt);

  util::FaultInjector::instance().arm("registry_publish@1");
  EXPECT_THROW((void)registry.publish_file(ckpt), util::IoError);
  EXPECT_EQ(registry.latest(), 1U);
  EXPECT_EQ(registry.entries().size(), 1U);
  // The schedule is spent: the next publish succeeds.
  EXPECT_EQ(registry.publish_file(ckpt), 2U);
}

TEST(ModelRegistry, RejectsBadConfigurationAndGarbageCheckpoints) {
  const std::string dir = fresh_dir("badcfg");
  EXPECT_THROW(ModelRegistry(dir, registry_config(/*retention=*/0)),
               std::invalid_argument);

  ModelRegistry registry(dir, registry_config());
  const std::string garbage = dir + "/garbage.bin";
  util::write_file_atomic(garbage, "not a container");
  EXPECT_THROW((void)registry.publish_file(garbage), util::IoError);
  EXPECT_EQ(registry.latest(), 0U);
}

// ---------------- PolicySlot ----------------

TEST(PolicySlot, StoreLoadRoundTripsAndCountsSwaps) {
  PolicySlot slot;
  EXPECT_EQ(slot.load().policy, nullptr);
  EXPECT_EQ(slot.swaps(), 0);

  const auto p1 = make_policy(1);
  slot.store({p1, 7});
  const PolicySlot::Value v = slot.load();
  EXPECT_EQ(v.policy.get(), p1.get());
  EXPECT_EQ(v.version, 7U);

  // A reader's copy stays valid across any number of later swaps.
  slot.store({make_policy(2), 8});
  slot.store({make_policy(3), 9});
  EXPECT_EQ(v.policy.get(), p1.get());
  EXPECT_EQ(slot.swaps(), 3);
  EXPECT_EQ(slot.load().version, 9U);
}

// ---------------- ShadowEvaluator ----------------

ShadowConfig shadow_config(double fraction) {
  ShadowConfig config;
  config.fraction = fraction;
  config.router = test_router_config();
  return config;
}

serve::DecisionRecord incumbent_record(double u_max) {
  serve::DecisionRecord record;
  record.rung = serve::Rung::kGnnPolicy;
  record.policy_version = 1;
  record.u_max = u_max;
  return record;
}

TEST(ShadowEvaluator, MirrorsEveryRequestAtFullFractionAndScoresWins) {
  ShadowEvaluator shadow(shadow_config(1.0));
  EXPECT_FALSE(shadow.armed());
  shadow.arm(make_policy(1), 2);
  EXPECT_TRUE(shadow.armed());

  const auto g = topo::abilene();
  // An absurdly bad incumbent U_max: every healthy mirror wins.
  for (int i = 0; i < 4; ++i) {
    shadow.observe(make_request(g), incumbent_record(1e9));
  }
  const ShadowStats stats = shadow.stats();
  EXPECT_EQ(stats.observed, 4);
  EXPECT_EQ(stats.mirrored, 4);
  EXPECT_EQ(stats.wins, 4);
  EXPECT_EQ(stats.candidate_failures, 0);
  EXPECT_DOUBLE_EQ(stats.win_rate(), 1.0);
  // Positive delta = candidate better (incumbent − candidate).
  EXPECT_GT(stats.delta.mean(), 0.0);
  ASSERT_EQ(stats.by_topology.size(), 1U);
  EXPECT_EQ(stats.by_topology[0].mirrored, 4);
  EXPECT_GT(stats.p99_latency_us, 0.0);
}

TEST(ShadowEvaluator, ScoresLossesWhenIncumbentIsBetter) {
  ShadowEvaluator shadow(shadow_config(1.0));
  shadow.arm(make_policy(1), 2);
  const auto g = topo::abilene();
  // An unbeatable incumbent U_max: every mirror loses.
  shadow.observe(make_request(g), incumbent_record(0.0));
  const ShadowStats stats = shadow.stats();
  EXPECT_EQ(stats.mirrored, 1);
  EXPECT_EQ(stats.wins, 0);
  EXPECT_LT(stats.delta.mean(), 0.0);
}

TEST(ShadowEvaluator, StrideSamplesTheConfiguredFraction) {
  ShadowEvaluator shadow(shadow_config(0.5));
  shadow.arm(make_policy(1), 2);
  const auto g = topo::abilene();
  for (int i = 0; i < 8; ++i) {
    shadow.observe(make_request(g), incumbent_record(1e9));
  }
  const ShadowStats stats = shadow.stats();
  EXPECT_EQ(stats.observed, 8);
  EXPECT_EQ(stats.mirrored, 4);
}

TEST(ShadowEvaluator, IgnoresCanaryRecordsAndDisarmedTraffic) {
  ShadowEvaluator shadow(shadow_config(1.0));
  shadow.arm(make_policy(1), 2);
  const auto g = topo::abilene();
  serve::DecisionRecord canary = incumbent_record(1e9);
  canary.served_by_candidate = true;
  shadow.observe(make_request(g), canary);
  EXPECT_EQ(shadow.stats().mirrored, 0);

  shadow.disarm();
  shadow.observe(make_request(g), incumbent_record(1e9));
  EXPECT_EQ(shadow.stats().observed, 0);
}

TEST(ShadowEvaluator, CountsCandidateNanAsFailure) {
  FaultGuard guard;
  ShadowEvaluator shadow(shadow_config(1.0));
  shadow.arm(make_policy(1), 2);
  const auto g = topo::abilene();
  util::FaultInjector::instance().arm("candidate_nan@1+");
  shadow.observe(make_request(g), incumbent_record(1e9));
  const ShadowStats stats = shadow.stats();
  EXPECT_EQ(stats.mirrored, 1);
  EXPECT_EQ(stats.wins, 0);
  EXPECT_EQ(stats.candidate_failures, 1);
  EXPECT_EQ(stats.nonfinite_outputs, 1);
}

TEST(ShadowEvaluator, ShadowDivergeFaultForcesALoss) {
  FaultGuard guard;
  ShadowEvaluator shadow(shadow_config(1.0));
  shadow.arm(make_policy(1), 2);
  const auto g = topo::abilene();
  util::FaultInjector::instance().arm("shadow_diverge@1+");
  shadow.observe(make_request(g), incumbent_record(1e9));
  const ShadowStats stats = shadow.stats();
  EXPECT_EQ(stats.mirrored, 1);
  EXPECT_EQ(stats.wins, 0);
  EXPECT_EQ(stats.nonfinite_outputs, 0);
}

// ---------------- Promoter ----------------

struct PromoterRig {
  explicit PromoterRig(const std::string& dir_name)
      : dir(fresh_dir(dir_name)),
        registry(dir, registry_config()),
        engine(nullptr, engine_config()),
        promoter(registry, engine, promoter_config()) {
    const std::string ckpt = write_checkpoint(dir + "_src", 10);
    registry.publish_file(ckpt);  // v1: the incumbent
    registry.publish_file(ckpt);  // v2: identical-weights candidate
    engine.set_policy(registry.load(1), 1);
    engine.set_decision_observer(
        [this](const serve::RouteRequest& request,
               const serve::DecisionRecord& record) {
          promoter.observe(request, record);
        });
  }

  static serve::EngineConfig engine_config() {
    serve::EngineConfig config;
    config.workers = 0;   // inline: deterministic single-thread serving
    config.max_batch = 1; // per-request batches: canary share is exact
    config.queue_capacity = 4;
    config.router = test_router_config();
    return config;
  }

  static PromoterConfig promoter_config() {
    PromoterConfig config;
    config.shadow_fraction = 1.0;
    config.canary_fraction = 1.0;
    config.promote_after = 4;
    config.canary_decisions = 2;
    config.router = test_router_config();
    return config;
  }

  // Serves `n` requests through the engine (and thus the promoter).
  void drive(int n) {
    const auto g = topo::abilene();
    for (int i = 0; i < n; ++i) {
      auto future = engine.submit(make_request(g, 0.5 + 0.1 * i));
      engine.poll();
      ASSERT_FALSE(future.get().shed);
    }
  }

  std::string dir;
  ModelRegistry registry;
  serve::Engine engine;
  Promoter promoter;
};

TEST(Promoter, TiedCandidateWalksShadowCanaryLive) {
  PromoterRig rig("walk");
  EXPECT_EQ(rig.promoter.state(), PromoteState::kIdle);
  rig.promoter.stage(2);
  EXPECT_EQ(rig.promoter.state(), PromoteState::kShadow);

  // 4 mirrored pairs clear the shadow gate (ties are wins)...
  rig.drive(4);
  EXPECT_EQ(rig.promoter.state(), PromoteState::kCanary);
  // ...and 2 candidate-served decisions clear the canary.
  rig.drive(2);
  EXPECT_EQ(rig.promoter.state(), PromoteState::kLive);

  const Promoter::Summary summary = rig.promoter.summary();
  EXPECT_EQ(summary.candidate_version, 2U);
  EXPECT_EQ(summary.promotions, 1);
  EXPECT_EQ(summary.rollbacks, 0);
  EXPECT_EQ(summary.canary_served, 2);
  EXPECT_EQ(rig.engine.live_version(), 2U);
  // Install + promotion: two hot swaps, zero downtime in between.
  EXPECT_GE(rig.engine.swaps(), 2);

  // Post-promotion traffic is served by the new live version, not a
  // canary.
  const auto g = topo::abilene();
  auto future = rig.engine.submit(make_request(g));
  rig.engine.poll();
  const serve::ServeOutcome outcome = future.get();
  EXPECT_EQ(outcome.decision.policy_version, 2U);
  EXPECT_FALSE(outcome.decision.served_by_candidate);
}

TEST(Promoter, CandidateNanRollsBackInstantly) {
  FaultGuard guard;
  PromoterRig rig("nan");
  rig.promoter.stage(2);
  util::FaultInjector::instance().arm("candidate_nan@1+");
  rig.drive(1);
  EXPECT_EQ(rig.promoter.state(), PromoteState::kRolledBack);

  const Promoter::Summary summary = rig.promoter.summary();
  EXPECT_EQ(summary.rollbacks, 1);
  EXPECT_EQ(summary.rollback_reason, "candidate_nan");
  // The incumbent is untouched and still serving.
  EXPECT_EQ(rig.engine.live_version(), 1U);
  util::FaultInjector::instance().disarm();
  rig.drive(1);
  EXPECT_EQ(rig.promoter.summary().rollbacks, 1);
}

TEST(Promoter, ShadowWinRateGateRejectsALosingCandidate) {
  FaultGuard guard;
  PromoterRig rig("gate");
  rig.promoter.stage(2);
  // Force every mirrored pair to score as a loss.
  util::FaultInjector::instance().arm("shadow_diverge@1+");
  rig.drive(4);
  EXPECT_EQ(rig.promoter.state(), PromoteState::kRolledBack);
  const Promoter::Summary summary = rig.promoter.summary();
  EXPECT_EQ(summary.rollbacks, 1);
  EXPECT_EQ(summary.rollback_reason, "shadow_win_rate_gate");
  EXPECT_EQ(summary.canary_served, 0);
  EXPECT_EQ(rig.engine.live_version(), 1U);
}

TEST(Promoter, StagingIsExclusiveAndRestagableAfterTerminalStates) {
  FaultGuard guard;
  PromoterRig rig("restage");
  rig.promoter.stage(2);
  // A promotion is in flight: staging again must be rejected.
  EXPECT_THROW(rig.promoter.stage(2), std::logic_error);
  // A failed load leaves the machine idle (nothing was armed)...
  util::FaultInjector::instance().arm("candidate_nan@1+");
  rig.drive(1);
  ASSERT_EQ(rig.promoter.state(), PromoteState::kRolledBack);
  util::FaultInjector::instance().disarm();
  // ...and terminal states allow a fresh stage() — including of a
  // version that fails to load, which lands back in the terminal state
  // machine's idle lane rather than rolling anything back.
  EXPECT_THROW(rig.promoter.stage(99), util::IoError);
  EXPECT_EQ(rig.promoter.summary().rollbacks, 1);
  rig.promoter.stage(2);
  EXPECT_EQ(rig.promoter.state(), PromoteState::kShadow);
}

TEST(Promoter, RejectsBadConfiguration) {
  const std::string dir = fresh_dir("badpromoter");
  ModelRegistry registry(dir, registry_config());
  serve::Engine engine(nullptr, PromoterRig::engine_config());
  PromoterConfig bad = PromoterRig::promoter_config();
  bad.promote_after = 0;
  EXPECT_THROW(Promoter(registry, engine, bad), std::invalid_argument);
}

}  // namespace
}  // namespace gddr
