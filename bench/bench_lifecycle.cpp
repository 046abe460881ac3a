// Chaos bench for the policy lifecycle subsystem (src/lifecycle).
//
// Three stages:
//  1. Hot-swap storm — six distinct policies are published into a fresh
//     registry; while a 2-worker engine serves a request stream, the
//     live policy is hot-swapped round-robin between all six at least
//     twenty times.  Assertions: nothing is shed, nothing degrades off
//     rung 1, every decision is attributable to exactly one published
//     version, and every decision is *bit-identical* to a reference
//     RobustRouter running the same version on the same request (the
//     requests carry empty histories, so a decision depends only on the
//     (version, demand) pair — any torn or mid-batch swap would break
//     the replay).
//  2. Promotion — a candidate with identical weights to the incumbent
//     is staged through a Promoter over live traffic: ties count as
//     wins, so it must clear shadow and canary and go live with zero
//     rollbacks.
//  3. Rollback — the same staging with GDDR-injected candidate_nan: the
//     candidate's first shadow mirror produces NaN action means and the
//     promoter must roll back immediately, leaving the incumbent live.
//
// --json writes BENCH_lifecycle.json ("gddr.bench_lifecycle.v1") for
// the CI smoke leg.  Exit code 0 iff every assertion held.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/policies.hpp"
#include "lifecycle/promoter.hpp"
#include "lifecycle/registry.hpp"
#include "nn/serialize.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "topo/zoo.hpp"
#include "traffic/generators.hpp"
#include "util/fault.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace {

using namespace gddr;

constexpr int kVersions = 6;
constexpr int kRequests = 384;
constexpr int kSwapEvery = 16;  // one swap per 16 submissions -> 24 swaps

struct DecisionKey {
  serve::Rung rung;
  double u_max;
  double routed_demand;
};

bool operator==(const DecisionKey& a, const DecisionKey& b) {
  // Exact on purpose: the claim is bit-identity per policy version.
  return a.rung == b.rung && a.u_max == b.u_max &&
         a.routed_demand == b.routed_demand;
}

bool g_ok = true;

void check(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    g_ok = false;
  }
}

// Publishes `count` distinct random-init policies and returns the fresh
// registry (directory wiped first).
std::unique_ptr<lifecycle::ModelRegistry> make_registry(
    const std::string& dir, int count) {
  std::filesystem::remove_all(dir);
  lifecycle::RegistryConfig config;
  config.retention = count + 2;
  config.policy = core::experiment_gnn_config(5);
  auto registry = std::make_unique<lifecycle::ModelRegistry>(dir, config);
  for (int i = 0; i < count; ++i) {
    util::Rng rng(100 + static_cast<std::uint64_t>(i));
    core::GnnPolicy policy(config.policy, rng);
    const std::vector<nn::Parameter*> params = policy.parameters();
    const std::string path = dir + "/seed.gddrparm";
    nn::save_parameters(path, params);
    registry->publish_file(path);
    std::filesystem::remove(path);
  }
  return registry;
}

std::vector<traffic::DemandMatrix> make_demands(const graph::DiGraph& g,
                                                int count,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  traffic::BimodalParams params;
  params.pair_density = 0.3;
  std::vector<traffic::DemandMatrix> demands;
  demands.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    demands.push_back(traffic::bimodal_matrix(g.num_nodes(), params, rng));
  }
  return demands;
}

serve::RouterConfig router_config() {
  serve::RouterConfig config;
  config.deadline = std::chrono::seconds(5);  // generous: CI boxes crawl
  return config;
}

// ---- Stage 1: hot-swap storm ----------------------------------------

long run_swap_storm(const lifecycle::ModelRegistry& registry,
                    const graph::DiGraph& g,
                    const std::vector<traffic::DemandMatrix>& demands) {
  const std::vector<lifecycle::RegistryEntry> entries = registry.entries();
  std::vector<lifecycle::PolicySlot::Value> versions;
  versions.reserve(entries.size());
  for (const lifecycle::RegistryEntry& entry : entries) {
    versions.push_back({registry.load(entry.version), entry.version});
  }

  serve::EngineConfig config;
  config.workers = 2;
  config.queue_capacity = demands.size();
  config.max_batch = 8;
  config.router = router_config();
  serve::Engine engine(nullptr, config);
  engine.set_policy(versions[0].policy, versions[0].version);

  // Submit the stream, hot-swapping the live policy every kSwapEvery
  // submissions while both workers serve concurrently.
  std::vector<std::future<serve::ServeOutcome>> futures;
  futures.reserve(demands.size());
  std::size_t next_version = 1;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (i > 0 && i % kSwapEvery == 0) {
      // Backpressure: wait for the previous chunk to finish serving so
      // the swap really lands mid-stream (otherwise submission outruns
      // the workers and only the last version ever serves a batch).
      futures[i - 1].wait();
      const lifecycle::PolicySlot::Value& v =
          versions[next_version++ % versions.size()];
      engine.set_policy(v.policy, v.version);
    }
    serve::RouteRequest request;
    request.graph = &g;
    request.demand = demands[i];
    // Empty history: the decision depends only on (version, demand),
    // which is what makes the per-version replay below exact.
    futures.push_back(engine.submit(std::move(request)));
  }
  engine.shutdown();

  long shed = 0;
  std::vector<std::uint64_t> served_version(demands.size(), 0);
  std::vector<DecisionKey> served_key(demands.size());
  std::map<std::uint64_t, long> per_version;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::ServeOutcome outcome = futures[i].get();
    if (outcome.shed) {
      ++shed;
      continue;
    }
    check(outcome.decision.rung == serve::Rung::kGnnPolicy,
          "storm: every decision must be served by the live policy rung");
    check(!outcome.decision.served_by_candidate,
          "storm: no candidate was ever armed");
    served_version[i] = outcome.decision.policy_version;
    served_key[i] = {outcome.decision.rung, outcome.decision.sim.u_max,
                     outcome.decision.routed_demand};
    ++per_version[outcome.decision.policy_version];
  }
  check(shed == 0, "storm: an uncontended run must shed nothing");

  const long swaps = engine.swaps() - 1;  // minus the initial install
  std::printf("storm: %zu requests, %ld hot swaps, %zu versions served\n",
              demands.size(), swaps, per_version.size());
  check(swaps >= 20, "storm: at least 20 live hot swaps");
  check(per_version.size() >= 2, "storm: more than one version served");

  // Per-version replay: a reference router pinned to version v must
  // reproduce every decision attributed to v bit-for-bit.
  for (const auto& [version, count] : per_version) {
    const lifecycle::PolicySlot::Value* value = nullptr;
    for (const lifecycle::PolicySlot::Value& v : versions) {
      if (v.version == version) value = &v;
    }
    check(value != nullptr,
          "storm: every served version must be a published version");
    if (value == nullptr) continue;
    serve::RobustRouter reference(value->policy.get(), router_config());
    long mismatches = 0;
    for (std::size_t i = 0; i < demands.size(); ++i) {
      if (served_version[i] != version) continue;
      serve::RouteRequest request;
      request.graph = &g;
      request.demand = demands[i];
      const serve::RouteDecision decision = reference.decide(request);
      const DecisionKey key{decision.rung, decision.sim.u_max,
                            decision.routed_demand};
      if (!(key == served_key[i])) ++mismatches;
    }
    std::printf("storm: v%llu served %ld decision(s), %ld replay "
                "mismatch(es)\n",
                static_cast<unsigned long long>(version), count, mismatches);
    check(mismatches == 0,
          "storm: decisions must replay bit-identically per version");
  }
  return swaps;
}

// ---- Stages 2 and 3: promotion and rollback -------------------------

struct LifecycleRun {
  lifecycle::PromoteState state = lifecycle::PromoteState::kIdle;
  std::uint64_t live_version = 0;
  long rollbacks = 0;
  long swaps = 0;
};

// Serves a stream through an inline engine with a Promoter staged on
// `candidate_version`, the incumbent installed first.
LifecycleRun run_promoter(lifecycle::ModelRegistry& registry,
                          const graph::DiGraph& g,
                          const std::vector<traffic::DemandMatrix>& demands,
                          std::uint64_t incumbent_version,
                          std::uint64_t candidate_version) {
  serve::EngineConfig config;
  config.workers = 0;
  config.max_batch = 1;
  config.router = router_config();
  serve::Engine engine(nullptr, config);
  engine.set_policy(registry.load(incumbent_version), incumbent_version);

  lifecycle::PromoterConfig pcfg;
  pcfg.shadow_fraction = 0.25;
  pcfg.canary_fraction = 0.25;
  pcfg.promote_after = 10;
  pcfg.canary_decisions = 5;
  pcfg.router = config.router;
  lifecycle::Promoter promoter(registry, engine, pcfg);
  engine.set_decision_observer(
      [&promoter](const serve::RouteRequest& request,
                  const serve::DecisionRecord& record) {
        promoter.observe(request, record);
      });
  promoter.stage(candidate_version);

  std::vector<std::future<serve::ServeOutcome>> futures;
  futures.reserve(demands.size());
  traffic::DemandSequence history;
  for (const traffic::DemandMatrix& dm : demands) {
    serve::RouteRequest request;
    request.graph = &g;
    request.demand = dm;
    request.history = history;
    history.push_back(dm);
    if (static_cast<int>(history.size()) > config.router.memory) {
      history.erase(history.begin());
    }
    futures.push_back(engine.submit(std::move(request)));
    engine.poll();
  }
  engine.shutdown();
  for (auto& future : futures) (void)future.get();

  LifecycleRun out;
  const lifecycle::Promoter::Summary summary = promoter.summary();
  out.state = summary.state;
  out.live_version = engine.live_version();
  out.rollbacks = summary.rollbacks;
  out.swaps = engine.swaps();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  const graph::DiGraph abilene = topo::by_name("Abilene");
  const auto demands = make_demands(abilene, kRequests, 11);

  // Stage 1: hot-swap storm over six distinct published versions.
  const auto storm_registry =
      make_registry("bench_lifecycle_storm.tmp", kVersions);
  const long swaps = run_swap_storm(*storm_registry, abilene, demands);

  // Stage 2: a tied candidate must promote (ties are wins).
  const auto promo_registry = make_registry("bench_lifecycle_promo.tmp", 1);
  {
    // Republish v1's bytes as v2: an identical-weights candidate.
    const std::string source = promo_registry->dir() + "/" +
                               promo_registry->entries().front().filename;
    promo_registry->publish_file(source);
  }
  const std::vector<traffic::DemandMatrix> promo_demands =
      make_demands(abilene, 120, 29);
  const LifecycleRun promoted =
      run_promoter(*promo_registry, abilene, promo_demands, 1, 2);
  std::printf("promotion: state %s, live v%llu, %ld rollback(s), %ld "
              "swap(s)\n",
              lifecycle::to_string(promoted.state),
              static_cast<unsigned long long>(promoted.live_version),
              promoted.rollbacks, promoted.swaps);
  check(promoted.state == lifecycle::PromoteState::kLive,
        "promotion: tied candidate must reach kLive");
  check(promoted.live_version == 2,
        "promotion: the candidate version must be live");
  check(promoted.rollbacks == 0, "promotion: no rollback on a clean run");
  check(promoted.swaps >= 2,
        "promotion: install + promote are both hot swaps");

  // Stage 3: an injected candidate NaN must roll back, incumbent intact.
  util::FaultInjector::instance().arm("candidate_nan@1+");
  const LifecycleRun rolled =
      run_promoter(*promo_registry, abilene, promo_demands, 1, 2);
  util::FaultInjector::instance().disarm();
  std::printf("rollback: state %s, live v%llu, %ld rollback(s)\n",
              lifecycle::to_string(rolled.state),
              static_cast<unsigned long long>(rolled.live_version),
              rolled.rollbacks);
  check(rolled.state == lifecycle::PromoteState::kRolledBack,
        "rollback: injected candidate_nan must trigger auto-rollback");
  check(rolled.live_version == 1,
        "rollback: the incumbent must stay live after rollback");
  check(rolled.rollbacks == 1, "rollback: exactly one rollback");

  std::filesystem::remove_all("bench_lifecycle_storm.tmp");
  std::filesystem::remove_all("bench_lifecycle_promo.tmp");

  if (json) {
    char buffer[512];
    std::snprintf(
        buffer, sizeof(buffer),
        "{\"schema\": \"gddr.bench_lifecycle.v1\", \"requests\": %d, "
        "\"versions\": %d, \"hot_swaps\": %ld, "
        "\"promotion_state\": \"%s\", \"promotion_live_version\": %llu, "
        "\"rollback_state\": \"%s\", \"rollback_live_version\": %llu, "
        "\"rollbacks\": %ld, \"ok\": %s}\n",
        kRequests, kVersions, swaps, lifecycle::to_string(promoted.state),
        static_cast<unsigned long long>(promoted.live_version),
        lifecycle::to_string(rolled.state),
        static_cast<unsigned long long>(rolled.live_version),
        rolled.rollbacks, g_ok ? "true" : "false");
    try {
      util::write_file_atomic("BENCH_lifecycle.json", buffer);
      std::printf("wrote BENCH_lifecycle.json\n");
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "could not write BENCH_lifecycle.json: %s\n",
                   ex.what());
      g_ok = false;
    }
  }
  return g_ok ? 0 : 1;
}
