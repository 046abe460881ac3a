// The resilient routing-decision pipeline (serving-side GDDR).
//
// Training optimises a policy; serving has to survive one.  RobustRouter
// wraps the inference path — observation, policy forward, softmin
// translation, simulation — in the machinery a production controller
// needs so that *every* request ends in a routing that satisfies the
// §IV-A validity contract, no matter what the policy, the clock or the
// inbound request does:
//
//  * Ingress validation: unseen topologies pass graph::check_topology
//    once (TopologyCache), inbound demand matrices are repaired by
//    sanitize_demands and the repairs reported per decision.
//  * Deadline budget: one steady-clock budget per request, split across
//    the pipeline stages (DeadlineBudget); an overrunning stage fails its
//    rung rather than starving the fallbacks.
//  * Graceful-degradation ladder, best rung first:
//      1. kGnnPolicy       — live policy inference (the learned routing);
//      2. kLastKnownGood   — the most recent rung-1 routing that served
//                            this topology successfully;
//      3. kInverseCapacity — demand-oblivious softmin multipath over
//                            1/capacity weights;
//      4. kShortestPath    — hop-count shortest paths;
//      5. kDropTraffic     — the empty routing with zero demand (only
//                            reachable when the topology itself is
//                            rejected at ingress).
//    A rung is skipped or failed on validator rejection, deadline
//    expiry, injected fault or thrown exception, and the cause is
//    recorded in the decision's attempt log.
//  * Circuit breaker: rung 1 is gated by CircuitBreaker, so a policy
//    that keeps failing stops being paid for; exponential-backoff probes
//    re-admit it when it recovers.
//  * Observability: every decision increments serve/* counters (rung
//    taken, failure causes, sanitiser repairs, breaker transitions) and
//    records its latency through obs::Registry, plus an always-on local
//    RouterStats aggregate for callers running without metrics.
//
// decide() never throws: the catch-all fallback converts even an
// unanticipated exception into a kDropTraffic decision.  Fault-injection
// sites (util::FaultSite::kPolicyNan / kPolicySlow / kTopoChange /
// kRequestGarbage) let tests and the chaos bench rehearse each failure
// path deterministically.
//
// Thread model: one RobustRouter per serving worker, with the expensive
// per-topology state shareable across workers — serve::Engine constructs
// its workers' routers over one thread-safe TopologyCache and one
// thread-safe CircuitBreaker (the shared-state constructor below), while
// RouterStats stay per-router.  A router constructed with the plain
// constructor owns private instances and behaves exactly as before.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/routing_env.hpp"
#include "rl/policy.hpp"
#include "routing/routing.hpp"
#include "routing/softmin.hpp"
#include "serve/breaker.hpp"
#include "serve/deadline.hpp"
#include "serve/sanitize.hpp"
#include "serve/topo_cache.hpp"
#include "traffic/demand.hpp"

namespace gddr::serve {

enum class Rung : int {
  kGnnPolicy = 0,
  kLastKnownGood,
  kInverseCapacity,
  kShortestPath,
  kDropTraffic,
  kRungCount,
};

const char* rung_name(Rung rung);

enum class FailureCause : int {
  kNone = 0,
  kNoPolicy,          // router constructed without a policy
  kBreakerOpen,       // circuit breaker rejected rung 1
  kPolicyError,       // policy forward threw
  kNonFiniteOutput,   // NaN/inf in the policy's action mean
  kDeadlineExpired,   // stage or request budget overrun
  kTranslationFailed, // softmin translation threw
  kInvalidRouting,    // validate_for_serving rejected the routing
  kSimulationFailed,  // strict simulation threw (loop / conservation)
  kTopologyChanged,   // topology changed mid-request (injected)
  kNotCached,         // rung 2 has no last-known-good yet
  kInvalidTopology,   // graph::check_topology rejected the graph
  kInternalError,     // unanticipated exception escaped the ladder
  kCauseCount,
};

const char* cause_name(FailureCause cause);

struct RouteRequest {
  const graph::DiGraph* graph = nullptr;
  // Untrusted inbound demand matrix (sanitised before routing).
  traffic::DemandMatrix demand;
  // Recent previously-observed matrices, oldest first; may be shorter
  // than the policy's memory (zero-padded) and is only read by rung 1.
  traffic::DemandSequence history;
};

struct RungAttempt {
  Rung rung = Rung::kGnnPolicy;
  FailureCause cause = FailureCause::kNone;
};

struct RouteDecision {
  Rung rung = Rung::kDropTraffic;
  routing::Routing routing;
  routing::SimulationResult sim;
  SanitizeReport sanitize;
  // Rungs tried and failed before the decisive one, in ladder order.
  std::vector<RungAttempt> attempts;
  double latency_s = 0.0;
  // The request budget ran out before a better rung could be tried.
  bool deadline_exhausted = false;
  // Demand volume actually routed (after sanitising).
  double routed_demand = 0.0;
  // Version of the policy installed in this router when the decision was
  // made (0 = the construction-time, unversioned policy) and whether that
  // policy was a staged *candidate* (canary traffic).  Every decision is
  // attributable to exactly one (version, candidate) pair because the
  // engine installs the policy once per micro-batch, never mid-batch.
  std::uint64_t policy_version = 0;
  bool served_by_candidate = false;
};

struct RouterConfig {
  // Whole-request budget and its per-stage split (see DeadlineBudget).
  std::chrono::microseconds deadline{500'000};
  double policy_fraction = 0.45;
  double translate_fraction = 0.35;
  SanitizeLimits sanitize;
  CircuitBreakerConfig breaker;
  std::size_t topology_cache_capacity = 8;
  routing::SoftminOptions softmin;
  // Action-to-weight map; must match training (core::EnvConfig defaults).
  double min_weight = 0.5;
  double max_weight = 3.0;
  // Observation shape; must match training.
  int memory = 5;
  core::NodeFeatureMode node_features = core::NodeFeatureMode::kInOutSums;
  double node_feature_scale = 1.0;
  double flat_feature_scale = 1.0;
  // The last-known-good routing is refreshed every this many rung-1
  // successes (1 refreshes every time).  A refresh copies one |V| x |E|
  // ratio table (0.3 MB at 100 nodes / 394 edges) under the entry's
  // lock, so sparser refreshes mainly keep workers off that lock.
  int lkg_refresh_every = 16;
};

struct RouterStats {
  long requests = 0;
  long rung_decisions[static_cast<int>(Rung::kRungCount)] = {};
  long failure_causes[static_cast<int>(FailureCause::kCauseCount)] = {};
  long sanitized_requests = 0;   // requests whose matrix needed repair
  long unroutable_entries = 0;   // demand pairs dropped as unroutable
  long deadline_exhausted = 0;
};

class RobustRouter {
 public:
  // `policy` may be null (rung 1 permanently unavailable — the router
  // serves purely from the static rungs); when non-null it must outlive
  // the router.  This constructor owns a private cache and breaker.
  RobustRouter(const rl::Policy* policy, RouterConfig config);

  // Shared-state constructor for engine workers: every worker's router
  // reuses one topology cache (per-topology artifacts built once) and
  // one circuit breaker (a failing policy trips for the whole fleet).
  // Both must be non-null; config.breaker / topology_cache_capacity /
  // softmin / feature scales are ignored in favour of the shared
  // instances' own configuration.
  RobustRouter(const rl::Policy* policy, RouterConfig config,
               std::shared_ptr<TopologyCache> cache,
               std::shared_ptr<CircuitBreaker> breaker);

  // Produces a valid routing decision for the request.  Never throws.
  RouteDecision decide(const RouteRequest& request);

  // Installs the rung-1 policy used from here on.  Per-router and
  // unsynchronised by design: serve::Engine calls it on the worker's own
  // router at a batch boundary (the engine's policy slot provides the
  // cross-thread ordering), never concurrently with decide().  `policy`
  // may be null (rung 1 unavailable) and must outlive its installation;
  // `candidate` marks a staged candidate so decisions carry the
  // attribution and NaN injection fires the candidate_nan site instead
  // of policy_nan.
  void set_policy(const rl::Policy* policy, std::uint64_t version,
                  bool candidate = false);

  const RouterStats& stats() const { return stats_; }
  const CircuitBreaker& breaker() const { return *breaker_; }
  TopologyCache& topology_cache() { return *cache_; }
  const RouterConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  RouteDecision decide_impl(const RouteRequest& request,
                            Clock::time_point start);
  FailureCause try_policy_rung(const graph::DiGraph& g,
                               const TopologyEntry& entry,
                               const traffic::DemandMatrix& demand,
                               const traffic::DemandSequence& history,
                               const DeadlineBudget& budget,
                               RouteDecision& decision);
  bool try_cached_rung(Rung rung, const graph::DiGraph& g,
                       const routing::Routing& routing,
                       const traffic::DemandMatrix& demand,
                       RouteDecision& decision);
  RouteDecision drop_all_decision(const RouteRequest& request) const;
  void note_failure(RouteDecision& decision, Rung rung, FailureCause cause);
  void export_metrics(const RouteDecision& decision);

  const rl::Policy* policy_;
  std::uint64_t policy_version_ = 0;
  bool candidate_ = false;
  RouterConfig config_;
  std::shared_ptr<CircuitBreaker> breaker_;
  std::shared_ptr<TopologyCache> cache_;
  RouterStats stats_;
};

}  // namespace gddr::serve
