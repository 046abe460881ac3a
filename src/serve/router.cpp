#include "serve/router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "rl/health.hpp"
#include "util/fault.hpp"

namespace gddr::serve {

using Clock = std::chrono::steady_clock;

const char* rung_name(Rung rung) {
  switch (rung) {
    case Rung::kGnnPolicy:
      return "gnn_policy";
    case Rung::kLastKnownGood:
      return "last_known_good";
    case Rung::kInverseCapacity:
      return "inverse_capacity";
    case Rung::kShortestPath:
      return "shortest_path";
    case Rung::kDropTraffic:
      return "drop_traffic";
    case Rung::kRungCount:
      break;
  }
  return "?";
}

const char* cause_name(FailureCause cause) {
  switch (cause) {
    case FailureCause::kNone:
      return "none";
    case FailureCause::kNoPolicy:
      return "no_policy";
    case FailureCause::kBreakerOpen:
      return "breaker_open";
    case FailureCause::kPolicyError:
      return "policy_error";
    case FailureCause::kNonFiniteOutput:
      return "non_finite_output";
    case FailureCause::kDeadlineExpired:
      return "deadline_expired";
    case FailureCause::kTranslationFailed:
      return "translation_failed";
    case FailureCause::kInvalidRouting:
      return "invalid_routing";
    case FailureCause::kSimulationFailed:
      return "simulation_failed";
    case FailureCause::kTopologyChanged:
      return "topology_changed";
    case FailureCause::kNotCached:
      return "not_cached";
    case FailureCause::kInvalidTopology:
      return "invalid_topology";
    case FailureCause::kInternalError:
      return "internal_error";
    case FailureCause::kCauseCount:
      break;
  }
  return "?";
}

namespace {

// Builds a rung-1 observation from a possibly-short request history:
// entries are taken newest-last, missing or size-mismatched matrices
// become zero matrices, and the result is handed to the same
// build_observation the policy trained on.
rl::Observation serving_observation(const core::Scenario& scenario,
                                    const traffic::DemandSequence& history,
                                    int memory,
                                    core::NodeFeatureMode node_features) {
  const int n = scenario.graph.num_nodes();
  traffic::DemandSequence window;
  window.reserve(static_cast<std::size_t>(memory));
  const int have =
      std::min<int>(static_cast<int>(history.size()), memory);
  for (int i = 0; i < memory - have; ++i) {
    window.emplace_back(n);
  }
  for (int i = have; i > 0; --i) {
    const auto& dm = history[history.size() - static_cast<std::size_t>(i)];
    if (dm.num_nodes() == n) {
      window.push_back(dm);
    } else {
      window.emplace_back(n);
    }
  }
  return core::RoutingEnv::build_observation(scenario, window, memory,
                                             memory, node_features);
}

// The kRequestGarbage fault: what a broken upstream collector would send.
void poison_demand(traffic::DemandMatrix& dm) {
  const int n = dm.num_nodes();
  if (n < 2) return;
  std::vector<double> data = dm.raw();
  data[1] = std::numeric_limits<double>::quiet_NaN();
  data[static_cast<std::size_t>(n)] = -42.0;
  data[0] = 7.0;  // diagonal self-demand
  if (n >= 3) data[2] = 1e300;
  dm = traffic::DemandMatrix::from_raw_unchecked(n, std::move(data));
}

}  // namespace

RobustRouter::RobustRouter(const rl::Policy* policy, RouterConfig config)
    : RobustRouter(policy, config,
                   std::make_shared<TopologyCache>(
                       config.topology_cache_capacity, config.softmin,
                       config.node_feature_scale, config.flat_feature_scale),
                   std::make_shared<CircuitBreaker>(config.breaker)) {}

RobustRouter::RobustRouter(const rl::Policy* policy, RouterConfig config,
                           std::shared_ptr<TopologyCache> cache,
                           std::shared_ptr<CircuitBreaker> breaker)
    : policy_(policy),
      config_(config),
      breaker_(std::move(breaker)),
      cache_(std::move(cache)) {
  if (cache_ == nullptr || breaker_ == nullptr) {
    throw std::invalid_argument("RobustRouter: null shared cache/breaker");
  }
  // Fail fast on an unusable stage split instead of on the first request.
  DeadlineBudget probe(Clock::now(), config_.deadline,
                       config_.policy_fraction, config_.translate_fraction);
  (void)probe;
}

void RobustRouter::set_policy(const rl::Policy* policy,
                              std::uint64_t version,
                              bool candidate) {
  policy_ = policy;
  policy_version_ = version;
  candidate_ = candidate;
}

RouteDecision RobustRouter::decide(const RouteRequest& request) {
  const Clock::time_point start = Clock::now();
  ++stats_.requests;
  obs::count("serve/requests");

  RouteDecision decision;
  try {
    decision = decide_impl(request, start);
  } catch (const std::exception&) {
    // decide_impl absorbs every anticipated failure; anything escaping it
    // is itself a fault the serving contract must survive.  Dropping the
    // request's traffic is the only decision that needs no working state.
    decision = drop_all_decision(request);
    note_failure(decision, Rung::kDropTraffic, FailureCause::kInternalError);
  }

  decision.latency_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  decision.policy_version = policy_version_;
  decision.served_by_candidate = candidate_;
  ++stats_.rung_decisions[static_cast<int>(decision.rung)];
  if (!decision.sanitize.clean()) ++stats_.sanitized_requests;
  stats_.unroutable_entries += decision.sanitize.unroutable_entries;
  if (decision.deadline_exhausted) ++stats_.deadline_exhausted;
  export_metrics(decision);
  return decision;
}

RouteDecision RobustRouter::decide_impl(const RouteRequest& request,
                                        Clock::time_point start) {
  const DeadlineBudget budget(start, config_.deadline,
                              config_.policy_fraction,
                              config_.translate_fraction);
  if (request.graph == nullptr) {
    RouteDecision decision = drop_all_decision(request);
    note_failure(decision, Rung::kDropTraffic,
                 FailureCause::kInvalidTopology);
    return decision;
  }
  const graph::DiGraph& g = *request.graph;

  RouteDecision decision;

  // Ingress: validate the topology (cached) and repair the demand matrix.
  // The shared_ptr pins the entry for this whole decision — concurrent
  // workers may evict it from the cache, but never from under us.
  TopologyCache::EntryPtr entry;
  try {
    entry = cache_->acquire(g);
  } catch (const std::exception&) {
    RouteDecision dropped = drop_all_decision(request);
    note_failure(dropped, Rung::kDropTraffic,
                 FailureCause::kInvalidTopology);
    return dropped;
  }

  traffic::DemandMatrix inbound = request.demand;
  if (util::inject(util::FaultSite::kRequestGarbage)) {
    obs::count("serve/fault/request_garbage");
    poison_demand(inbound);
  }
  const traffic::DemandMatrix demand = sanitize_demands(
      inbound, g.num_nodes(), config_.sanitize, entry->reachable,
      decision.sanitize);
  decision.routed_demand = demand.total();

  // A topology change mid-request invalidates the learned state for this
  // graph: the policy's in-flight observation and the cached last-known-
  // good routing both describe a graph that no longer exists.
  const bool topo_changed = util::inject(util::FaultSite::kTopoChange);
  if (topo_changed) {
    obs::count("serve/fault/topo_change");
    entry->last_good.invalidate();
  }

  // Rung 1: live policy inference, gated by the circuit breaker.  The
  // RAII probe token reports failure even if the rung dies without a
  // verdict, so a crashed probe cannot wedge the breaker half-open.
  if (policy_ == nullptr) {
    note_failure(decision, Rung::kGnnPolicy, FailureCause::kNoPolicy);
  } else if (topo_changed) {
    note_failure(decision, Rung::kGnnPolicy, FailureCause::kTopologyChanged);
  } else {
    CircuitBreaker::Probe probe = breaker_->admit(Clock::now());
    if (!probe) {
      note_failure(decision, Rung::kGnnPolicy, FailureCause::kBreakerOpen);
    } else {
      const FailureCause cause = try_policy_rung(
          g, *entry, demand, request.history, budget, decision);
      if (cause == FailureCause::kNone) {
        probe.succeed(Clock::now());
        entry->last_good.offer(decision.routing, config_.lkg_refresh_every);
        return decision;
      }
      probe.fail(Clock::now());
      note_failure(decision, Rung::kGnnPolicy, cause);
    }
  }

  // Past the whole-request deadline the ladder stops spending: rung 3's
  // broader multipath gains nothing over rung 2/4 when the answer is
  // already late, so only the already-materialised routings are tried.
  decision.deadline_exhausted = budget.expired(Clock::now());

  // Rung 2: last-known-good learned routing for this topology.
  routing::Routing last_good;
  if (entry->last_good.load(last_good)) {
    if (try_cached_rung(Rung::kLastKnownGood, g, last_good, demand,
                        decision)) {
      return decision;
    }
    // A last-known-good that no longer validates is stale — drop it so
    // later requests skip straight past it.
    entry->last_good.invalidate();
  } else {
    note_failure(decision, Rung::kLastKnownGood, FailureCause::kNotCached);
  }

  if (!decision.deadline_exhausted) {
    decision.deadline_exhausted = budget.expired(Clock::now());
  }

  // Rung 3: inverse-capacity softmin multipath.
  if (decision.deadline_exhausted) {
    note_failure(decision, Rung::kInverseCapacity,
                 FailureCause::kDeadlineExpired);
  } else if (try_cached_rung(Rung::kInverseCapacity, g,
                             entry->inverse_capacity, demand, decision)) {
    return decision;
  }

  // Rung 4: hop-count shortest paths.  Always attempted — even past the
  // deadline a late valid routing beats none.
  if (try_cached_rung(Rung::kShortestPath, g, entry->shortest_path, demand,
                      decision)) {
    return decision;
  }

  // Every rung failed on a sanitised demand over a validated topology —
  // in principle unreachable, but the serving contract still holds: route
  // nothing rather than route invalidly.
  RouteDecision dropped = drop_all_decision(request);
  dropped.sanitize = decision.sanitize;
  dropped.attempts = std::move(decision.attempts);
  dropped.deadline_exhausted = decision.deadline_exhausted;
  return dropped;
}

FailureCause RobustRouter::try_policy_rung(
    const graph::DiGraph& g, const TopologyEntry& entry,
    const traffic::DemandMatrix& demand,
    const traffic::DemandSequence& history, const DeadlineBudget& budget,
    RouteDecision& decision) {
  // Serving reads only the action mean: no critic, no log-std, no tape.
  std::vector<double> mean;
  try {
    const rl::Observation obs =
        serving_observation(entry.obs_scenario, history, config_.memory,
                            config_.node_features);
    mean = policy_->infer(obs, rl::Heads::kMean).mean;
  } catch (const std::exception&) {
    return FailureCause::kPolicyError;
  }
  // A staged candidate has its own NaN site so chaos runs can poison
  // *only* the candidate (proving rollback) while the incumbent stays
  // healthy — and vice versa.
  const util::FaultSite nan_site = candidate_
                                       ? util::FaultSite::kCandidateNan
                                       : util::FaultSite::kPolicyNan;
  if (util::inject(nan_site)) {
    obs::count(std::string("serve/fault/") + util::to_string(nan_site));
    if (!mean.empty()) {
      mean[0] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  if (!rl::all_finite(mean)) return FailureCause::kNonFiniteOutput;
  if (util::inject(util::FaultSite::kPolicySlow)) {
    // Deterministic stand-in for a policy forward that blew its stage
    // budget — no real sleep, so chaos runs stay fast and reproducible.
    obs::count("serve/fault/policy_slow");
    return FailureCause::kDeadlineExpired;
  }
  if (budget.policy_overrun(Clock::now())) {
    return FailureCause::kDeadlineExpired;
  }

  // One pass translates and simulates.  A translation error (bad weights)
  // throws std::invalid_argument; a strict simulation failure throws
  // std::runtime_error.  The fused stage answers to the translation
  // checkpoint.
  routing::SoftminSimulation candidate;
  try {
    const std::vector<double> weights = routing::weights_from_actions(
        mean, config_.min_weight, config_.max_weight);
    candidate = routing::softmin_simulate(g, weights, config_.softmin, demand);
  } catch (const std::runtime_error&) {
    return FailureCause::kSimulationFailed;
  } catch (const std::exception&) {
    return FailureCause::kTranslationFailed;
  }
  if (budget.translate_overrun(Clock::now())) {
    return FailureCause::kDeadlineExpired;
  }

  std::string error;
  if (!routing::validate_for_serving(g, candidate.routing, demand, &error)) {
    return FailureCause::kInvalidRouting;
  }
  if (budget.expired(Clock::now())) {
    return FailureCause::kDeadlineExpired;
  }
  decision.sim = std::move(candidate.sim);
  decision.rung = Rung::kGnnPolicy;
  decision.routing = std::move(candidate.routing);
  return FailureCause::kNone;
}

bool RobustRouter::try_cached_rung(Rung rung, const graph::DiGraph& g,
                                   const routing::Routing& routing,
                                   const traffic::DemandMatrix& demand,
                                   RouteDecision& decision) {
  std::string error;
  if (!routing::validate_for_serving(g, routing, demand, &error)) {
    note_failure(decision, rung, FailureCause::kInvalidRouting);
    return false;
  }
  try {
    decision.sim = routing::simulate(g, routing, demand);
  } catch (const std::exception&) {
    note_failure(decision, rung, FailureCause::kSimulationFailed);
    return false;
  }
  decision.rung = rung;
  decision.routing = routing;
  return true;
}

RouteDecision RobustRouter::drop_all_decision(
    const RouteRequest& request) const {
  RouteDecision decision;
  decision.rung = Rung::kDropTraffic;
  const int n = request.graph != nullptr ? request.graph->num_nodes() : 0;
  const int ne = request.graph != nullptr ? request.graph->num_edges() : 0;
  decision.routing = routing::Routing(n, ne);
  decision.sim.link_load.assign(static_cast<std::size_t>(ne), 0.0);
  decision.sim.link_utilisation.assign(static_cast<std::size_t>(ne), 0.0);
  decision.routed_demand = 0.0;
  return decision;
}

void RobustRouter::note_failure(RouteDecision& decision, Rung rung,
                                FailureCause cause) {
  decision.attempts.push_back(RungAttempt{rung, cause});
  ++stats_.failure_causes[static_cast<int>(cause)];
}

void RobustRouter::export_metrics(const RouteDecision& decision) {
  if (!obs::enabled()) return;
  obs::Registry& registry = obs::Registry::instance();
  registry.add_counter(std::string("serve/rung/") + rung_name(decision.rung));
  for (const RungAttempt& attempt : decision.attempts) {
    registry.add_counter(std::string("serve/fail/") +
                         cause_name(attempt.cause));
  }
  const SanitizeReport& rep = decision.sanitize;
  if (!rep.clean()) registry.add_counter("serve/sanitize/requests");
  if (rep.non_finite_entries > 0) {
    registry.add_counter("serve/sanitize/non_finite",
                         static_cast<std::uint64_t>(rep.non_finite_entries));
  }
  if (rep.negative_entries > 0) {
    registry.add_counter("serve/sanitize/negative",
                         static_cast<std::uint64_t>(rep.negative_entries));
  }
  if (rep.clamped_entries > 0) {
    registry.add_counter("serve/sanitize/clamped",
                         static_cast<std::uint64_t>(rep.clamped_entries));
  }
  if (rep.unroutable_entries > 0) {
    registry.add_counter("serve/sanitize/unroutable",
                         static_cast<std::uint64_t>(rep.unroutable_entries));
  }
  if (decision.deadline_exhausted) {
    registry.add_counter("serve/deadline_exhausted");
  }
  // Breaker transition counters are exported by the breaker itself (it
  // is shared across workers; see CircuitBreaker).
  registry.record_span("serve/decide", decision.latency_s);
  registry.observe("serve/latency_us", decision.latency_s * 1e6);
}

}  // namespace gddr::serve
