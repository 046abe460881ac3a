#include "serve_path.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/routing_env.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "open_loop.hpp"
#include "rl/forward.hpp"
#include "routing/routing.hpp"
#include "routing/softmin.hpp"
#include "serve/sanitize.hpp"
#include "serve/topo_cache.hpp"
#include "stats.hpp"

namespace gddr::perfbench {

namespace {

// Independent open-loop senders.  Each repeats its seeded phase, so with
// few of them a seed fixes one arrival pattern for the whole run; on BA100,
// where a decision takes 40 ms, 8 senders let some seeds queue bursts
// throughout and read a p50 half as long again as others.
constexpr int kControllers = 40;
constexpr int kSetupReps = 5;
constexpr int kValidateSamples = 3;  // served routings given routing::validate

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename Fn>
double time_us(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Evenly spaced indices into [0, n), at most `count` of them.
std::vector<std::size_t> spread_indices(std::size_t n, int count) {
  std::vector<std::size_t> out;
  if (n == 0 || count <= 0) return out;
  const std::size_t take =
      std::min<std::size_t>(n, static_cast<std::size_t>(count));
  for (std::size_t k = 0; k < take; ++k) out.push_back(k * n / take);
  return out;
}

// One request at a time, so that each is served alone: requests submitted
// together are split into micro-batches differently from run to run, and
// set-up time would vary with the split.
void warm_up(serve::Engine& engine, const RequestStream& stream,
             std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    engine.submit(stream.make(i)).get();
  }
}

// One set-up sample: engine construction plus warm-up (topology cache
// build, first forwards) into the empty `engine`.
double set_up(std::optional<serve::Engine>& engine, const ServePlan& plan,
              const serve::EngineConfig& config, const RequestStream& stream,
              int window) {
  const Clock::time_point t0 = Clock::now();
  engine.emplace(plan.policy, config);
  warm_up(*engine, stream, static_cast<std::size_t>(window));
  return seconds_since(t0);
}

// Closed loop: a fixed window of outstanding requests for `seconds`.
// Returns the decisions completed in the phase and the time they took.
std::pair<long, double> closed_loop(serve::Engine& engine,
                                    const RequestStream& stream, int window,
                                    double seconds, ServeResult& result) {
  std::deque<std::future<serve::ServeOutcome>> outstanding;
  std::size_t next = 0;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  for (int i = 0; i < window; ++i) {
    outstanding.push_back(engine.submit(stream.make(next++)));
  }
  long completed = 0;
  double elapsed = 0.0;
  while (!outstanding.empty()) {
    const serve::ServeOutcome outcome = outstanding.front().get();
    outstanding.pop_front();
    ++result.attempted;
    if (serve_failed(outcome.shed, outcome.decision.rung)) ++result.failed;
    const Clock::time_point now = Clock::now();
    // A phase shorter than one decision still measures that decision.
    if (now < end || completed == 0) {
      ++completed;
      elapsed = std::chrono::duration<double>(now - t0).count();
      outstanding.push_back(engine.submit(stream.make(next++)));
    }
  }
  return {completed, elapsed};
}

// Replays requests serially, timing RobustRouter::decide with tracing off
// and on, then each stage call it makes on the same input.
StageTimes trace_stages(const ServePlan& plan, const RequestStream& stream,
                        std::size_t n, serve::RobustRouter& router,
                        ServeResult& result) {
  const core::Scenario& scenario = *plan.scenario;
  const graph::DiGraph& g = scenario.graph;
  const serve::RouterConfig& cfg = router.config();
  obs::Registry& registry = obs::Registry::instance();

  std::vector<double> decide, decide_traced, acquire, sanitize, observation,
      forward, softmin, validate, simulate, unattributed;
  for (const std::size_t i : spread_indices(n, plan.replay_samples)) {
    const serve::RouteRequest request = stream.make(i);
    // Each decision is released before the next timed call, so every call
    // allocates into the same freed heap (a BA100 routing is 31.5 MB).
    serve::RouteDecision decision;
    decide.push_back(time_us([&] { decision = router.decide(request); }));
    const double decided_u_max = decision.sim.u_max;
    decision = {};
    registry.enable();
    decide_traced.push_back(
        time_us([&] { decision = router.decide(request); }));
    registry.disable();
    decision = {};

    serve::TopologyCache::EntryPtr entry;
    traffic::DemandMatrix demand;
    rl::Observation obs;
    std::vector<double> mean;
    routing::Routing candidate;
    routing::SimulationResult sim;
    std::string error;
    bool valid = false;
    const double t_acquire =
        time_us([&] { entry = router.topology_cache().acquire(g); });
    const double t_sanitize = time_us([&] {
      serve::SanitizeReport report;
      demand = serve::sanitize_demands(request.demand, g.num_nodes(),
                                       cfg.sanitize, entry->reachable, report);
    });
    const double t_observation = time_us([&] {
      obs = core::RoutingEnv::build_observation(entry->obs_scenario,
                                                request.history, cfg.memory,
                                                cfg.memory, cfg.node_features);
    });
    const double t_forward =
        time_us([&] { mean = rl::forward_policy(*plan.policy, obs).mean; });
    const double t_softmin = time_us([&] {
      const std::vector<double> weights = routing::weights_from_actions(
          mean, cfg.min_weight, cfg.max_weight);
      candidate = routing::softmin_routing(g, weights, cfg.softmin);
    });
    const double t_validate = time_us([&] {
      valid = routing::validate_for_serving(g, candidate, demand, &error);
    });
    const double t_simulate =
        time_us([&] { sim = routing::simulate(g, candidate, demand); });
    if (!valid || sim.u_max != decided_u_max) {
      result.errors.push_back("stage replay of request " + std::to_string(i) +
                              " does not reproduce RobustRouter::decide");
    }
    acquire.push_back(t_acquire);
    sanitize.push_back(t_sanitize);
    observation.push_back(t_observation);
    forward.push_back(t_forward);
    softmin.push_back(t_softmin);
    validate.push_back(t_validate);
    simulate.push_back(t_simulate);
    unattributed.push_back(decide.back() - (t_acquire + t_sanitize +
                                            t_observation + t_forward +
                                            t_softmin + t_validate +
                                            t_simulate));
  }
  registry.reset();

  std::vector<double> miss_ms;
  for (int rep = 0; rep < 3; ++rep) {
    serve::TopologyCache cold(cfg.topology_cache_capacity, cfg.softmin,
                              cfg.node_feature_scale, cfg.flat_feature_scale);
    miss_ms.push_back(time_us([&] { (void)cold.acquire(g); }) / 1e3);
  }

  StageTimes t;
  t.decide_us = median(decide);
  t.decide_traced_us = median(decide_traced);
  t.acquire_us = median(acquire);
  t.sanitize_us = median(sanitize);
  t.observation_us = median(observation);
  t.forward_us = median(forward);
  t.softmin_us = median(softmin);
  t.validate_us = median(validate);
  t.simulate_us = median(simulate);
  t.unattributed_us = median(unattributed);
  t.cache_miss_ms = median(miss_ms);
  return t;
}

}  // namespace

void OpenLoopLedger::expect(const serve::RouteRequest& request,
                            std::size_t i) {
  const std::lock_guard<std::mutex> lock(mu_);
  slots_[request.demand.raw().data()] = i;
}

void OpenLoopLedger::observe(const serve::RouteRequest& request,
                             const serve::DecisionRecord& record) {
  const Clock::time_point now = Clock::now();
  std::size_t i = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = slots_.find(request.demand.raw().data());
    if (it == slots_.end()) return;
    i = it->second;
    slots_.erase(it);
  }
  served_[i] = {record.rung, record.u_max, record.routed_demand,
                record.latency_s};
  completions_.mark(i, now);
}

void OpenLoopLedger::end_round() {
  const std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
}

serve::EngineConfig engine_config(const core::Scenario& scenario,
                                  int workers, int max_batch) {
  serve::EngineConfig config;
  config.workers = workers;
  config.queue_capacity = 256;
  config.max_batch = max_batch;
  config.queue_deadline = std::chrono::microseconds(0);
  // Generous: a deadline-degraded decision would make routing quality
  // depend on host load.  It still counts as a failure if it happens.
  config.router.deadline = std::chrono::seconds(5);
  config.router.memory = kMemory;
  config.router.node_feature_scale = scenario.node_feature_scale;
  config.router.flat_feature_scale = scenario.flat_feature_scale;
  return config;
}

ServeResult run_serving(const ServePlan& plan) {
  ServeResult result;
  const core::Scenario& scenario = *plan.scenario;
  const RequestStream stream(scenario, kMemory);
  const serve::EngineConfig config =
      engine_config(scenario, plan.workers, plan.max_batch);
  const int window = 2 * std::max(1, plan.workers);

  // Set-up, repeated; the last engine serves the run.
  std::optional<serve::Engine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    result.setup_s.push_back(set_up(engine, plan, config, stream, window));
  }

  const std::vector<double> offsets = open_loop_offsets(
      plan.open_rate, plan.open_seconds, kControllers, plan.schedule_seed);
  const std::size_t n = offsets.size();
  OpenLoopLedger ledger(n);
  engine->set_decision_observer(
      [&ledger](const serve::RouteRequest& request,
                const serve::DecisionRecord& record) {
        ledger.observe(request, record);
      });

  const std::vector<std::size_t> validate_ids =
      spread_indices(n, kValidateSamples);
  std::vector<std::pair<std::size_t, std::future<serve::ServeOutcome>>> kept;
  serve::RouteRequest pending;
  long open_served = 0;
  long open_batches = 0;
  for (int r = 0; r < kServeRounds; ++r) {
    const auto [completed, elapsed] =
        closed_loop(*engine, stream, window,
                    plan.closed_seconds / kServeRounds, result);
    if (elapsed > 0.0) {
      result.closed_rates.push_back(static_cast<double>(completed) / elapsed);
    }
    const std::size_t first = n * static_cast<std::size_t>(r) / kServeRounds;
    const std::size_t last =
        n * static_cast<std::size_t>(r + 1) / kServeRounds;
    std::vector<double> chunk(offsets.begin() + static_cast<long>(first),
                              offsets.begin() + static_cast<long>(last));
    const double base = chunk.front();
    for (double& t : chunk) t -= base;
    const serve::EngineStats before = engine->stats();
    const OpenLoopRun run = run_open_loop(
        chunk,
        [&](std::size_t j) {
          pending = stream.make(first + j);
          ledger.expect(pending, first + j);
        },
        [&](std::size_t j) {
          std::future<serve::ServeOutcome> f =
              engine->submit(std::move(pending));
          if (std::binary_search(validate_ids.begin(), validate_ids.end(),
                                 first + j)) {
            kept.emplace_back(first + j, std::move(f));
          }
        });
    // Let the round drain (every request resolved or shed) before the
    // next closed-loop phase and before its latencies are read.
    const auto drained = [&] {
      long resolved = engine->stats().shed - before.shed;
      for (std::size_t i = first; i < last; ++i) {
        resolved += ledger.done(i);
      }
      return resolved >= static_cast<long>(last - first);
    };
    while (!drained()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ledger.end_round();
    const serve::EngineStats after = engine->stats();
    open_served += after.served - before.served;
    open_batches += after.batches - before.batches;
    const std::vector<double> latency =
        due_latencies_us(run, chunk, ledger.completions(), first);
    result.round_p50_us.push_back(median(latency));
    result.latency_us.insert(result.latency_us.end(), latency.begin(),
                             latency.end());
    result.lag_us.insert(result.lag_us.end(), run.lag_us.begin(),
                         run.lag_us.end());
    if (r + 1 < kServeRounds) {
      // One more set-up sample in every gap, from a spare engine, so that
      // the samples span the run: host speed drifts over seconds.
      {
        std::optional<serve::Engine> spare;
        result.setup_s.push_back(set_up(spare, plan, config, stream, window));
      }
      if (plan.between_rounds) plan.between_rounds(r);
    }
  }
  engine->shutdown();
  result.batch_size_mean =
      open_batches > 0 ? static_cast<double>(open_served) /
                             static_cast<double>(open_batches)
                       : 0.0;
  const long hits = engine->topology_cache().hits();
  const long misses = engine->topology_cache().misses();
  result.topo_hit_ratio = hits + misses > 0
                              ? static_cast<double>(hits) /
                                    static_cast<double>(hits + misses)
                              : 0.0;

  result.open_requests = static_cast<long>(n);
  double u_sum = 0.0;
  long u_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ++result.attempted;
    const bool shed = !ledger.done(i);
    const Served& served = ledger.served(i);
    if (shed) {
      ++result.shed;
    } else if (served.rung != serve::Rung::kGnnPolicy) {
      ++result.degraded;
    }
    if (serve_failed(shed, served.rung)) ++result.failed;
    if (shed) continue;
    const double service = served.latency_s * 1e6;
    result.service_us.push_back(service);
    result.queue_wait_us.push_back(result.latency_us[i] - service);
    u_sum += served.u_max;
    ++u_count;
  }
  result.u_max_mean = u_count > 0 ? u_sum / static_cast<double>(u_count) : 0.0;

  // Output checks.  Served routings satisfy the full §IV-A contract.
  for (auto& [i, future] : kept) {
    const serve::ServeOutcome outcome = future.get();
    if (outcome.shed) continue;
    std::string error;
    if (!routing::validate(scenario.graph, outcome.decision.routing,
                           stream.make(i).demand, &error)) {
      result.errors.push_back("served routing " + std::to_string(i) +
                              " is invalid: " + error);
    }
    ++result.validated;
  }
  // Each request carries its own history, so a serial router must
  // reproduce every engine decision bit for bit.
  serve::RobustRouter router(plan.policy, config.router);
  for (const std::size_t i : spread_indices(n, plan.replay_samples)) {
    if (!ledger.done(i)) continue;
    const serve::RouteDecision d = router.decide(stream.make(i));
    const Served& served = ledger.served(i);
    if (d.rung != served.rung || d.sim.u_max != served.u_max ||
        d.routed_demand != served.routed_demand) {
      result.errors.push_back("engine decision " + std::to_string(i) +
                              " differs from the serial replay");
    }
    ++result.replayed;
  }
  if (plan.traced) {
    result.stages = trace_stages(plan, stream, n, router, result);
  }
  return result;
}

}  // namespace gddr::perfbench
