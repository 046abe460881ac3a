// The serving path: requests through serve::Engine, checked against a
// serial serve::RobustRouter replay, plus the traced per-stage replay.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/policies.hpp"
#include "core/scenario.hpp"
#include "open_loop.hpp"
#include "serve/engine.hpp"

namespace gddr::perfbench {

// Serving alternates this many closed-loop phases with as many slices of
// the open-loop schedule, so that both sample the whole run.
inline constexpr int kServeRounds = 8;

// What the engine's decision observer saw for one open-loop request.
struct Served {
  serve::Rung rung = serve::Rung::kDropTraffic;
  double u_max = 0.0;
  double routed_demand = 0.0;
  double latency_s = 0.0;
};

// Open-loop bookkeeping: matches the engine's decisions to schedule slots
// by the address of each request's demand buffer, which is unique among
// the requests in flight.  A shed request never reaches the observer, and
// its buffer is freed with it, so a later request may reuse the address:
// end_round() forgets every registration once the round has drained.
class OpenLoopLedger {
 public:
  explicit OpenLoopLedger(std::size_t slots) : completions_(slots),
                                               served_(slots) {}
  // Registers `request` as slot `i`, before it is submitted.
  void expect(const serve::RouteRequest& request, std::size_t i);
  // Engine decision observer: records the decision of a registered
  // request; ignores every other (closed-loop) request.
  void observe(const serve::RouteRequest& request,
               const serve::DecisionRecord& record);
  // Call once every registered request has resolved or been shed.
  void end_round();

  const CompletionLog& completions() const { return completions_; }
  bool done(std::size_t i) const { return completions_.done(i); }
  const Served& served(std::size_t i) const { return served_[i]; }

 private:
  std::mutex mu_;
  std::unordered_map<const double*, std::size_t> slots_;
  CompletionLog completions_;
  std::vector<Served> served_;
};

struct ServePlan {
  const core::Scenario* scenario = nullptr;  // graph, traffic, feature scales
  core::GnnPolicy* policy = nullptr;
  int workers = 0;
  double closed_seconds = 0.0;
  double open_seconds = 0.0;
  double open_rate = 0.0;
  std::uint64_t schedule_seed = 0;
  // Requests replayed serially: checked bit for bit against the engine,
  // and in a traced run timed stage by stage.
  int replay_samples = 0;
  int max_batch = 0;
  bool traced = false;
  // Runs between round r and round r + 1 (argument: r), after a spare
  // engine's set-up has been timed and while the engine's workers idle; a
  // workload interleaves its training iterations here, so that the serving
  // rounds are spread over the whole run.
  std::function<void(int)> between_rounds;
};

// Medians over the traced replay, in microseconds unless named otherwise.
struct StageTimes {
  double decide_us = 0.0;         // RobustRouter::decide, tracing off
  double decide_traced_us = 0.0;  // the same call with obs::Registry on
  double acquire_us = 0.0;        // TopologyCache::acquire, a cache hit
  double sanitize_us = 0.0;
  double observation_us = 0.0;
  double forward_us = 0.0;
  double softmin_us = 0.0;  // weights_from_actions + softmin_routing
  double validate_us = 0.0;
  double simulate_us = 0.0;
  double unattributed_us = 0.0;  // decide - sum of the stages above
  double cache_miss_ms = 0.0;    // cold TopologyCache::acquire
};

struct ServeResult {
  std::vector<double> setup_s;  // one per set-up sample
  std::vector<double> closed_rates;  // decisions/s of each closed-loop phase
  long attempted = 0;            // closed + open requests
  long failed = 0;               // shed or served below rung 1
  long open_requests = 0;
  long shed = 0;
  long degraded = 0;
  std::vector<double> latency_us;     // open loop, due -> future resolved
  std::vector<double> round_p50_us;   // latency p50 of each open-loop round
  std::vector<double> service_us;     // RouteDecision::latency_s
  std::vector<double> queue_wait_us;  // latency - service
  std::vector<double> lag_us;         // generator lateness
  double u_max_mean = 0.0;
  double batch_size_mean = 0.0;
  double topo_hit_ratio = 0.0;
  long replayed = 0;
  long validated = 0;
  StageTimes stages;
  std::vector<std::string> errors;  // failed output checks
};

serve::EngineConfig engine_config(const core::Scenario& scenario, int workers,
                                  int max_batch);

ServeResult run_serving(const ServePlan& plan);

}  // namespace gddr::perfbench
