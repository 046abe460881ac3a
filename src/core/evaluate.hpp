// Evaluation harness: the quantity plotted by the paper's Figures 6 and 8
// is the mean over test demand matrices of U_max_agent / U_max_optimal
// (lower is better, 1.0 is the LP optimum).
//
// Every entry point accepts an optional util::ThreadPool.  Work is farmed
// out per test *unit* (one (scenario, test sequence) pair); each worker
// drives its own environment copy (sharing the memoised LP cache) and the
// per-unit ratio streams are folded into the summary statistics in
// canonical unit order — so the returned EvalResult is bit-identical to
// the serial sweep for any worker count.
#pragma once

#include <functional>

#include "core/iterative_env.hpp"
#include "core/routing_env.hpp"
#include "rl/ppo.hpp"
#include "util/thread_pool.hpp"

namespace gddr::core {

struct EvalResult {
  double mean_ratio = 0.0;
  double stddev = 0.0;
  double min_ratio = 0.0;
  double max_ratio = 0.0;
  int steps = 0;     // demand matrices evaluated
  int episodes = 0;  // test episodes evaluated
};

// Runs the trainer's deterministic policy over every test sequence of
// every scenario in the environment, a RoutingEnv or an
// IterativeRoutingEnv.  The env itself is left untouched: workers
// evaluate copies switched to test mode.
template <class Env>
EvalResult evaluate_policy(rl::PpoTrainer& trainer, Env& env,
                           util::ThreadPool* pool = nullptr);

// Evaluates a fixed (non-learned) routing scheme on the test sequences of
// `scenarios`.  `make_routing` builds the scheme per topology and must be
// pure (it is invoked concurrently under a pool); the same demand-matrix
// indices as the RL episodes ([memory, length)) are scored so results are
// directly comparable.
EvalResult evaluate_fixed(
    const std::vector<Scenario>& scenarios, int memory,
    mcf::OptimalCache& cache,
    const std::function<routing::Routing(const graph::DiGraph&)>&
        make_routing,
    util::ThreadPool* pool = nullptr);

// The same evaluation for a scheme that is not a destination-based
// Routing (e.g. a per-pair reference routing in an ablation): per topology,
// `make_scheme` returns the scheme's U_max for any demand matrix.  Must be
// pure, like `make_routing`.
using UmaxOracle = std::function<double(const traffic::DemandMatrix&)>;
EvalResult evaluate_fixed_u_max(
    const std::vector<Scenario>& scenarios, int memory,
    mcf::OptimalCache& cache,
    const std::function<UmaxOracle(const graph::DiGraph&)>& make_scheme,
    util::ThreadPool* pool = nullptr);

// Hop-count shortest-path routing (the paper's dotted baseline).
EvalResult evaluate_shortest_path(const std::vector<Scenario>& scenarios,
                                  int memory, mcf::OptimalCache& cache,
                                  util::ThreadPool* pool = nullptr);

}  // namespace gddr::core
