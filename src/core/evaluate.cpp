#include "core/evaluate.hpp"

#include <algorithm>
#include <memory>

#include "routing/baselines.hpp"
#include "util/stats.hpp"

namespace gddr::core {

namespace {

EvalResult finish(const util::RunningStat& stat, int episodes) {
  EvalResult r;
  r.mean_ratio = stat.mean();
  r.stddev = stat.stddev();
  r.min_ratio = stat.min();
  r.max_ratio = stat.max();
  r.steps = static_cast<int>(stat.count());
  r.episodes = episodes;
  return r;
}

// Folds per-unit ratio streams into the summary in canonical unit order,
// so the aggregate floating-point accumulation matches the serial sweep
// exactly, independent of which worker produced which unit.
EvalResult merge_units(const std::vector<std::vector<double>>& unit_ratios,
                       int episodes) {
  util::RunningStat stat;
  for (const auto& ratios : unit_ratios) {
    for (const double r : ratios) stat.add(r);
  }
  return finish(stat, episodes);
}

template <typename EnvT>
EvalResult evaluate_policy_impl(rl::PpoTrainer& trainer, EnvT& env,
                                util::ThreadPool* pool) {
  // Workers evaluate on copies: the caller may be mid-rollout on `env`,
  // and driving episodes through the trainer's live environment would
  // desynchronise the trainer's cached observation from the env state.
  // Copies share the optimal-utilisation cache (shared_ptr, internally
  // locked), so no LP work is repeated across workers.
  const std::size_t units = env.num_test_units();
  const std::size_t workers =
      pool != nullptr && pool->size() > 1
          ? std::min<std::size_t>(static_cast<std::size_t>(pool->size()),
                                  units)
          : 1;

  std::vector<std::vector<double>> unit_ratios(units);
  std::vector<int> unit_episodes(units, 0);
  // One env copy per worker, striding over units.  Test-mode resets are
  // deterministic (no RNG), so each unit's trajectory depends only on the
  // unit index and the policy — not on the worker that ran it.
  util::parallel_for(pool, workers, [&](std::size_t w) {
    EnvT eval_env = env;
    eval_env.set_mode(EnvT::Mode::kTest);
    for (std::size_t unit = w; unit < units; unit += workers) {
      eval_env.seek_test_unit(unit);
      const int episodes = eval_env.episodes_in_unit(unit);
      std::vector<double>& ratios = unit_ratios[unit];
      for (int ep = 0; ep < episodes; ++ep) {
        rl::Observation obs = eval_env.reset();
        for (;;) {
          const std::vector<double> action = trainer.act_deterministic(obs);
          auto result = eval_env.step(action);
          if (result.reward != 0.0) ratios.push_back(-result.reward);
          if (result.done) break;
          obs = std::move(result.obs);
        }
      }
      unit_episodes[unit] = episodes;
    }
  });

  int episodes = 0;
  for (const int e : unit_episodes) episodes += e;
  return merge_units(unit_ratios, episodes);
}

}  // namespace

EvalResult evaluate_policy(rl::PpoTrainer& trainer, RoutingEnv& env,
                           util::ThreadPool* pool) {
  return evaluate_policy_impl(trainer, env, pool);
}

EvalResult evaluate_policy(rl::PpoTrainer& trainer, IterativeRoutingEnv& env,
                           util::ThreadPool* pool) {
  return evaluate_policy_impl(trainer, env, pool);
}

EvalResult evaluate_fixed(
    const std::vector<Scenario>& scenarios, int memory,
    mcf::OptimalCache& cache,
    const std::function<routing::Routing(const graph::DiGraph&)>&
        make_routing,
    util::ThreadPool* pool) {
  return evaluate_fixed_u_max(
      scenarios, memory, cache,
      [&](const graph::DiGraph& g) -> UmaxOracle {
        auto strategy = std::make_shared<const routing::Routing>(
            make_routing(g));
        return [&g, strategy](const traffic::DemandMatrix& dm) {
          return routing::simulate(g, *strategy, dm).u_max;
        };
      },
      pool);
}

EvalResult evaluate_fixed_u_max(
    const std::vector<Scenario>& scenarios, int memory,
    mcf::OptimalCache& cache,
    const std::function<UmaxOracle(const graph::DiGraph&)>& make_scheme,
    util::ThreadPool* pool) {
  // Flatten to (scenario, test sequence) units; each unit is scored
  // independently (make_scheme is pure, the cache is internally locked).
  struct Unit {
    const Scenario* scenario;
    const traffic::DemandSequence* seq;
  };
  std::vector<Unit> units;
  for (const auto& scenario : scenarios) {
    for (const auto& seq : scenario.test_sequences) {
      units.push_back({&scenario, &seq});
    }
  }

  const auto unit_ratios = util::parallel_map(
      pool, units.size(), [&](std::size_t u) {
        const Unit& unit = units[u];
        const UmaxOracle u_max = make_scheme(unit.scenario->graph);
        std::vector<double> ratios;
        for (std::size_t t = static_cast<std::size_t>(memory);
             t < unit.seq->size(); ++t) {
          const double achieved = u_max((*unit.seq)[t]);
          const double u_opt =
              cache.u_max(unit.scenario->graph, (*unit.seq)[t]);
          ratios.push_back(u_opt > 0.0 ? achieved / u_opt : 1.0);
        }
        return ratios;
      });
  return merge_units(unit_ratios, static_cast<int>(units.size()));
}

EvalResult evaluate_shortest_path(const std::vector<Scenario>& scenarios,
                                  int memory, mcf::OptimalCache& cache,
                                  util::ThreadPool* pool) {
  return evaluate_fixed(
      scenarios, memory, cache,
      [](const graph::DiGraph& g) {
        return routing::shortest_path_routing(g);
      },
      pool);
}

}  // namespace gddr::core
