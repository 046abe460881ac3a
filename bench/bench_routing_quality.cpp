// Table: quality of classical routing schemes relative to the
// multicommodity-flow optimum (the paper's §II/§VI framing: LP optimal <=
// learned softmin <= oblivious/multipath <= shortest path, with exact
// ordering depending on the topology).
//
// For each catalogue topology we generate the experiment traffic model and
// report the mean U_max ratio of each non-learned scheme, plus the
// FPTAS's estimate of the optimum as a solver cross-check (its ratio
// column should sit within its 1/(1-3eps) guarantee of 1.0).  Exits 1 if
// a scheme beats the LP optimum (ratio < 1, so the LP was not optimal) or
// the FPTAS/LP ratio leaves that guarantee.
#include <cstdio>
#include <limits>
#include <memory>

#include "core/evaluate.hpp"
#include "core/experiment.hpp"
#include "graph/algorithms.hpp"
#include "mcf/fptas.hpp"
#include "routing/baselines.hpp"
#include "routing/reference.hpp"
#include "routing/softmin.hpp"
#include "topo/zoo.hpp"
#include "obs/sink.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace gddr;
  using namespace gddr::core;
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  const int workers = util::consume_workers_flag(argc, argv);
  const obs::MetricsOptions metrics = obs::consume_metrics_flag(argc, argv);
  obs::apply(metrics);
  util::ThreadPool pool(workers);
  std::printf("=== Routing-scheme quality vs the MCF optimum ===\n");
  std::printf("mean U_max ratio over test DMs (1.0 = LP optimum; lower "
              "is better); %d worker(s)\n\n",
              workers);

  ScenarioParams params = experiment_scenario_params();
  params.test_sequences = 1;  // one test sequence per topology is plenty
  params.train_sequences = 1;

  util::Table table({"topology", "|V|", "|E|", "shortest-path", "ECMP",
                     "softmin(neutral)", "k=3 multipath", "mean-DM optimal",
                     "FPTAS/LP"});

  constexpr double kEpsilon = 0.05;
  constexpr double kSlack = 1e-9;
  const double fptas_bound = 1.0 / (1.0 - 3 * kEpsilon);
  int violations = 0;
  const auto expect_in = [&](const char* topology, const char* column,
                             double value, double lo, double hi) {
    if (value >= lo && value <= hi) return;
    std::fprintf(stderr, "FAIL: %s %s = %.12g outside [%.12g, %.12g]\n",
                 topology, column, value, lo, hi);
    ++violations;
  };

  util::Rng rng(7);
  for (const auto& name :
       {"Abilene", "Nsfnet", "SmallRing", "JanetLike", "RenaterLike",
        "MetroLike"}) {
    const Scenario scenario = make_scenario(topo::by_name(name), params, rng);
    const auto& g = scenario.graph;
    mcf::OptimalCache cache;
    const int memory = 5;

    const auto sp = evaluate_shortest_path({scenario}, memory, cache, &pool);
    const auto ecmp = evaluate_fixed(
        {scenario}, memory, cache,
        [](const graph::DiGraph& gr) {
          return routing::ecmp_routing(gr, graph::unit_weights(gr));
        },
        &pool);
    const auto neutral = evaluate_fixed(
        {scenario}, memory, cache,
        [](const graph::DiGraph& gr) {
          const std::vector<double> w(
              static_cast<size_t>(gr.num_edges()), 1.0);
          return routing::softmin_routing(gr, w);
        },
        &pool);
    // k-shortest multipath splits per (source, destination), so it is
    // scored through the per-pair reference routing.
    const auto multipath = evaluate_fixed_u_max(
        {scenario}, memory, cache,
        [](const graph::DiGraph& gr) -> UmaxOracle {
          auto r = std::make_shared<const routing::reference::PairRouting>(
              routing::reference::uniform_multipath_routing(
                  gr, graph::unit_weights(gr), 3));
          return [&gr, r](const traffic::DemandMatrix& dm) {
            return routing::reference::simulate(gr, *r, dm).u_max;
          };
        },
        &pool);
    // Static data-driven baseline: optimal for the mean of the training
    // sequence, then fixed.
    const auto mean_dm = evaluate_fixed(
        {scenario}, memory, cache,
        [&](const graph::DiGraph& gr) {
          return routing::mean_demand_optimal_routing(
              gr, scenario.train_sequences[0]);
        },
        &pool);

    // FPTAS cross-check on the first test DM.
    const auto& dm = scenario.test_sequences[0][5];
    const double lp_opt = cache.u_max(g, dm);
    mcf::FptasOptions fopt;
    fopt.epsilon = kEpsilon;
    const double fptas = mcf::approx_optimal_u_max(g, dm, fopt);
    const double fptas_ratio = lp_opt > 0 ? fptas / lp_opt : 0.0;

    const double inf = std::numeric_limits<double>::infinity();
    expect_in(name, "shortest-path", sp.mean_ratio, 1.0 - kSlack, inf);
    expect_in(name, "ECMP", ecmp.mean_ratio, 1.0 - kSlack, inf);
    expect_in(name, "softmin(neutral)", neutral.mean_ratio, 1.0 - kSlack,
              inf);
    expect_in(name, "k=3 multipath", multipath.mean_ratio, 1.0 - kSlack,
              inf);
    expect_in(name, "mean-DM optimal", mean_dm.mean_ratio, 1.0 - kSlack,
              inf);
    expect_in(name, "FPTAS/LP", fptas_ratio, 1.0 - kSlack,
              fptas_bound + kSlack);

    table.add_row({name, std::to_string(g.num_nodes()),
                   std::to_string(g.num_edges()), util::fmt(sp.mean_ratio),
                   util::fmt(ecmp.mean_ratio), util::fmt(neutral.mean_ratio),
                   util::fmt(multipath.mean_ratio),
                   util::fmt(mean_dm.mean_ratio),
                   util::fmt(fptas_ratio)});
  }
  table.print();
  std::printf("\nexpectations: every scheme >= 1.0; neutral softmin "
              "(multipath spreading) at or below single shortest-path on "
              "most topologies; FPTAS/LP within [1.0, %.3f].\n",
              fptas_bound);
  const std::string metrics_summary = obs::finish(metrics);
  if (!metrics_summary.empty()) std::printf("%s\n", metrics_summary.c_str());
  if (violations > 0) {
    std::fprintf(stderr, "%d expectation(s) violated\n", violations);
    return 1;
  }
  return 0;
}
