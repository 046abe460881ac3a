// Ablation: DAG-pruning algorithm for the softmin translation (paper
// Figure 3 vs the distance-monotone alternatives; DESIGN.md §4).
//
// Reports, per mode: how many edges the per-flow DAG retains (multipath
// headroom) and the resulting U_max ratio for neutral and random weights.
// This is the experiment behind the repository's choice of the downhill
// (kDistanceToSink) DAG as softmin_routing's only mode: every mode here
// runs through the per-pair reference translation (routing/reference.hpp),
// whose downhill mode equals the production translation.
#include <cstdio>
#include <memory>

#include "core/evaluate.hpp"
#include "core/experiment.hpp"
#include "graph/algorithms.hpp"
#include "routing/prune.hpp"
#include "routing/reference.hpp"
#include "topo/zoo.hpp"
#include "util/table.hpp"

namespace {

using namespace gddr;

const char* mode_name(routing::PruneMode mode) {
  switch (mode) {
    case routing::PruneMode::kFrontierMeet:
      return "frontier-meet (paper Fig. 3)";
    case routing::PruneMode::kDistanceToSink:
      return "downhill / dist-to-sink";
    case routing::PruneMode::kDistanceFromSource:
      return "dist-from-source";
  }
  return "?";
}

}  // namespace

int main() {
  using namespace gddr::core;
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  std::printf("=== Ablation: per-flow DAG pruning mode ===\n");

  const auto g = topo::abilene();
  ScenarioParams params = experiment_scenario_params();
  params.train_sequences = 1;
  params.test_sequences = 1;
  util::Rng rng(3);
  const Scenario scenario = make_scenario(topo::abilene(), params, rng);
  const int memory = 5;

  util::Table table({"prune mode", "mean DAG edges/flow (unit w)",
                     "mean DAG edges/flow (random w)", "neutral ratio",
                     "random-w ratio"});
  for (const auto mode : {routing::PruneMode::kFrontierMeet,
                          routing::PruneMode::kDistanceToSink,
                          routing::PruneMode::kDistanceFromSource}) {
    // DAG sizes over all flows.
    auto mean_edges = [&](const std::vector<double>& weights) {
      long total = 0;
      long flows = 0;
      for (graph::NodeId s = 0; s < g.num_nodes(); ++s) {
        for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
          if (s == t) continue;
          const auto mask = routing::prune_dag(g, s, t, weights, mode);
          for (const bool kept : mask) total += kept ? 1 : 0;
          ++flows;
        }
      }
      return static_cast<double>(total) / static_cast<double>(flows);
    };
    const auto unit = graph::unit_weights(g);
    util::Rng wrng(17);
    std::vector<double> random_w(static_cast<size_t>(g.num_edges()));
    for (auto& w : random_w) w = wrng.uniform(0.5, 3.0);

    // U_max oracle of the per-pair translation under `mode`.
    auto scheme = [&](const graph::DiGraph& gr,
                      const std::vector<double>& w) -> UmaxOracle {
      auto r = std::make_shared<const routing::reference::PairRouting>(
          routing::reference::softmin_routing_generic(
              gr, w, routing::SoftminOptions{}, mode));
      return [&gr, r](const traffic::DemandMatrix& dm) {
        return routing::reference::simulate(gr, *r, dm).u_max;
      };
    };
    mcf::OptimalCache cache;
    const auto neutral = evaluate_fixed_u_max(
        {scenario}, memory, cache, [&](const graph::DiGraph& gr) {
          return scheme(
              gr, std::vector<double>(static_cast<size_t>(gr.num_edges()), 1.0));
        });
    const auto random_eval = evaluate_fixed_u_max(
        {scenario}, memory, cache,
        [&](const graph::DiGraph& gr) { return scheme(gr, random_w); });

    table.add_row({mode_name(mode), util::fmt(mean_edges(unit), 2),
                   util::fmt(mean_edges(random_w), 2),
                   util::fmt(neutral.mean_ratio),
                   util::fmt(random_eval.mean_ratio)});
  }
  table.print();
  std::printf("\nreading: the paper's frontier-meet algorithm collapses to "
              "near-trees when weights tie (few DAG edges -> no multipath "
              "for softmin to spread over), while the downhill DAG retains "
              "every progress-making edge; all modes remain loop-free.\n");
  return 0;
}
