#include "core/scenario.hpp"

#include <algorithm>
#include <utility>

#include "topo/mutate.hpp"
#include "topo/zoo.hpp"

namespace gddr::core {

using traffic::DemandSequence;

SharedSequences::SharedSequences(std::vector<DemandSequence> sequences) {
  if (!sequences.empty()) {
    data_ = std::make_shared<const std::vector<DemandSequence>>(
        std::move(sequences));
  }
}

Scenario make_scenario(graph::DiGraph g, const ScenarioParams& params,
                       util::Rng& rng) {
  Scenario scenario;
  const int n = g.num_nodes();
  scenario.graph = std::move(g);
  double peak_total = 0.0;
  auto generate = [&](int count) {
    std::vector<DemandSequence> out;
    for (int i = 0; i < count; ++i) {
      DemandSequence seq = traffic::cyclical_bimodal_sequence(
          n, params.sequence_length, params.cycle_length, params.demand, rng);
      for (const auto& dm : seq) peak_total = std::max(peak_total, dm.total());
      out.push_back(std::move(seq));
    }
    return SharedSequences(std::move(out));
  };
  scenario.train_sequences = generate(params.train_sequences);
  scenario.test_sequences = generate(params.test_sequences);
  if (peak_total > 0.0 && n > 0) {
    // Per-node demand sums are ~ total/n; flattened entries ~ total/n^2.
    scenario.node_feature_scale = peak_total / n;
    scenario.flat_feature_scale = peak_total / (n * n);
  }
  return scenario;
}

Scenario make_abilene_scenario(util::Rng& rng, ScenarioParams params) {
  return make_scenario(topo::abilene(), params, rng);
}

std::vector<Scenario> make_size_band_scenarios(util::Rng& rng,
                                               ScenarioParams params,
                                               int min_nodes, int max_nodes) {
  std::vector<Scenario> scenarios;
  for (auto& g : topo::catalogue_in_size_band(min_nodes, max_nodes)) {
    scenarios.push_back(make_scenario(std::move(g), params, rng));
  }
  return scenarios;
}

std::vector<Scenario> make_mutated_abilene_scenarios(int count,
                                                     util::Rng& rng,
                                                     ScenarioParams params) {
  std::vector<Scenario> scenarios;
  const graph::DiGraph base = topo::abilene();
  for (int i = 0; i < count; ++i) {
    const int mutations = 1 + static_cast<int>(rng.uniform_index(2));
    graph::DiGraph mutated = topo::mutate(base, mutations, rng);
    scenarios.push_back(make_scenario(std::move(mutated), params, rng));
  }
  return scenarios;
}

}  // namespace gddr::core
