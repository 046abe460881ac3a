// Experiment scenarios: a topology plus train/test demand sequences.
//
// The paper's main setup (§VIII-D): the Abilene graph, cyclical bimodal
// sequences of 60 demand matrices with cycle length 10, memory length 5,
// 7 training sequences and 3 test sequences.  The generalisation setup
// (Figure 8) trains over a mixture of topologies — either catalogue graphs
// between half and double Abilene's size, or Abilene with 1-2 random
// mutations.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "graph/digraph.hpp"
#include "traffic/demand.hpp"
#include "traffic/generators.hpp"
#include "util/rng.hpp"

namespace gddr::core {

// An immutable list of demand sequences, shared by every copy.  Copying a
// Scenario into each vectorised env, and each env into an evaluation
// worker, copies a pointer, not the traffic: one Nsfnet training scenario
// holds ~19 MB of demand matrices.  Read access only; an empty list
// allocates nothing.
class SharedSequences {
 public:
  using const_iterator = const traffic::DemandSequence*;

  SharedSequences() = default;
  explicit SharedSequences(std::vector<traffic::DemandSequence> sequences);

  std::size_t size() const { return data_ ? data_->size() : 0; }
  bool empty() const { return size() == 0; }
  const traffic::DemandSequence& operator[](std::size_t i) const {
    return (*data_)[i];
  }
  const traffic::DemandSequence& front() const { return data_->front(); }
  const_iterator begin() const { return data_ ? data_->data() : nullptr; }
  const_iterator end() const { return begin() + size(); }

 private:
  std::shared_ptr<const std::vector<traffic::DemandSequence>> data_;
};

struct Scenario {
  graph::DiGraph graph;
  SharedSequences train_sequences;
  SharedSequences test_sequences;
  // Normalisation divisor for per-node demand-sum observation features
  // (paper §V-B: inputs are normalised); derived by make_* helpers.
  double node_feature_scale = 1.0;
  // Normalisation divisor for flattened demand-matrix entries (MLP obs).
  double flat_feature_scale = 1.0;
};

struct ScenarioParams {
  int sequence_length = 60;  // DMs per sequence (paper: 60)
  int cycle_length = 10;     // base cycle (paper: q = 10)
  int train_sequences = 7;   // (paper: 7)
  int test_sequences = 3;    // (paper: 3)
  traffic::BimodalParams demand;
};

// Builds a scenario for one graph with bimodal cyclical traffic.
Scenario make_scenario(graph::DiGraph g, const ScenarioParams& params,
                       util::Rng& rng);

// The paper's fixed-graph experiment: Abilene with default parameters.
Scenario make_abilene_scenario(util::Rng& rng, ScenarioParams params = {});

// Figure-8 "different graphs": every catalogue topology whose node count
// lies within [min_nodes, max_nodes] (defaults: half to double Abilene).
std::vector<Scenario> make_size_band_scenarios(util::Rng& rng,
                                               ScenarioParams params = {},
                                               int min_nodes = 6,
                                               int max_nodes = 22);

// Figure-8 "similar graphs": `count` copies of Abilene, each mutated by
// 1-2 random node/edge additions/removals.
std::vector<Scenario> make_mutated_abilene_scenarios(
    int count, util::Rng& rng, ScenarioParams params = {});

}  // namespace gddr::core
