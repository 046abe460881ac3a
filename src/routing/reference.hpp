// Per-(source, destination) reference routing, for ablations and tests.
//
// The production Routing (routing.hpp) is destination-based.  A few
// ablation-only constructions need ratios that depend on the source too:
// the paper's Figure-3 frontier-meet pruning and the distance-from-source
// mode (prune.hpp), and the uniform k-shortest multipath baseline.  They
// live here, together with the per-pair simulate / validate /
// validate_for_serving that the destination-based versions must agree
// with, so differential tests can diff every production builder and
// checker against the per-pair definition.  Everything here is
// deliberately plain — |V|^2 x |E| storage, one Kahn sort per flow — and
// lives in its own library, gddr_routing_reference, which no production
// library links.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "routing/prune.hpp"
#include "routing/routing.hpp"
#include "routing/softmin.hpp"
#include "traffic/demand.hpp"

namespace gddr::routing::reference {

// R_{v,(s,t)}: for every flow (s,t) and edge e, the fraction of the flow's
// traffic at e's tail forwarded along e.
class PairRouting {
 public:
  PairRouting() = default;
  // Creates an all-zero routing for `num_nodes` nodes and `num_edges` edges.
  PairRouting(int num_nodes, int num_edges);

  int num_nodes() const { return n_; }
  int num_edges() const { return ne_; }

  double ratio(int s, int t, graph::EdgeId e) const {
    return ratios_[index(s, t) + static_cast<std::size_t>(e)];
  }
  // Same range check and clamping as Routing::set_ratio.
  void set_ratio(int s, int t, graph::EdgeId e, double value);

  // All per-edge ratios of flow (s,t).
  std::span<const double> flow_ratios(int s, int t) const {
    return {ratios_.data() + index(s, t), static_cast<std::size_t>(ne_)};
  }
  // Writable ratios of flow (s,t), stored unchecked.
  std::span<double> mutable_flow_ratios(int s, int t) {
    return {ratios_.data() + index(s, t), static_cast<std::size_t>(ne_)};
  }

 private:
  std::size_t index(int s, int t) const {
    return (static_cast<std::size_t>(s) * static_cast<std::size_t>(n_) +
            static_cast<std::size_t>(t)) *
           static_cast<std::size_t>(ne_);
  }

  int n_ = 0;
  int ne_ = 0;
  std::vector<double> ratios_;
};

// Gives every source s != t the ratios of row t of `routing`, copied
// verbatim (corrupt values included).
PairRouting broadcast(const Routing& routing);

// Per-flow propagation: one Kahn sort and sweep per (s,t) with demand.
// Same contract as routing::simulate (strict loop and conservation
// checks, std::runtime_error).
SimulationResult simulate(const graph::DiGraph& g, const PairRouting& routing,
                          const traffic::DemandMatrix& dm,
                          const SimulateOptions& options);
SimulationResult simulate(const graph::DiGraph& g, const PairRouting& routing,
                          const traffic::DemandMatrix& dm);

// Per-flow §IV-A check for every flow with demand; same contract as
// routing::validate.
bool validate(const graph::DiGraph& g, const PairRouting& routing,
              const traffic::DemandMatrix& dm, std::string* error);

// Per-flow serving check (ratio range / NaN, absorption) for every flow
// with demand; same contract as routing::validate_for_serving.
bool validate_for_serving(const graph::DiGraph& g, const PairRouting& routing,
                          const traffic::DemandMatrix& dm,
                          std::string* error);

// Per-pair softmin translation: prunes a DAG for every (s,t) flow under
// `mode` and derives that pair's ratios on it, skipping pairs where t is
// unreachable from s.  Under PruneMode::kDistanceToSink it matches
// routing::softmin_routing at every traffic-carrying vertex.
PairRouting softmin_routing_generic(const graph::DiGraph& g,
                                    const std::vector<double>& weights,
                                    const SoftminOptions& options,
                                    PruneMode mode);

// Uniform split over the k shortest loopless paths of each flow (an
// oblivious-flavoured multipath baseline).
PairRouting uniform_multipath_routing(const graph::DiGraph& g,
                                      const std::vector<double>& weights,
                                      int k);

}  // namespace gddr::routing::reference
