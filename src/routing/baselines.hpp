// Classical routing baselines (paper §VIII-A uses shortest-path routing as
// the non-learned comparison; ECMP and the LP-derived optimal routing round
// out the study in bench_routing_quality).  All of them are
// destination-based; the per-pair uniform k-shortest multipath baseline
// lives in routing/reference.hpp.
#pragma once

#include <vector>

#include "graph/digraph.hpp"
#include "mcf/optimal.hpp"
#include "routing/routing.hpp"

namespace gddr::routing {

// Single shortest path per flow under the given edge weights (ties broken
// by Dijkstra settle order), destination-based.
Routing shortest_path_routing(const graph::DiGraph& g,
                              const std::vector<double>& weights);

// Hop-count shortest path (the paper's baseline).
Routing shortest_path_routing(const graph::DiGraph& g);

// Equal-cost multipath: traffic split evenly over every outgoing edge that
// lies on some shortest path toward the destination.
Routing ecmp_routing(const graph::DiGraph& g,
                     const std::vector<double>& weights);

// Converts the optimal LP solution's per-destination edge flows into a
// destination-based routing (after cancelling any flow cycles).  Simulating
// this routing reproduces the LP's U_max — used to validate the simulator
// against the solver.
Routing routing_from_dest_flows(
    const graph::DiGraph& g,
    const std::vector<std::vector<double>>& flow_by_dest);

// Per-edge weights 1 / capacity: the classic capacity-aware static weight
// setting.  Feeding them to softmin_routing gives a demand-oblivious
// multipath routing that prefers fat links — the serving ladder's rung-3
// fallback when no learned signal is trustworthy.
std::vector<double> inverse_capacity_weights(const graph::DiGraph& g);

// The routing minimising *mean* link utilisation: all-or-nothing shortest
// paths under inverse-capacity edge weights (exact for that objective —
// see mcf/mean_util.hpp).
Routing min_mean_utilisation_routing(const graph::DiGraph& g);

// Mean link utilisation of a simulation result (sum of per-link
// utilisation over |E|).
double mean_utilisation(const graph::DiGraph& g,
                        const SimulationResult& sim);

// A strong data-driven-but-static baseline: the routing that is *optimal
// for the element-wise mean of the historical demand matrices* (found
// with the MCF LP, then fixed).  This is what an operator could deploy
// from traffic logs without any learning; the GDDR agents' advantage over
// it quantifies the value of conditioning on the current demand history.
Routing mean_demand_optimal_routing(const graph::DiGraph& g,
                                    const traffic::DemandSequence& history);

// Removes circulation from a single-destination flow vector: repeatedly
// finds a directed cycle within the positive-flow subgraph and subtracts
// the bottleneck.  Preserves net flow at every node and never increases
// any edge flow.
std::vector<double> cancel_flow_cycles(const graph::DiGraph& g,
                                       std::vector<double> flow);

}  // namespace gddr::routing
