// Softmin routing translation (paper §VI, Figure 2, Equation 3).
//
// Converts a vector of learned edge weights into a full routing strategy:
// for each destination t the graph is pruned to the downhill DAG (keep
// edge (u,v) iff dist(u->t) > dist(v->t)), and the splitting ratio of each
// out-edge is softmin(edge weight + neighbour's distance to t) — so
// shorter detours receive exponentially more traffic, controlled by the
// spread parameter gamma.  The downhill DAG depends only on t, so every
// source bound for t shares the same ratios and the translation writes
// one row of the destination-based Routing per destination.  The paper's
// per-flow Figure-3 pruning and the other ablation modes live in
// routing/reference.hpp.
#pragma once

#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "routing/routing.hpp"

namespace gddr::routing {

// softmin(x)_i = exp(-gamma x_i) / sum_j exp(-gamma x_j)   (paper Eq. 3).
// Numerically stabilised; requires a non-empty input and gamma > 0.
std::vector<double> softmin(std::span<const double> x, double gamma);

struct SoftminOptions {
  // Spread parameter: larger gamma concentrates traffic on the shortest
  // paths; smaller gamma spreads it.  Paper leaves the value learned or
  // tuned; 2.0 is a robust default (see bench_gamma_ablation).
  double gamma = 2.0;
  // Splitting ratios below this are zeroed and the remainder renormalised;
  // keeps per-destination DAGs sparse without measurably changing U_max.
  double ratio_floor = 1e-6;
};

// Derives a complete routing for every destination from per-edge weights
// (size num_edges, all > 0).  The result is loop-free per destination and
// satisfies the §IV-A constraints for any demand matrix between connected
// pairs.
Routing softmin_routing(const graph::DiGraph& g,
                        const std::vector<double>& weights,
                        const SoftminOptions& options);
Routing softmin_routing(const graph::DiGraph& g,
                        const std::vector<double>& weights);

// Derives a routing from *per-destination* edge weights — the paper's
// §V-C intermediate action space of size |V| x |E| (between the full
// per-flow space and the single-weight-vector space).  Each destination t
// is translated independently into row t with its own weight vector
// `weights_by_dest[t]` using the downhill (distance-to-sink) DAG; rows
// may be empty for destinations that receive no traffic, in which case
// they fall back to unit weights.
Routing softmin_routing_per_destination(
    const graph::DiGraph& g,
    const std::vector<std::vector<double>>& weights_by_dest,
    const SoftminOptions& options);

// Maps raw agent actions in [-1,1] to strictly positive edge weights
// usable by softmin_routing (affine map to [min_weight, max_weight]).
std::vector<double> weights_from_actions(std::span<const double> actions,
                                         double min_weight = 0.1,
                                         double max_weight = 10.0);

}  // namespace gddr::routing
