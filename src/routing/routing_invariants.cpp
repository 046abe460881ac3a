#include "routing/routing_invariants.hpp"

#include <cmath>
#include <vector>

#include "graph/algorithms.hpp"
#include "util/contract.hpp"

namespace gddr::routing {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;
using util::contract::describe;
using util::contract::violate_invariant;

void check_softmin_routing(const DiGraph& g, const Routing& routing,
                           double tol, std::string_view label) {
  const auto unit = graph::unit_weights(g);
  std::vector<bool> positive(static_cast<std::size_t>(g.num_edges()));
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    const auto ratios = routing.dest_ratios(t);
    // Connectivity (not distance) is what matters here, so unit weights
    // give the same reachable set as the translation's weighted Dijkstra.
    const auto reach = graph::dijkstra_to(g, t, unit);
    // Absorption: nothing leaves the destination.
    for (EdgeId e : g.out_edges(t)) {
      if (ratios[static_cast<std::size_t>(e)] != 0.0) {
        violate_invariant(
            "destination absorbs all traffic", label,
            describe("dest", t, "edge", e, "ratio",
                     ratios[static_cast<std::size_t>(e)]));
      }
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == t) continue;
      double sum = 0.0;
      bool any = false;
      for (EdgeId e : g.out_edges(v)) {
        const double r = ratios[static_cast<std::size_t>(e)];
        if (r < -tol || r > 1.0 + tol) {
          violate_invariant("every ratio lies in [0, 1]", label,
                            describe("dest", t, "vertex", v, "edge", e,
                                     "ratio", r));
        }
        if (r > 0.0) any = true;
        sum += r;
      }
      if (reach.dist[static_cast<std::size_t>(v)] == graph::kInfDist) {
        if (sum != 0.0) {
          violate_invariant("no ratios at unreachable vertices", label,
                            describe("dest", t, "vertex", v, "mass", sum));
        }
        continue;
      }
      // Row-stochastic splitting at every vertex with out-mass.
      if (any && std::abs(sum - 1.0) > tol) {
        violate_invariant("out-ratios are row-stochastic", label,
                          describe("dest", t, "vertex", v, "sum", sum, "tol",
                                   tol));
      }
    }
    // Acyclicity of the positive-ratio subgraph.
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      positive[static_cast<std::size_t>(e)] =
          ratios[static_cast<std::size_t>(e)] > 0.0;
    }
    if (graph::has_cycle(g, positive)) {
      violate_invariant("positive-ratio subgraph is a DAG", label,
                        describe("dest", t));
    }
  }
}

}  // namespace gddr::routing
