#include "routing/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/algorithms.hpp"

namespace gddr::routing {

using graph::DiGraph;
using graph::EdgeId;
using graph::kInvalidEdge;
using graph::NodeId;

Routing shortest_path_routing(const DiGraph& g,
                              const std::vector<double>& weights) {
  Routing routing(g.num_nodes(), g.num_edges());
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    const auto sp = graph::dijkstra_to(g, t, weights);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == t) continue;
      const EdgeId next = sp.parent_edge[static_cast<size_t>(v)];
      if (next == kInvalidEdge) continue;  // unreachable
      routing.set_ratio(t, next, 1.0);
    }
  }
  return routing;
}

Routing shortest_path_routing(const DiGraph& g) {
  return shortest_path_routing(g, graph::unit_weights(g));
}

Routing ecmp_routing(const DiGraph& g, const std::vector<double>& weights) {
  Routing routing(g.num_nodes(), g.num_edges());
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    const auto dag = graph::shortest_path_dag_to(g, t, weights);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == t) continue;
      const auto& outs = dag[static_cast<size_t>(v)];
      if (outs.empty()) continue;
      const double share = 1.0 / static_cast<double>(outs.size());
      for (EdgeId e : outs) routing.set_ratio(t, e, share);
    }
  }
  return routing;
}

std::vector<double> cancel_flow_cycles(const DiGraph& g,
                                       std::vector<double> flow) {
  if (flow.size() != static_cast<size_t>(g.num_edges())) {
    throw std::invalid_argument("cancel_flow_cycles: size mismatch");
  }
  constexpr double kEps = 1e-12;
  for (;;) {
    // DFS for a cycle in the positive-flow subgraph.
    const auto n = static_cast<size_t>(g.num_nodes());
    std::vector<int> state(n, 0);  // 0 white, 1 grey, 2 black
    std::vector<EdgeId> entered_via(n, kInvalidEdge);
    std::vector<EdgeId> cycle;

    // Iterative DFS with an explicit stack of (node, next out-edge index).
    std::vector<std::pair<NodeId, size_t>> stack;
    bool found = false;
    for (NodeId root = 0; root < g.num_nodes() && !found; ++root) {
      if (state[static_cast<size_t>(root)] != 0) continue;
      stack.clear();
      stack.emplace_back(root, 0);
      state[static_cast<size_t>(root)] = 1;
      while (!stack.empty() && !found) {
        auto& [v, idx] = stack.back();
        const auto outs = g.out_edges(v);
        bool advanced = false;
        while (idx < outs.size()) {
          const EdgeId e = outs[idx++];
          if (flow[static_cast<size_t>(e)] <= kEps) continue;
          const NodeId u = g.edge(e).dst;
          if (state[static_cast<size_t>(u)] == 1) {
            // Found a cycle: walk the grey stack back from v to u.
            cycle.push_back(e);
            NodeId x = v;
            while (x != u) {
              const EdgeId pe = entered_via[static_cast<size_t>(x)];
              cycle.push_back(pe);
              x = g.edge(pe).src;
            }
            found = true;
            break;
          }
          if (state[static_cast<size_t>(u)] == 0) {
            state[static_cast<size_t>(u)] = 1;
            entered_via[static_cast<size_t>(u)] = e;
            stack.emplace_back(u, 0);
            advanced = true;
            break;
          }
        }
        if (found) break;
        if (!advanced && idx >= outs.size()) {
          state[static_cast<size_t>(v)] = 2;
          stack.pop_back();
        }
      }
    }
    if (!found) return flow;
    double bottleneck = std::numeric_limits<double>::infinity();
    for (EdgeId e : cycle) {
      bottleneck = std::min(bottleneck, flow[static_cast<size_t>(e)]);
    }
    for (EdgeId e : cycle) {
      flow[static_cast<size_t>(e)] =
          std::max(0.0, flow[static_cast<size_t>(e)] - bottleneck);
    }
  }
}

Routing routing_from_dest_flows(
    const DiGraph& g, const std::vector<std::vector<double>>& flow_by_dest) {
  if (flow_by_dest.size() != static_cast<size_t>(g.num_nodes())) {
    throw std::invalid_argument("routing_from_dest_flows: size mismatch");
  }
  Routing routing(g.num_nodes(), g.num_edges());
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    const auto& raw = flow_by_dest[static_cast<size_t>(t)];
    if (raw.empty()) continue;
    const auto flow = cancel_flow_cycles(g, raw);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == t) continue;
      // The simplex leaves round-off such as -5e-13 on unused edges; only
      // positive flow counts, or the other shares would exceed 1.
      double out_total = 0.0;
      for (EdgeId e : g.out_edges(v)) {
        out_total += std::max(0.0, flow[static_cast<size_t>(e)]);
      }
      if (out_total <= 1e-12) continue;
      for (EdgeId e : g.out_edges(v)) {
        const double share = flow[static_cast<size_t>(e)] / out_total;
        if (share > 0.0) routing.set_ratio(t, e, share);
      }
    }
  }
  return routing;
}

std::vector<double> inverse_capacity_weights(const DiGraph& g) {
  std::vector<double> w(static_cast<size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    w[static_cast<size_t>(e)] = 1.0 / g.edge(e).capacity;
  }
  return w;
}

Routing min_mean_utilisation_routing(const DiGraph& g) {
  return shortest_path_routing(g, inverse_capacity_weights(g));
}

double mean_utilisation(const DiGraph& g, const SimulationResult& sim) {
  if (g.num_edges() == 0) return 0.0;
  double sum = 0.0;
  for (double u : sim.link_utilisation) sum += u;
  return sum / static_cast<double>(g.num_edges());
}

Routing mean_demand_optimal_routing(const DiGraph& g,
                                    const traffic::DemandSequence& history) {
  if (history.empty()) {
    throw std::invalid_argument("mean_demand_optimal_routing: empty history");
  }
  traffic::DemandMatrix mean = traffic::mean_matrix(history);
  // Pairs unseen in the history still need a defined route (future demand
  // matrices may use them); a tiny epsilon demand makes the LP route every
  // pair without noticeably influencing the optimisation.
  const double eps = std::max(1e-9, 1e-4 * mean.max_entry());
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s != t && mean.at(s, t) <= 0.0) mean.set(s, t, eps);
    }
  }
  // Exact-only: this baseline needs the flow decomposition, which the
  // FPTAS fallback cannot provide (it yields only the U_max value).
  mcf::SolveOptions solve_options;
  solve_options.allow_fptas_fallback = false;
  const mcf::OptimalResult opt = mcf::solve_optimal(g, mean, solve_options);
  if (opt.provenance != mcf::SolveProvenance::kExact) {
    throw std::runtime_error("mean_demand_optimal_routing: LP failed");
  }
  return routing_from_dest_flows(g, opt.flow_by_dest);
}

}  // namespace gddr::routing
